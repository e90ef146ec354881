package core

import (
	"fmt"
	"slices"

	"kronlab/internal/graph"
)

// StreamProduct enumerates the arcs of C = A ⊗ B without materializing C:
// for every arc (i,j) of A and every arc (k,l) of B it yields the product
// arc (γ(i,k), γ(j,l)), γ(i,k) = i·n_B + k. Iteration stops early if
// yield returns false.
//
// This is exactly the expansion each processor performs in the paper's
// generator (Sec. III): a processor holding a subset of A's arcs and all
// of B streams its share of C's arcs.
func StreamProduct(a, b *graph.Graph, yield func(u, v int64) bool) {
	nB := b.NumVertices()
	stop := false
	a.Arcs(func(i, j int64) bool {
		b.Arcs(func(k, l int64) bool {
			if !yield(i*nB+k, j*nB+l) {
				stop = true
				return false
			}
			return true
		})
		return !stop
	})
}

// ExpandBlock appends the product arcs of one A-arc against a slice of
// B-arcs, (aArc.U·nB + e.U, aArc.V·nB + e.V) for each e in bArcs order, to
// out with append's semantics (the adds wrap like Go's +) and returns it:
// the paper's Sec. III expansion for two factors in plain Go, the γ
// offsets hoisted out — the reference the tests hold the cursor's packed
// walk to. Pass bArcs = b.ArcSlice() and nB = b.NumVertices(); the order
// is then StreamProduct's.
func ExpandBlock(aArc graph.Edge, bArcs []graph.Edge, nB int64, out []graph.Edge) []graph.Edge {
	u0, v0, n := aArc.U*nB, aArc.V*nB, len(out)
	out = slices.Grow(out, len(bArcs))[:n+len(bArcs)]
	dst := out[n:][:len(bArcs)] // one bounds check, not one an arc
	for i, e := range bArcs {
		dst[i] = graph.Edge{U: u0 + e.U, V: v0 + e.V}
	}
	return out
}

// Product materializes C = A ⊗ B as a Graph on n_A·n_B vertices.
// If A and B are symmetric, so is C.
func Product(a, b *graph.Graph) (*graph.Graph, error) {
	nC := a.NumVertices() * b.NumVertices()
	if a.NumVertices() != 0 && nC/a.NumVertices() != b.NumVertices() {
		return nil, fmt.Errorf("core: product vertex count overflows int64: %d * %d", a.NumVertices(), b.NumVertices())
	}
	arcs := make([]graph.Edge, 0, a.NumArcs()*b.NumArcs())
	StreamProduct(a, b, func(u, v int64) bool {
		arcs = append(arcs, graph.Edge{U: u, V: v})
		return true
	})
	return graph.New(nC, arcs)
}

// ProductWithSelfLoops materializes C = (A+I_A) ⊗ (B+I_B), the
// "full self loops in both factors" construction used by Cor. 1, Cor. 2
// and Thm. 6. The inputs are used as given (existing loops are preserved
// by the +I saturation).
func ProductWithSelfLoops(a, b *graph.Graph) (*graph.Graph, error) {
	return Product(a.WithFullSelfLoops(), b.WithFullSelfLoops())
}

// KronSet returns the Kronecker product of vertex sets S_A ⊗ S_B
// (Def. 14): { γ(i,k) = i·nB + k : i ∈ S_A, k ∈ S_B }, in ascending order
// when the inputs are ascending.
func KronSet(sa, sb []int64, nB int64) []int64 {
	out := make([]int64, 0, len(sa)*len(sb))
	for _, i := range sa {
		for _, k := range sb {
			out = append(out, i*nB+k)
		}
	}
	return out
}

// KronPartition returns the Kronecker partition Π_1 ⊗ … ⊗ Π_k
// (Def. 16) of the factors' partitions parts, folded pairwise as
// Π_C = Π_A ⊗ Π_B: the Π_d |Π_d| sets S_1 ⊗ … ⊗ S_k in ChainIndex
// numbering, ordered with the last factor's partition index varying
// fastest. dims are the factors' vertex counts (dims[0] is not read).
func KronPartition(parts [][][]int64, dims []int64) [][]int64 {
	out := parts[0]
	for d := 1; d < len(parts); d++ {
		next := make([][]int64, 0, len(out)*len(parts[d]))
		for _, sa := range out {
			for _, sb := range parts[d] {
				next = append(next, KronSet(sa, sb, dims[d]))
			}
		}
		out = next
	}
	return out
}
