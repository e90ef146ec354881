package core

import (
	"slices"

	"kronlab/internal/graph"
)

// Product materializes the chain product A₁ ⊗ … ⊗ Aₖ (Def. 1, folded
// left) as a Graph on Π n_d vertices, filled from Chain.Arcs — the serial
// reference the distributed paths are compared against, so it shares no
// code with the engine's TailCursor walk. It fails if the vertex or arc
// count overflows int64. It is meant for small products (tests,
// closed-form cross-checks); real generation streams. If every factor is
// symmetric, so is the product.
func Product(factors ...*graph.Graph) (*graph.Graph, error) {
	c, err := NewChain(factors...)
	if err != nil {
		return nil, err
	}
	total, err := c.NumArcs()
	if err != nil {
		return nil, err
	}
	arcs := make([]graph.Edge, 0, total)
	c.Arcs(func(u, v int64) bool {
		arcs = append(arcs, graph.Edge{U: u, V: v})
		return true
	})
	return graph.New(c.NumVertices(), arcs)
}

// ExpandBlock appends the product arcs of one A-arc against a slice of
// B-arcs, (aArc.U·nB + e.U, aArc.V·nB + e.V) for each e in bArcs order, to
// out with append's semantics (the adds wrap like Go's +) and returns it:
// the paper's Sec. III expansion for two factors in plain Go, the γ
// offsets hoisted out — the reference the tests hold the cursor's packed
// walk to. Pass bArcs = b.ArcSlice() and nB = b.NumVertices(); the order
// is then Chain.Arcs' at k = 2.
func ExpandBlock(aArc graph.Edge, bArcs []graph.Edge, nB int64, out []graph.Edge) []graph.Edge {
	u0, v0, n := aArc.U*nB, aArc.V*nB, len(out)
	out = slices.Grow(out, len(bArcs))[:n+len(bArcs)]
	dst := out[n:][:len(bArcs)] // one bounds check, not one an arc
	for i, e := range bArcs {
		dst[i] = graph.Edge{U: u0 + e.U, V: v0 + e.V}
	}
	return out
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
