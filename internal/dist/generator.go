package dist

import (
	"context"
	"math"

	"kronlab/internal/core"
	"kronlab/internal/graph"
	"kronlab/internal/store"
)

// Result is the outcome of a distributed generation: the product edges
// stored at each rank (by the owner map) plus traffic statistics.
type Result struct {
	NC      int64          // product vertex count n_A·n_B
	PerRank [][]graph.Edge // arcs stored by each rank
	Stats   Stats
}

// TotalStored returns the total number of arcs stored across ranks.
func (res *Result) TotalStored() int64 {
	var t int64
	for _, s := range res.PerRank {
		t += int64(len(s))
	}
	return t
}

// MaxRankStorage returns the largest per-rank arc count — the paper's
// per-processor storage term O(|E_A|/R + |E_B|) plus owned output.
func (res *Result) MaxRankStorage() int64 {
	var m int64
	for _, s := range res.PerRank {
		if int64(len(s)) > m {
			m = int64(len(s))
		}
	}
	return m
}

// Collect merges all per-rank stored arcs into a single Graph — the
// oracle check that the distributed run produced exactly C = A ⊗ B, and
// krongen's whole-graph output. The merged slice is sized from
// TotalStored, so it is allocated once.
func (res *Result) Collect() (*graph.Graph, error) {
	arcs := make([]graph.Edge, 0, res.TotalStored())
	for _, s := range res.PerRank {
		arcs = append(arcs, s...)
	}
	return graph.New(res.NC, arcs)
}

// PartitionArcs splits arcs into parts contiguous blocks of near-equal
// size (the "evenly distributed across the R processors" of Sec. III).
// Parts beyond len(arcs) are empty.
func PartitionArcs(arcs []graph.Edge, parts int) [][]graph.Edge {
	out := make([][]graph.Edge, parts)
	n := int64(len(arcs))
	p := int64(parts)
	for i := int64(0); i < p; i++ {
		lo := i * n / p
		hi := (i + 1) * n / p
		out[i] = arcs[lo:hi]
	}
	return out
}

// GenerateChain runs the distributed generator over a factor chain
// A₁⊗…⊗Aₖ on a simulated cluster of r ranks with an in-memory sink: the
// head's arcs are the split dimension — evenly distributed under the
// paper's Sec. III 1D partitioning, crossed with parts of the first tail
// factor under Rem. 1's 2D grid (twoD) — each rank folds the replicated
// tail lazily through the chain kernel, and every edge is generated and
// stored at the rank owner names (nil: OwnerBySource). Any owner but
// OwnerBySource and a BlockOwner is refused, as Run refuses it. Per-rank memory is
// O(|E_A₁|/R + Σ|E_tail| + stored), time O(|E_C|/R).
func GenerateChain(ch *core.Chain, r int, owner Owner, twoD bool) (*Result, error) {
	if owner == nil {
		owner = OwnerBySource
	}
	plan, err := planForChain(ch, r, twoD)
	if err != nil {
		return nil, err
	}
	arcs, arcsErr := ch.NumArcs()
	if arcsErr != nil {
		// |E_C| overflows int64: an in-memory run cannot hold the result
		// anyway; refuse rather than generate garbage.
		return nil, arcsErr
	}
	sink := NewMemorySink(r)
	// The product arc count is exact ground truth before expansion; size
	// each rank's buffer so append growth never runs during generation.
	// For the default source-keyed owner the per-rank load itself is
	// ground truth: out-degrees factor across the whole chain
	// (deg_C(p) = Π deg_d(digit_d(p))), so summing the degree products of
	// each rank's owned product vertices gives exact buffer sizes in
	// O(|V_C|) — which the gate keeps a small fraction of the O(|E_C|)
	// expansion. A hashed share is never exactly 1/r (the hubs' arcs land
	// whole, a percent of skew at r = 16 and tens at r ≥ 64), so the
	// ideal-share hint under-sizes the busier ranks and each pays one
	// growslice doubling of its whole buffer.
	f, _ := owner.(OwnerFunc)
	if limit, ok := core.CheckedMul(4, arcs); f.isBySource() && ok && plan.NC <= limit {
		sink.Hints = chainSourceHashLoads(ch, r)
	} else {
		sink.Hint = arcs/int64(r) + 1
	}
	st, err := Run(context.Background(), Config{Plan: plan, Owner: owner, Sink: sink})
	if err != nil {
		return nil, err
	}
	return &Result{NC: plan.NC, PerRank: sink.PerRank, Stats: st}, nil
}

// chainSourceHashLoads returns the exact number of product arcs the
// default source-hash owner places on each of r ranks: product vertex p
// has out-degree Π deg_d(digit_d(p)), and its whole arc set lands on the
// rank its source hashes to — the map bound to the innermost factor, as a
// plan of the chain binds it (sourceForm; a one-factor chain's plan binds
// to its 1-vertex identity tail, and both bindings are the identity on the
// head's ids). O(|V_C|) time via a recursive sweep of the mixed-radix digit
// space.
func chainSourceHashLoads(ch *core.Chain, r int) []int64 {
	loads := make([]int64, r)
	factors := ch.Factors()
	bySource := OwnerBySource.BindSource(r, factors[len(factors)-1].NumVertices())
	ci := ch.Index()
	var rec func(d int, base, deg int64)
	rec = func(d int, base, deg int64) {
		g := factors[d]
		n := g.NumVertices()
		if d == len(factors)-1 {
			for k := int64(0); k < n; k++ {
				if dk := g.Degree(k); dk > 0 {
					loads[bySource(base+k)] += deg * dk
				}
			}
			return
		}
		stride := ci.Stride(d)
		for k := int64(0); k < n; k++ {
			if dk := g.Degree(k); dk > 0 {
				rec(d+1, base+k*stride, deg*dk)
			}
		}
	}
	rec(0, 0, 1)
	return loads
}

// Grid2D is the processor grid of Rem. 1: R½ = ⌈√R⌉ columns of A-parts by
// Q = ⌈R/R½⌉ rows of B-parts. The paper's assignment
// C_ρ = A_{ρ%R½} ⊗ B_{⌊ρ/R½⌋} covers every (A-part, B-part) tile only when
// R = R½·Q exactly; for general R we assign the R½·Q tiles round-robin to
// ranks (tile t → rank t % R), so some ranks own two tiles — a correctness
// completion of the paper's sketch.
type Grid2D struct {
	RHalf, Q int
}

// NewGrid2D returns the 2D decomposition for r ranks.
func NewGrid2D(r int) Grid2D {
	rh := int(math.Ceil(math.Sqrt(float64(r))))
	q := (r + rh - 1) / rh
	return Grid2D{RHalf: rh, Q: q}
}

// Tiles returns the number of (A-part, B-part) tiles R½·Q.
func (g Grid2D) Tiles() int { return g.RHalf * g.Q }

// TileOf returns the (A-part, B-part) coordinates of tile t.
func (g Grid2D) TileOf(t int) (aPart, bPart int) { return t % g.RHalf, t / g.RHalf }

// EffectiveParallelism1D returns the number of ranks that receive any work
// under 1D partitioning: min(R, |arcs_A|) — the Rem. 1 scalability wall.
func EffectiveParallelism1D(a *graph.Graph, r int) int {
	if int64(r) > a.NumArcs() {
		return int(a.NumArcs())
	}
	return r
}

// EffectiveParallelism2D returns the number of ranks with work under the
// 2D decomposition: min(R, arcs_A·arcs_B tiles with both parts nonempty).
func EffectiveParallelism2D(a, b *graph.Graph, r int) int {
	grid := NewGrid2D(r)
	aBusy := grid.RHalf
	if int64(aBusy) > a.NumArcs() {
		aBusy = int(a.NumArcs())
	}
	bBusy := grid.Q
	if int64(bBusy) > b.NumArcs() {
		bBusy = int(b.NumArcs())
	}
	busy := aBusy * bBusy
	if busy > r {
		busy = r
	}
	return busy
}

// GenerateChainToStore runs the chain generator with each rank streaming
// its owned edges to its own shard of an on-disk store — the full
// generate-and-store pipeline at any chain depth with O(batch) memory per
// rank regardless of |E_C|. The owner map is forced to shard-per-rank
// placement (OwnerBySource, matching store.BySource) so shard i holds
// exactly rank i's owned edges, which rank i generates itself.
func GenerateChainToStore(ch *core.Chain, r int, dir string, twoD bool) (*store.Store, Stats, error) {
	return GenerateChainToStoreFrom(ch, r, dir, twoD, 0, -1)
}

// GenerateChainToStoreFrom is GenerateChainToStore over a contiguous
// window of the chain's deterministic stream: limit arcs (< 0 = through
// the end) starting at global arc offset — sharded dumps of a slice of a
// huge product, without generating the skipped prefix (Plan.Slice
// windows the tiles arithmetically). The store's manifest records only
// the window's edges; NC stays the full product's vertex count.
func GenerateChainToStoreFrom(ch *core.Chain, r int, dir string, twoD bool, offset, limit int64) (*store.Store, Stats, error) {
	plan, err := sliceForChain(ch, r, twoD, offset, limit)
	if err != nil {
		return nil, Stats{}, err
	}
	sink := NewStoreSink(dir, r)
	st, err := Run(context.Background(), Config{Plan: plan, Owner: OwnerBySource, Sink: sink})
	if err != nil {
		return nil, Stats{}, err
	}
	s, err := sink.Finalize(plan.NC)
	if err != nil {
		return nil, Stats{}, err
	}
	return s, st, nil
}
