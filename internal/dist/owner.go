package dist

import (
	"fmt"
	"reflect"

	"kronlab/internal/store"
)

// DefaultBatchSize is the size of the scratch block every rank expands into
// and the largest block a sink is handed when Config.BatchSize is unset.
// 1024 is at the top of a cliff (DESIGN §3a): smaller blocks pay the
// per-block path more often, and the block must stay in a 48 KB L1 next to
// the innermost factor streaming through it. A block is packed arcs,
// 8 B × BatchSize, 8 KB here. Unplaced expansion (dist.Run, RMAT(10)²,
// R = 2, CountSink) reads 23.8–23.9 / 27.5 / 28.4 / 13.1 / 13.1 e9 arcs/s
// at 512 / 1024 / 2048 / 4096 / 8192 — the cliff is where the block passes
// 16 KB. With the narrow source 1024 and 2048 could not be told apart
// (DESIGN §3a), so the default stays.
const DefaultBatchSize = 1024

// Owner maps generated edges to the ranks that store them. The paper leaves
// the storage mapping open ("some mapping scheme"); the engine places by
// two maps of the source vertex, OwnerBySource and BlockOwner. BindSource,
// asked once per run, returns the map at r ranks for a plan whose
// innermost factor has nL vertices as a pure function of the source, and
// every rank walks every tile and generates the CSR rows it owns straight
// into its own sink (ownedRows) — the paper's Sec. III "generate only the
// edges it must store" — at the price of stepping over every sweep of
// every tile. Nothing is staged, batched or sent. A rank's rows of a sweep
// are one class of the factor's rows under OwnerBySource and one range of
// them under a BlockOwner, so its pick is a lookup or a subslice; any other
// owner, whatever its BindSource answers, is refused by RunCluster by name
// before any sink is opened.
type Owner interface {
	BindSource(r int, nL int64) func(u int64) int
}

// OwnerFunc is the type of OwnerBySource, the one function value the engine
// places by. The engine cannot see inside a function value, so any other
// OwnerFunc — a closure with the same body included — is refused.
type OwnerFunc func(u, v int64, r int) int

// BindSource implements Owner: store.SourceMap(nL) bound to r for
// OwnerBySource, recognised by code pointer, and nil for any other
// function, a nil one included.
func (f OwnerFunc) BindSource(r int, nL int64) func(u int64) int {
	if !f.isBySource() {
		return nil
	}
	m := store.SourceMap(nL)
	return func(u int64) int { return m(u, 0, r) }
}

// isBySource reports whether f is OwnerBySource itself.
func (f OwnerFunc) isBySource() bool {
	return reflect.ValueOf(f).Pointer() == ownerBySourcePC
}

// OwnerBySource assigns edges to ranks by a hash of the source endpoint —
// 1D vertex partitioning of the product graph, and the shard map of
// internal/store: it is store.BySource, the map's one definition, the sum
// mod r of the Fibonacci hashes of the source's set bits, each reduced by
// its high bits, so that every rank owns 1/r of the arcs but for the hubs'
// share. The engine places by it bound to the plan's innermost factor
// (BindSource: store.SourceMap, which pads the innermost digit to a power
// of two), so that the map adds over that digit and a rank looks its rows
// of a sweep up rather than ask about each (ownedRows). Calling
// OwnerBySource(u, v, r) directly gives the placement exactly when the
// innermost factor's vertex count is a power of two, where the padding is
// the identity. It must be passed as is, not wrapped in another function.
var OwnerBySource OwnerFunc = store.BySource

// ownerBySourcePC is OwnerBySource's code pointer, what recognition
// compares against: func values are not comparable in Go, and
// OwnerBySource has to stay a plain OwnerFunc value for its callers.
var ownerBySourcePC = reflect.ValueOf(OwnerBySource).Pointer()

// BlockOwner assigns contiguous source-vertex blocks of size ⌈NC/r⌉ —
// the layout a CSR-partitioned distributed graph store would use. The
// block size is fixed once per attempt; a rank's rows of a sweep are one
// contiguous range of the innermost factor, so its pick is a subslice of
// the factor's arcs (ownedRows), empty for a sweep it has no row of.
type BlockOwner struct {
	NC int64 // product vertex count n_A·n_B; at least 1
}

// BindSource implements Owner; a block map reads no factor, so nL is
// unused. It answers nil for NC < 1, which has no blocks, so that
// RunCluster refuses the owner by name before any sink is opened.
func (o BlockOwner) BindSource(r int, _ int64) func(u int64) int {
	if o.NC < 1 {
		return nil
	}
	per := o.per(r)
	last := r - 1
	return func(u int64) int {
		d := int(u / per)
		if d > last {
			d = last
		}
		return d
	}
}

// per is the block size at r ranks, ⌈NC/r⌉.
func (o BlockOwner) per(r int) int64 { return (o.NC + int64(r) - 1) / int64(r) }

// OwnerByBlock returns BlockOwner{NC: nC}.
func OwnerByBlock(nC int64) BlockOwner { return BlockOwner{NC: nC} }

// sourceForm is the owner's source form for a run of plan: OwnerBySource
// bound to the plan's R and to n_L, the vertex count of the plan's
// innermost factor — the factor the walk reads, and not Plan.Dims; a plan
// with no tail binds to 1 — or a BlockOwner's blocks. Any other owner is
// refused by name. A nil owner has no form.
func sourceForm(owner Owner, plan Plan) (func(u int64) int, error) {
	switch o := owner.(type) {
	case nil:
		return nil, nil
	case OwnerFunc:
		if !o.isBySource() {
			break
		}
		nL := int64(1)
		if k := len(plan.Tail); k > 0 {
			nL = plan.Tail[k-1].NumVertices()
		}
		return o.BindSource(plan.R, nL), nil
	case BlockOwner:
		if f := o.BindSource(plan.R, 0); f != nil {
			return f, nil
		}
	}
	return nil, fmt.Errorf("dist: owner %T is neither OwnerBySource nor a BlockOwner with blocks: the engine places by those source maps alone", owner)
}
