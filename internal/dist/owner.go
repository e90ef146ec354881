package dist

import (
	"reflect"

	"kronlab/internal/store"
)

// DefaultBatchSize is the size of the scratch block every rank expands into
// and the largest block a sink is handed when Config.BatchSize is unset.
// 1024 is at the top of a cliff (DESIGN §3a): smaller blocks pay the
// per-block path more often, and the block must stay in a 48 KB L1 next to
// the innermost factor streaming through it. A packed block (a product of
// at most 2³² vertices) is 8 B × BatchSize, 8 KB here; a wide one 16 B ×
// BatchSize, 16 KB. Unplaced expansion (dist.Run, RMAT(10)², R = 2,
// CountSink) reads 23.8–23.9 / 27.5 / 28.4 / 13.1 / 13.1 e9 arcs/s in
// packed blocks at 512 / 1024 / 2048 / 4096 / 8192 — the cliff is where the
// block passes 16 KB — against 16.7–16.8 / 18.1–18.5 / 9.2 / 6.9 / 6.9 for
// the wide walk's packed AVX-512 body. 2048 gains 3 % in packed blocks and
// would halve a wide walk, so the default stays.
const DefaultBatchSize = 1024

// Owner maps generated edges to the ranks that store them. The paper leaves
// the storage mapping open ("some mapping scheme"); the engine takes any map
// of the source vertex alone. BindSource, asked once per run attempt,
// returns the map at r ranks as a pure function of the source, and every
// rank walks every tile and generates the CSR rows it owns straight into its
// own sink (ownedRows) — the paper's Sec. III "generate only the edges it
// must store" — at the price of stepping over every sweep of every tile.
// Nothing is staged, batched or sent. An owner whose BindSource returns nil
// reads the target too, and RunCluster refuses it before any sink is
// opened.
type Owner interface {
	BindSource(r int) func(u int64) int
}

// OwnerFunc is the type of OwnerBySource, the one function value with a
// source form. The engine cannot see inside a function value, so any other
// OwnerFunc — a closure with the same body included — has none and is
// refused.
type OwnerFunc func(u, v int64, r int) int

// BindSource implements Owner: store.BySource bound to r for OwnerBySource,
// recognised by code pointer, and nil for any other function, a nil one
// included.
func (f OwnerFunc) BindSource(r int) func(u int64) int {
	if !f.isBySource() {
		return nil
	}
	return func(u int64) int { return store.BySource(u, 0, r) }
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
// share. The sum adds over disjoint bits, which is what lets a rank look
// its rows of a sweep up rather than ask about each (ownedRows). It must
// be passed as is, not wrapped in another function.
var OwnerBySource OwnerFunc = store.BySource

// ownerBySourcePC is OwnerBySource's code pointer, what recognition
// compares against: func values are not comparable in Go, and
// OwnerBySource has to stay a plain OwnerFunc value for its callers.
var ownerBySourcePC = reflect.ValueOf(OwnerBySource).Pointer()

// BlockOwner assigns contiguous source-vertex blocks of size ⌈NC/r⌉ —
// the layout a CSR-partitioned distributed graph store would use. The
// block size is fixed once per attempt, and a rank copies nothing for a
// sweep its block covers and steps over one it has no row of. Its rows are
// picked one by one (ownedRows): a block map does not add over bits.
type BlockOwner struct {
	NC int64 // product vertex count n_A·n_B; at least 1
}

// BindSource implements Owner. It answers nil for NC < 1, which has no
// blocks, so that RunCluster refuses the owner by name before any sink is
// opened.
func (o BlockOwner) BindSource(r int) func(u int64) int {
	if o.NC < 1 {
		return nil
	}
	per := (o.NC + int64(r) - 1) / int64(r)
	last := r - 1
	return func(u int64) int {
		d := int(u / per)
		if d > last {
			d = last
		}
		return d
	}
}

// OwnerByBlock returns BlockOwner{NC: nC}.
func OwnerByBlock(nC int64) BlockOwner { return BlockOwner{NC: nC} }
