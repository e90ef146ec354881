package dist

import (
	"reflect"

	"kronlab/internal/store"
)

// DefaultBatchSize is the size of the scratch block every rank expands into
// and the largest block a sink is handed when Config.BatchSize is unset.
// 1024 is the top of a cliff (DESIGN §3a): smaller blocks pay the per-block
// path more often; the block — 16 B × BatchSize, 16 KB here — must stay in a
// 48 KB L1 next to the innermost factor streaming through it, and at 2048 it
// does not: unplaced expansion (dist.Run, RMAT(10)², R = 2) reads 8.6–8.9 /
// 9.8–10.1 / 4.8–4.9 / 4.7–4.9 / 4.7–4.8 e9 arcs/s at 512 / 1024 / 2048 /
// 4096 / 8192 on addEdges' 256-bit loop, and 9.8–10.2 / 11.6–12.2 / 5.8–6.0 /
// 5.2–5.3 / 5.2 on the cursor's packed AVX-512 body.
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
	if reflect.ValueOf(f).Pointer() != ownerBySourcePC {
		return nil
	}
	return func(u int64) int { return store.BySource(u, 0, r) }
}

// OwnerBySource assigns edges to ranks by a multiplicative hash of the
// source endpoint — 1D vertex partitioning of the product graph, and the
// shard map of internal/store: it is store.BySource, the map's one
// definition, which keeps the hash's high bits so that every rank owns 1/r
// of the arcs but for the hubs' share. It must be passed as is, not wrapped
// in another function.
var OwnerBySource OwnerFunc = store.BySource

// ownerBySourcePC is OwnerBySource's code pointer, what recognition
// compares against: func values are not comparable in Go, and
// OwnerBySource has to stay a plain OwnerFunc value for its callers.
var ownerBySourcePC = reflect.ValueOf(OwnerBySource).Pointer()

// BlockOwner assigns contiguous source-vertex blocks of size ⌈NC/r⌉ —
// the layout a CSR-partitioned distributed graph store would use. The
// block size is fixed once per attempt, and a rank copies nothing for a
// sweep its block covers and steps over one it has no row of.
type BlockOwner struct {
	NC int64 // product vertex count n_A·n_B
}

// BindSource implements Owner.
func (o BlockOwner) BindSource(r int) func(u int64) int {
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
