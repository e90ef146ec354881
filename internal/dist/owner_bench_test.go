package dist

import "testing"

// BenchmarkOwnerByBlock measures one owner-map evaluation per iteration —
// the unit of work the routed kernel pays once per generated edge — for
// the two forms of the block owner: the recompute-per-call OwnerFunc and
// the plan-time-bound BlockOwner. The bound form is the one the engine
// routes with; the other quantifies what binding at plan time buys.
func BenchmarkOwnerByBlock(b *testing.B) {
	const nC = int64(1) << 40
	const r = 16
	b.Run("unbound", func(b *testing.B) {
		f := OwnerByBlock(nC)
		var acc int
		for i := 0; i < b.N; i++ {
			acc += f(int64(i)&(nC-1), 0, r)
		}
		sinkOwner = acc
	})
	b.Run("bound", func(b *testing.B) {
		f := BlockOwner{NC: nC}.Bind(r)
		var acc int
		for i := 0; i < b.N; i++ {
			acc += f(int64(i)&(nC-1), 0)
		}
		sinkOwner = acc
	})
}

// sinkOwner defeats dead-code elimination of the benchmarked owner calls.
var sinkOwner int

// TestBlockOwnerFormsAgree pins the two forms to the same routing
// decisions, so the benchmark compares implementations of one function
// rather than two different owner maps.
func TestBlockOwnerFormsAgree(t *testing.T) {
	const nC = int64(1000)
	unbound := OwnerByBlock(nC)
	for _, r := range []int{1, 3, 16} {
		bound := BlockOwner{NC: nC}.Bind(r)
		for u := int64(0); u < nC; u += 7 {
			if ub, bd := unbound(u, 0, r), bound(u, 0); ub != bd {
				t.Fatalf("r=%d u=%d: unbound=%d bound=%d", r, u, ub, bd)
			}
		}
	}
}
