package dist

import (
	"errors"
	"fmt"
	"testing"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// chainStreamRef captures the full deterministic stream of a chain at a
// layout — the reference every seeked stream is pinned against,
// edge for edge.
func chainStreamRef(t testing.TB, ch *core.Chain, r int, twoD bool) []graph.Edge {
	t.Helper()
	out, _ := streamArcs(t, ch, r, twoD, 64, 0, -1, Recovery{})
	return out
}

func TestPlanLocate(t *testing.T) {
	a := gen.PrefAttach(10, 2, 51)
	b := gen.ER(7, 0.5, 52)
	for _, tc := range []struct {
		name string
		r    int
		twoD bool
	}{
		{"1d-3", 3, false}, {"2d-5", 5, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			plan, err := planForChain(mustChain(a, b), tc.r, tc.twoD)
			if err != nil {
				t.Fatal(err)
			}
			total, err := plan.TotalArcs()
			if err != nil {
				t.Fatal(err)
			}
			if want := a.NumArcs() * b.NumArcs(); total != want {
				t.Fatalf("TotalArcs = %d, want %d", total, want)
			}
			// Walk every offset and cross-check Locate against a manual
			// cumulative walk of the ordered tiles.
			tiles := plan.orderedTiles()
			cum := int64(0)
			ti := 0
			for off := int64(0); off <= total; off++ {
				for ti < len(tiles)-1 && off-cum >= plan.Arcs(tiles[ti]) {
					cum += plan.Arcs(tiles[ti])
					ti++
				}
				id, within, err := plan.Locate(off)
				if err != nil {
					t.Fatalf("Locate(%d): %v", off, err)
				}
				if id != tiles[ti].ID || within != off-cum {
					t.Fatalf("Locate(%d) = (%d,%d), want (%d,%d)", off, id, within, tiles[ti].ID, off-cum)
				}
			}
			if _, _, err := plan.Locate(-1); err == nil {
				t.Error("Locate(-1) should error")
			}
			if _, _, err := plan.Locate(total + 1); err == nil {
				t.Error("Locate(total+1) should error")
			}
		})
	}
}

func TestPlanSliceComposes(t *testing.T) {
	a := gen.ER(8, 0.5, 53)
	b := gen.ER(6, 0.6, 54)
	plan, err := planForChain(mustChain(a, b), 4, true)
	if err != nil {
		t.Fatal(err)
	}
	total, err := plan.TotalArcs()
	if err != nil {
		t.Fatal(err)
	}
	// Slice [10, 10+40), then slice that again [5, 5+20): must equal the
	// direct slice [15, 15+20) — window composition.
	if total < 40 {
		t.Fatalf("graph too small for the composition windows: total %d", total)
	}
	s1, err := plan.Slice(10, 40)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := s1.TotalArcs(); got != 40 {
		t.Fatalf("first slice generates %d arcs, want 40", got)
	}
	s2, err := s1.Slice(5, 20)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := plan.Slice(15, 20)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprintf("%+v", s2.Tiles) != fmt.Sprintf("%+v", direct.Tiles) {
		t.Fatalf("composed slice differs from direct slice:\n  composed %+v\n  direct   %+v", s2.Tiles, direct.Tiles)
	}
	// Out-of-range offsets refuse; a negative limit runs to the end.
	if _, err := plan.Slice(total+1, -1); err == nil {
		t.Error("Slice past the end should error")
	}
	open, err := plan.Slice(total-3, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := open.TotalArcs(); got != 3 {
		t.Fatalf("open-ended tail slice generates %d arcs, want 3", got)
	}
	// An empty window is a valid degenerate plan.
	empty, err := plan.Slice(total, -1)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := empty.TotalArcs(); got != 0 {
		t.Fatalf("empty slice generates %d arcs, want 0", got)
	}
}

// TestStreamChainFromParity is the seekable stream's core guarantee: a
// stream started at offset N with limit L is edge-for-edge the [N, N+L)
// window of the full stream — at every layout, chain depth, window shape
// and retry budget. The er20 chain's tiles are no multiple of the batch.
func TestStreamChainFromParity(t *testing.T) {
	chains := map[string][]*graph.Graph{
		"k2":   {gen.PrefAttach(9, 2, 61), gen.ER(7, 0.5, 62)},
		"k3":   {gen.ER(5, 0.5, 63), gen.Ring(4), gen.ER(3, 0.8, 64)},
		"er20": {gen.ER(20, 0.5, 1), gen.ER(20, 0.5, 2)},
	}
	layouts := []struct {
		name string
		r    int
		twoD bool
	}{
		{"1d-1", 1, false}, {"1d-4", 4, false}, {"2d-4", 4, true}, {"2d-7-uneven", 7, true},
	}
	for cname, factors := range chains {
		ch, err := core.NewChain(factors...)
		if err != nil {
			t.Fatal(err)
		}
		for _, lt := range layouts {
			t.Run(cname+"/"+lt.name, func(t *testing.T) {
				want := chainStreamRef(t, ch, lt.r, lt.twoD)
				total := int64(len(want))
				plan, err := planForChain(ch, lt.r, lt.twoD)
				if err != nil {
					t.Fatal(err)
				}
				// Offsets that cross tile boundaries: 0, mid-tile, an exact
				// tile boundary, and the stream's last arc and end.
				offsets := []int64{0, 1, total / 3, total - 1, total}
				if id0, _, err := plan.Locate(0); err == nil {
					// First tile's boundary, when it is interior.
					for _, ts := range plan.Tiles {
						for _, tl := range ts {
							if tl.ID == id0 && plan.Arcs(tl) < total {
								offsets = append(offsets, plan.Arcs(tl))
							}
						}
					}
				}
				for i, off := range offsets {
					for j, limit := range []int64{-1, 0, 1, (total - off) / 2} {
						// Every window at some budget, every budget at some window.
						rec := Recovery{MaxRetries: streamBudgets[(i+j)%len(streamBudgets)]}
						got, _ := streamArcs(t, ch, lt.r, lt.twoD, 16, off, limit, rec)
						wantN := total - off
						if limit >= 0 && limit < wantN {
							wantN = limit
						}
						assertSameOrder(t, fmt.Sprintf("off=%d limit=%d retries=%d", off, limit, rec.MaxRetries),
							got, want[off:off+wantN])
					}
				}
			})
		}
	}
}

// TestStream1DOrderMatchesSerial pins the canonical-order law resume
// depends on: under 1D partitioning the stream equals the serial chain
// enumeration regardless of rank count, so a seeked 1D stream is the
// serial enumeration's tail.
func TestStream1DOrderMatchesSerial(t *testing.T) {
	ch := mustChain(gen.PrefAttach(8, 2, 71), gen.ER(6, 0.5, 72))
	total, err := ch.NumArcs()
	if err != nil {
		t.Fatal(err)
	}
	off := total / 2
	serial := serialArcs(t, ch, off)
	for _, r := range []int{1, 3, 5} {
		for _, retries := range streamBudgets {
			got, _ := streamArcs(t, ch, r, false, 32, off, -1, Recovery{MaxRetries: retries})
			assertSameOrder(t, fmt.Sprintf("r=%d retries=%d", r, retries), got, serial)
		}
	}
}

func TestStreamChainFromBadWindow(t *testing.T) {
	ch, err := core.NewChain(gen.Ring(3), gen.Ring(3))
	if err != nil {
		t.Fatal(err)
	}
	emit := func([]graph.Edge) error { return nil }
	if _, err := StreamChainFrom(watchdogCtx(t), ch, 2, false, 0, -1, -1, Recovery{}, emit); err == nil {
		t.Error("negative offset should error")
	}
	total, _ := ch.NumArcs()
	if _, err := StreamChainFrom(watchdogCtx(t), ch, 2, false, 0, total+1, -1, Recovery{}, emit); err == nil {
		t.Error("offset past the end should error")
	}
}

// TestStreamEmitErrorReturnsBuffers is the regression test for the
// batch-buffer leak: when emit fails mid-stream (a truncated HTTP
// response), every pooled buffer — including the batch in flight at the
// failure — must come back, leaving the outstanding counter at zero.
func TestStreamEmitErrorReturnsBuffers(t *testing.T) {
	a := gen.ER(30, 0.4, 81)
	b := gen.ER(30, 0.4, 82)
	sentinel := errors.New("client went away")
	for _, retries := range streamBudgets {
		calls := 0
		stats, err := StreamChainFrom(watchdogCtx(t), mustChain(a, b), 4, true, 32, 0, -1, Recovery{MaxRetries: retries}, func([]graph.Edge) error {
			calls++
			if calls >= 3 {
				return sentinel
			}
			return nil
		})
		if !errors.Is(err, sentinel) {
			t.Fatalf("retries=%d: want sentinel, got %v", retries, err)
		}
		if stats.OutstandingBufs != 0 {
			t.Fatalf("retries=%d: emit error leaked %d stream buffers", retries, stats.OutstandingBufs)
		}
	}
}

// TestStreamCleanFinishReturnsBuffers: the happy path must balance too,
// sub-batch tile tails included, at every retry budget.
func TestStreamCleanFinishReturnsBuffers(t *testing.T) {
	a := gen.PrefAttach(11, 2, 83)
	b := gen.ER(9, 0.5, 84)
	for _, tc := range []struct {
		name string
		r    int
		twoD bool
	}{
		{"1d-4", 4, false}, {"2d-7", 7, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for _, retries := range streamBudgets {
				_, stats := streamArcs(t, mustChain(a, b), tc.r, tc.twoD, 64, 0, -1, Recovery{MaxRetries: retries})
				if stats.OutstandingBufs != 0 {
					t.Fatalf("retries=%d: clean finish left %d stream buffers outstanding", retries, stats.OutstandingBufs)
				}
			}
		})
	}
}
