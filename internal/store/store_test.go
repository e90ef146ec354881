package store

import (
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

func writeAll(t *testing.T, dir string, g *graph.Graph, shards int, f ShardFunc) *Store {
	t.Helper()
	w, err := NewWriter(dir, g.NumVertices(), shards, f)
	if err != nil {
		t.Fatal(err)
	}
	g.Arcs(func(u, v int64) bool {
		if err := w.Append(u, v); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestRoundTrip(t *testing.T) {
	g := gen.MustRMAT(gen.Graph500Params(5, 1))
	for _, shards := range []int{1, 3, 8} {
		dir := t.TempDir()
		st := writeAll(t, dir, g, shards, nil)
		if st.TotalEdges() != g.NumArcs() {
			t.Fatalf("shards=%d: stored %d arcs, want %d", shards, st.TotalEdges(), g.NumArcs())
		}
		if st.Shards() != shards || st.N != g.NumVertices() {
			t.Fatalf("shards=%d: manifest fields wrong: %+v", shards, st)
		}
		loaded, err := st.LoadGraph()
		if err != nil {
			t.Fatal(err)
		}
		if !loaded.Equal(g) {
			t.Fatalf("shards=%d: round trip lost structure", shards)
		}
	}
}

func TestShardRouting(t *testing.T) {
	g := gen.ER(30, 0.4, 2)
	dir := t.TempDir()
	st := writeAll(t, dir, g, 4, BySource)
	// Every edge in shard i must be routed there by BySource.
	for i := 0; i < 4; i++ {
		if err := st.IterShard(i, func(u, v int64) bool {
			if BySource(u, v, 4) != i {
				t.Fatalf("edge (%d,%d) misrouted to shard %d", u, v, i)
			}
			return true
		}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestIterEarlyStop(t *testing.T) {
	g := gen.ER(20, 0.5, 3)
	st := writeAll(t, t.TempDir(), g, 2, nil)
	var seen int
	if err := st.Iter(func(u, v int64) bool {
		seen++
		return seen < 5
	}); err != nil {
		t.Fatal(err)
	}
	if seen != 5 {
		t.Errorf("early stop saw %d", seen)
	}
}

func TestWriterValidation(t *testing.T) {
	dir := t.TempDir()
	if _, err := NewWriter(dir, 10, 0, nil); err == nil {
		t.Error("0 shards should error")
	}
	if _, err := NewWriter(dir, -1, 2, nil); err == nil {
		t.Error("negative n should error")
	}
	w, err := NewWriter(dir, 5, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Append(5, 0); err == nil {
		t.Error("out-of-range edge should error")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(0, 1); err == nil {
		t.Error("Append after Close should error")
	}
	if err := w.Close(); err != nil {
		t.Error("double Close should be a no-op")
	}
}

func TestOpenRejectsCorruption(t *testing.T) {
	g := gen.ER(15, 0.4, 5)
	dir := t.TempDir()
	writeAll(t, dir, g, 2, nil)

	// Truncated shard.
	shard0 := filepath.Join(dir, "shard-0000")
	data, err := os.ReadFile(shard0)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(shard0, data[:len(data)-8], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("truncated shard should fail Open")
	}
	if err := os.WriteFile(shard0, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// Corrupt manifest variants.
	man := filepath.Join(dir, manifestName)
	for _, bad := range []string{
		"wrongmagic 1\nn 15\nshards 2\ncount 1 1\n",
		"kronstore 1\nn -3\nshards 2\ncount 1 1\n",
		"kronstore 1\nn 15\nshards 2\ncount 1\n",
		"kronstore 1\nn 15\n",
	} {
		if err := os.WriteFile(man, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Errorf("manifest %q should fail Open", strings.Split(bad, "\n")[0])
		}
	}

	// Missing manifest entirely.
	if err := os.Remove(man); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("missing manifest should fail Open")
	}
}

func TestOpenRejectsMissingShardAndBadCounts(t *testing.T) {
	g := gen.ER(20, 0.4, 11)
	dir := t.TempDir()
	st := writeAll(t, dir, g, 3, nil)

	// Count line with a non-numeric entry.
	man := filepath.Join(dir, manifestName)
	bad := "kronstore 1\nn 20\nshards 3\ncount 1 x 1\n"
	if err := os.WriteFile(man, []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("non-numeric count should fail Open")
	}

	// Count line disagreeing with a shard's actual size.
	wrong := fmt.Sprintf("kronstore 1\nn 20\nshards 3\ncount %d %d %d\n",
		st.Counts[0]+1, st.Counts[1], st.Counts[2])
	if err := os.WriteFile(man, []byte(wrong), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("count/size mismatch should fail Open")
	}

	// Shard file deleted out from under a valid manifest.
	if err := WriteManifest(dir, st.N, st.Counts); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(dir, shardName(1))); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Error("missing shard file should fail Open")
	}
}

// TestRecoverPartialShards simulates a writer that died mid-stream: no
// manifest, one shard ending in a partial record. Recover must truncate
// the torn record, keep every complete one, and yield an openable store.
func TestRecoverPartialShards(t *testing.T) {
	g := gen.ER(25, 0.4, 13)
	dir := t.TempDir()
	st := writeAll(t, dir, g, 3, nil)
	wantTotal := st.TotalEdges()

	if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
		t.Fatal(err)
	}
	shard1 := filepath.Join(dir, shardName(1))
	data, err := os.ReadFile(shard1)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < RecordSize {
		t.Fatalf("test graph too small: shard 1 has %d bytes", len(data))
	}
	// Leave a torn record: strip the last 7 bytes of the final record.
	if err := os.WriteFile(shard1, data[:len(data)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := Recover(dir, g.NumVertices())
	if err != nil {
		t.Fatal(err)
	}
	if got := rec.TotalEdges(); got != wantTotal-1 {
		t.Errorf("recovered %d edges, want %d (one torn record dropped)", got, wantTotal-1)
	}
	if rec.Shards() != 3 || rec.N != g.NumVertices() {
		t.Errorf("recovered store fields wrong: %+v", rec)
	}
	// Every surviving record must be intact and routable.
	if err := rec.Iter(func(u, v int64) bool {
		if u < 0 || u >= rec.N || v < 0 || v >= rec.N {
			t.Fatalf("recovered edge (%d,%d) out of range", u, v)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	// And the recovered store must survive a normal Open.
	if _, err := Open(dir); err != nil {
		t.Errorf("recovered store fails Open: %v", err)
	}
}

func TestRecoverRefusesGaps(t *testing.T) {
	dir := t.TempDir()
	if _, err := Recover(dir, 5); err == nil {
		t.Error("recover of empty dir should error")
	}
	// shard-0000 absent but shard-0001 present: ambiguous, must refuse.
	if err := os.WriteFile(filepath.Join(dir, shardName(1)), make([]byte, RecordSize), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Recover(dir, 5); err == nil {
		t.Error("recover across a shard gap should error")
	}
}

func TestIterShardRange(t *testing.T) {
	st := writeAll(t, t.TempDir(), gen.ER(10, 0.5, 7), 2, nil)
	if err := st.IterShard(5, func(u, v int64) bool { return true }); err == nil {
		t.Error("out-of-range shard should error")
	}
}

// The intended use: stream a product straight to disk during generation,
// reload, validate against ground truth.
func TestStoreProductPipeline(t *testing.T) {
	a := gen.PrefAttach(10, 2, 8)
	b := gen.ER(8, 0.5, 9)
	dir := t.TempDir()
	w, err := NewWriter(dir, a.NumVertices()*b.NumVertices(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	core.StreamProduct(a, b, func(u, v int64) bool {
		if err := w.Append(u, v); err != nil {
			t.Fatal(err)
		}
		return true
	})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := st.LoadGraph()
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Equal(want) {
		t.Fatal("streamed store differs from in-memory product")
	}
}

// fibonacci is BySource as it was before it added over bits: the
// Fibonacci hash of the whole source, reduced by the high word.
func fibonacci(u int64, s int) int {
	hi, _ := bits.Mul64(uint64(u)*0x9e3779b97f4a7c15, uint64(s))
	return int(hi)
}

// FuzzBySourceAdditive pins the map's contract for disjoint sources x and
// y (y is masked off x's bits) at any s ≥ 1: the answer is in [0, s), it
// adds over disjoint bits, BySource(x|y) = BySource(x) + BySource(y) mod s
// — what dist's owner-side walk picks rows by — and a single-bit source
// places where the retired Fibonacci map placed it.
func FuzzBySourceAdditive(f *testing.F) {
	f.Add(int64(0), int64(0), 1, uint8(0))
	f.Add(int64(0x3ff00), int64(0xff), 16, uint8(9))
	f.Add(int64(-1), int64(1)<<62, 1<<31-1, uint8(63))
	f.Add(int64(1)<<40|12345, int64(0x5a5a5a5a), 3, uint8(40))
	f.Fuzz(func(t *testing.T, x, y int64, s int, bit uint8) {
		if s < 1 {
			s = 1 - s%(1<<40) // any s ≥ 1, without wrapping at the negative end
		}
		y &^= x
		bx, by, bxy := BySource(x, 0, s), BySource(y, 0, s), BySource(x|y, 0, s)
		for _, b := range []int{bx, by, bxy} {
			if b < 0 || b >= s {
				t.Fatalf("s=%d: an answer %d out of [0, %d)", s, b, s)
			}
		}
		if want := (uint64(bx) + uint64(by)) % uint64(s); uint64(bxy) != want {
			t.Fatalf("s=%d x=%#x y=%#x: BySource(x|y) = %d, BySource(x) + BySource(y) mod s = %d", s, x, y, bxy, want)
		}
		one := int64(1) << (bit % 64)
		if got, want := BySource(one, 0, s), fibonacci(one, s); got != want {
			t.Fatalf("s=%d: BySource(1<<%d) = %d, the Fibonacci map's %d", s, bit%64, got, want)
		}
	})
}

// TestOldPlacementStoresKeepReading pins what let BySource change without a
// manifest field: no reader consults the shard map. Stores whose shards
// were placed by each map as it was before — the product's low bits (the
// remainder of the hash), then the Fibonacci hash of the whole source —
// open, iterate, load and recover to the same arcs as one placed by
// BySource.
func TestOldPlacementStoresKeepReading(t *testing.T) {
	g := gen.MustRMAT(gen.Graph500Params(5, 14))
	const shards = 4
	for _, old := range []struct {
		name  string
		place func(u int64, s int) int
	}{
		{"remainder", func(u int64, s int) int { return int((uint64(u) * 0x9e3779b97f4a7c15) % uint64(s)) }},
		{"fibonacci", fibonacci},
	} {
		dir := t.TempDir()
		var counts [shards]int64
		var ws [shards]*ShardWriter
		for i := range ws {
			w, err := NewShardWriter(dir, i)
			if err != nil {
				t.Fatal(err)
			}
			ws[i] = w
		}
		moved := 0
		g.Arcs(func(u, v int64) bool {
			s := old.place(u, shards)
			if s != BySource(u, v, shards) {
				moved++
			}
			if err := ws[s].Append(u, v); err != nil {
				t.Fatal(err)
			}
			counts[s]++
			return true
		})
		if moved == 0 {
			t.Fatalf("%s: the old map places every arc where BySource does: the test distinguishes nothing", old.name)
		}
		for _, w := range ws {
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
		}
		if err := WriteManifest(dir, g.NumVertices(), counts[:]); err != nil {
			t.Fatal(err)
		}
		check := func(how string, st *Store, err error) {
			t.Helper()
			how = old.name + ": " + how
			if err != nil {
				t.Fatalf("%s: %v", how, err)
			}
			var iterated int64
			if err := st.Iter(func(u, v int64) bool {
				if !g.HasArc(u, v) {
					t.Fatalf("%s: Iter yields (%d,%d), not an arc of the graph", how, u, v)
				}
				iterated++
				return true
			}); err != nil {
				t.Fatalf("%s: Iter: %v", how, err)
			}
			loaded, err := st.LoadGraph()
			if err != nil {
				t.Fatalf("%s: LoadGraph: %v", how, err)
			}
			if iterated != g.NumArcs() || !loaded.Equal(g) {
				t.Fatalf("%s: %d arcs iterated, want %d; loaded graph equal: %v", how, iterated, g.NumArcs(), loaded.Equal(g))
			}
		}
		st, err := Open(dir)
		check("Open", st, err)
		if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
			t.Fatal(err)
		}
		st, err = Recover(dir, g.NumVertices())
		check("Recover", st, err)
	}
}
