package store

import (
	"fmt"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// writeStore writes the arcs arcs yields to a store of shards shards on n
// vertices under dir, each to the shard f names (nil: BySource) — one
// ShardWriter a shard, fed in blocks, then WriteManifest, as a distributed
// run writes one — and opens it.
func writeStore(tb testing.TB, dir string, n int64, shards int, f ShardFunc, arcs func(yield func(u, v int64) bool)) *Store {
	tb.Helper()
	if f == nil {
		f = BySource
	}
	ws, blocks, counts := make([]*ShardWriter, shards), make([][]graph.Edge, shards), make([]int64, shards)
	for i := range ws {
		w, err := NewShardWriter(dir, i)
		if err != nil {
			tb.Fatal(err)
		}
		ws[i] = w
	}
	flush := func(i int) {
		if err := ws[i].AppendBlock(blocks[i]); err != nil {
			tb.Fatal(err)
		}
		blocks[i] = blocks[i][:0]
	}
	arcs(func(u, v int64) bool {
		s := f(u, v, shards)
		if blocks[s] = append(blocks[s], graph.Edge{U: u, V: v}); len(blocks[s]) == 1024 {
			flush(s)
		}
		return true
	})
	for i, w := range ws {
		flush(i)
		counts[i] = w.Count()
		if err := w.Close(); err != nil {
			tb.Fatal(err)
		}
	}
	if err := WriteManifest(dir, n, counts); err != nil {
		tb.Fatal(err)
	}
	st, err := Open(dir)
	if err != nil {
		tb.Fatal(err)
	}
	return st
}

func writeAll(t *testing.T, dir string, g *graph.Graph, shards int, f ShardFunc) *Store {
	t.Helper()
	return writeStore(t, dir, g.NumVertices(), shards, f, g.Arcs)
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

// TestWriterValidation: NewShardWriter refuses a directory it cannot
// create, and a ShardWriter counts the records AppendBlock wrote.
func TestWriterValidation(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardWriter(filepath.Join(file, "store"), 0); err == nil {
		t.Error("a store under a regular file should error")
	}
	w, err := NewShardWriter(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, block := range [][]graph.Edge{{{U: 0, V: 1}, {U: 1, V: 0}}, nil, {{U: 2, V: 2}}} {
		if err := w.AppendBlock(block); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if w.Count() != 3 {
		t.Errorf("Count = %d after 3 records", w.Count())
	}
	if info, err := os.Stat(filepath.Join(dir, shardName(0))); err != nil || info.Size() != 3*RecordSize {
		t.Errorf("shard 0: %v, %v; want %d bytes", info, err, 3*RecordSize)
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
	st := writeStore(t, t.TempDir(), a.NumVertices()*b.NumVertices(), 4, nil, func(yield func(u, v int64) bool) {
		core.StreamProduct(a, b, yield)
	})
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

// FuzzSourceMapAdditive pins SourceMap's contract at any nL ≥ 1, s ≥ 1:
// for every h ≥ 0 and x < nL, m(h·nL + x) = m(h·nL) + m(x) mod s — what
// dist's owner-side walk looks every sweep's pick up by, whatever the
// innermost factor's size — every answer is in [0, s), and where nL is a
// power of two m is BySource itself.
func FuzzSourceMapAdditive(f *testing.F) {
	f.Add(int64(1), int64(0), int64(0), 1, int64(5))
	f.Add(int64(10), int64(123), int64(9), 4, int64(7))
	f.Add(int64(6301), int64(6300), int64(17), 256, int64(1)<<40)
	f.Add(int64(1)<<20, int64(1)<<40, int64(12345), 3, int64(-1))
	f.Add(int64(1)<<62+1, int64(1), int64(1)<<62, 16, int64(1)<<62)
	f.Fuzz(func(t *testing.T, nL, h, x int64, s int, u int64) {
		nL = max(nL&math.MaxInt64, 1)
		h, x, u = h&math.MaxInt64, (x&math.MaxInt64)%nL, u&math.MaxInt64
		if s < 1 {
			s = 1 - s%(1<<40) // any s ≥ 1, without wrapping at the negative end
		}
		h = min(h, (math.MaxInt64-x)/nL) // h·nL + x is an int64
		m := SourceMap(nL)
		base, low, sum := m(h*nL, 0, s), m(x, 0, s), m(h*nL+x, 0, s)
		for _, b := range []int{base, low, sum} {
			if b < 0 || b >= s {
				t.Fatalf("nL=%d s=%d: an answer %d out of [0, %d)", nL, s, b, s)
			}
		}
		if want := (uint64(base) + uint64(low)) % uint64(s); uint64(sum) != want {
			t.Fatalf("nL=%d s=%d h=%d x=%d: m(h·nL + x) = %d, m(h·nL) + m(x) mod s = %d", nL, s, h, x, sum, want)
		}
		if nL&(nL-1) == 0 {
			if got, want := m(u, 0, s), BySource(u, 0, s); got != want {
				t.Fatalf("nL=%d s=%d: m(%d) = %d, BySource %d", nL, s, u, got, want)
			}
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
		moved := 0
		g.Arcs(func(u, v int64) bool {
			if old.place(u, shards) != BySource(u, v, shards) {
				moved++
			}
			return true
		})
		if moved == 0 {
			t.Fatalf("%s: the old map places every arc where BySource does: the test distinguishes nothing", old.name)
		}
		dir := t.TempDir()
		st := writeStore(t, dir, g.NumVertices(), shards, func(u, _ int64, s int) int { return old.place(u, s) }, g.Arcs)
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
		check("Open", st, nil)
		if err := os.Remove(filepath.Join(dir, manifestName)); err != nil {
			t.Fatal(err)
		}
		st, err := Recover(dir, g.NumVertices())
		check("Recover", st, err)
	}
}
