package graph

import (
	"bytes"
	"io"
	"math/rand"
	"testing"
)

func benchEdges(n, m int64, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, m)
	for i := range edges {
		edges[i] = Edge{rng.Int63n(n), rng.Int63n(n)}
	}
	return edges
}

// rmatEdges samples 16·2^scale edges with the Graph500 R-MAT quadrant
// probabilities (0.57, 0.19, 0.19, 0.05): the hub-heavy shape of the
// factors gen.RMAT builds, which this package cannot import.
func rmatEdges(scale int, seed int64) []Edge {
	rng := rand.New(rand.NewSource(seed))
	edges := make([]Edge, 16<<uint(scale))
	for i := range edges {
		var u, v int64
		for bit := 0; bit < scale; bit++ {
			switch r := rng.Float64(); {
			case r < 0.57:
			case r < 0.76:
				v |= 1 << uint(bit)
			case r < 0.95:
				u |= 1 << uint(bit)
			default:
				u |= 1 << uint(bit)
				v |= 1 << uint(bit)
			}
		}
		edges[i] = Edge{u, v}
	}
	return edges
}

// CSR construction from raw edges dominates ingest cost: two counting
// passes and a dedup pass, all linear. The rmat row has the factors'
// shape — a few hub rows hold a large share of the arcs, and many
// duplicates — where the uniform row's rows are short and even.
func BenchmarkNewUndirected(b *testing.B) {
	for _, c := range []struct {
		name  string
		n     int64
		edges []Edge
	}{
		{"uniform", 10_000, benchEdges(10_000, 50_000, 1)},
		{"rmat", 1 << 14, rmatEdges(14, 1)},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := NewUndirected(c.n, c.edges); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// productArcs lists the arcs of a ⊗ b in the order core.StreamProduct
// yields them — a's arcs in CSR order, each against b's — which this
// package cannot import. Every row of the product comes out ascending,
// but consecutive arcs land in different rows.
func productArcs(a, b *Graph) []Edge {
	nB := b.NumVertices()
	out := make([]Edge, 0, a.NumArcs()*b.NumArcs())
	for _, x := range a.ArcSlice() {
		for _, y := range b.ArcSlice() {
			out = append(out, Edge{x.U*nB + y.U, x.V*nB + y.V})
		}
	}
	return out
}

// BenchmarkNew times directed construction, against the sort-based
// reference, on Product's arcs in the order core.Product passes them,
// the same arcs in row order, and a directed R-MAT sample, whose rows
// do not ascend.
func BenchmarkNew(b *testing.B) {
	fa, err := NewUndirected(1<<7, rmatEdges(7, 3))
	if err != nil {
		b.Fatal(err)
	}
	fb, err := NewUndirected(1<<5, rmatEdges(5, 4))
	if err != nil {
		b.Fatal(err)
	}
	nP := fa.NumVertices() * fb.NumVertices()
	product := productArcs(fa, fb)
	rows, err := New(nP, product)
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		n    int64
		arcs []Edge
	}{
		{"product", nP, product},
		{"rowOrder", nP, rows.ArcList()},
		{"rmat", 1 << 14, rmatEdges(14, 1)},
	} {
		for _, f := range []struct {
			name  string
			build func(int64, []Edge) (*Graph, error)
		}{{"New", New}, {"bySort", newBySort}} {
			b.Run(c.name+"/"+f.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := f.build(c.n, c.arcs); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBinaryIO encodes and decodes an R-MAT(11)-shaped graph in the
// WriteBinary format, the path a binary factor upload takes.
func BenchmarkBinaryIO(b *testing.B) {
	g, err := NewUndirected(1<<11, rmatEdges(11, 2))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteBinary(&buf); err != nil {
		b.Fatal(err)
	}
	b.Run("write", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := g.WriteBinary(io.Discard); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("read", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkHasArc(b *testing.B) {
	g, err := NewUndirected(10_000, benchEdges(10_000, 50_000, 2))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.HasArc(int64(i)%10_000, int64(i*7)%10_000)
	}
}

func BenchmarkArcsIteration(b *testing.B) {
	g, err := NewUndirected(10_000, benchEdges(10_000, 50_000, 3))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var count int64
		g.Arcs(func(u, v int64) bool {
			count++
			return true
		})
		if count != g.NumArcs() {
			b.Fatal("miscount")
		}
	}
}

func BenchmarkWithFullSelfLoops(b *testing.B) {
	g, err := NewUndirected(10_000, benchEdges(10_000, 50_000, 4))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.WithFullSelfLoops()
	}
}

func BenchmarkConnectedComponents(b *testing.B) {
	g, err := NewUndirected(10_000, benchEdges(10_000, 20_000, 5))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.ConnectedComponents()
	}
}
