package validate

import (
	"go/ast"
	"go/parser"
	"go/token"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"kronlab/internal/core"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
)

// drawChain reads a chain of k ∈ 1..4 factors from a fuzz input: a byte
// for k, then per factor a byte for n (1–5 vertices, 1–3 at k = 4), a
// byte for the edge count m (below 8), a byte whose value mod 3 gives no
// loops, full loops, or the loops its next byte's bits mark, and m bytes
// whose nibbles are the endpoints (an equal pair is dropped). Missing
// bytes read 0, so short inputs draw isolated vertices and edgeless
// factors.
func drawChain(t *testing.T, data []byte) []*graph.Graph {
	t.Helper()
	next := func() int64 {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int64(b)
	}
	gs := make([]*graph.Graph, 1+next()%4)
	for d := range gs {
		n := 1 + next()%5
		if len(gs) == 4 {
			n = 1 + n%3
		}
		m, loops := next()%8, next()
		var edges []graph.Edge
		for v := int64(0); v < n; v++ {
			if loops%3 == 1 || loops%3 == 2 && loops>>2&(1<<v) != 0 {
				edges = append(edges, graph.Edge{U: v, V: v})
			}
		}
		for ; m > 0; m-- {
			b := next()
			if u, v := b&15%n, b>>4%n; u != v {
				edges = append(edges, graph.Edge{U: u, V: v})
			}
		}
		g, err := graph.NewUndirected(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		gs[d] = g
	}
	return gs
}

// FuzzLaws holds every row of groundtruth.Laws, on a drawn chain and for
// both products asked of it — ⊗A_d and ⊗(A_d+I) — to its measurement on
// the materialized product, at every vertex, arc, pair and histogram
// value, wherever Bind accepts the row; and where the row's hypothesis
// fails, its Eval must refuse the factors it would have read. Bind alone
// refuses ⊗(A_d+I) of looped A_d to a row that takes any factors.
func FuzzLaws(f *testing.F) {
	f.Add([]byte{1, 2, 3, 0, 0x10, 0x20, 0x21, 2, 2, 0, 0x10, 0x21})                         // K₃ ⊗ P₃
	f.Add([]byte{1, 1, 1, 0, 0x10, 1, 1, 0, 0x10})                                           // P₂ ⊗ P₂: two disjoint edges
	f.Add([]byte{1, 2, 2, 1, 0x10, 0x21, 2, 3, 1, 0x10, 0x20, 0x21})                         // (P₃+I) ⊗ (K₃+I)
	f.Add([]byte{1, 3, 6, 1, 0x10, 0x20, 0x21, 0x30, 0x31, 0x32, 2, 2, 8, 0x10, 0x21})       // (K₄+I) ⊗ P₃ with one loop
	f.Add([]byte{2, 3, 2, 0, 0x10, 0x32, 2, 2, 0, 0x10, 0x21, 2, 3, 0, 0x10, 0x20, 0x21})    // 2K₂ ⊗ P₃ ⊗ K₃
	f.Add([]byte{3, 1, 3, 0, 0x10, 0x21, 0x20, 0, 1, 1, 0x10, 1, 1, 0, 0x10, 0, 1, 0, 0x10}) // K₃ ⊗ (K₂+I) ⊗ (K₂ + K₁) ⊗ K₂
	f.Add([]byte{0, 4, 5, 0, 0x10, 0x21, 0x32, 0x43, 0x40})                                  // C₅
	f.Fuzz(func(t *testing.T, data []byte) {
		gs := drawChain(t, data)
		src := groundtruth.Summaries(gs)
		dims := make([]int64, len(gs))
		for d, g := range gs {
			dims[d] = g.NumVertices()
		}
		ci := core.MustChainIndex(dims...)
		zero := make([]int64, len(gs))
		for _, plusI := range []bool{false, true} {
			ch, err := core.NewChain(gs...)
			if err != nil {
				t.Fatal(err)
			}
			if plusI {
				ch = ch.WithFullSelfLoops()
			}
			c, err := core.Product(ch.Factors()...)
			if err != nil {
				t.Fatal(err)
			}
			m := newProduct(c)
			for _, l := range groundtruth.Laws {
				fs, err := l.Bind(gs, plusI, src)
				switch {
				case err == nil:
					r := &run{samples: math.MaxInt64}
					r.law(l, fs, m, ci)
					for _, ch := range r.rep.Failures() {
						t.Errorf("%v, +I %v: %s (%s): want %s, got %s", gs, plusI, ch.Name, ch.Law, ch.Expected, ch.Actual)
					}
				case l.PlusI && !plusI: // the row describes the other product
				case l.Takes == 0: // it takes any factors, but ⊗(A_d+I) is not asked of looped A_d
				default:
					read := make([]*groundtruth.Factor, len(gs))
					for d := range gs {
						read[d], _ = src(d, plusI, l.Tiers)
					}
					if v, err := l.Eval(read, zero, zero); err == nil {
						t.Errorf("%v, +I %v: %s (%s) answered %v outside its hypothesis (%v)", gs, plusI, l.Name, l.Formula, v, err)
					}
				}
			}
		}
	})
}

// TestEveryLawHasARowAndAMeasurement reads internal/groundtruth's source:
// every exported Chain* law — but ChainEccentricities, which materializes
// ε_C — must go through exactly one row of the Laws table, and each row
// through at most one of them; and every row must have a measurement here
// and state a formula FORMULAS.md holds.
func TestEveryLawHasARowAndAMeasurement(t *testing.T) {
	files, err := filepath.Glob("../groundtruth/*.go")
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{} // each row's variable → the Chain* laws that name it
	var laws []*ast.FuncDecl
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(token.NewFileSet(), name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && strings.HasPrefix(d.Name.Name, "Chain") && d.Name.Name != "ChainEccentricities" {
					laws = append(laws, d)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					if v, ok := spec.(*ast.ValueSpec); ok && v.Names[0].Name == "Laws" {
						for _, e := range v.Values[0].(*ast.CompositeLit).Elts {
							rows[e.(*ast.Ident).Name] = nil
						}
					}
				}
			}
		}
	}
	for _, fn := range laws {
		var named []string
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if _, row := rows[id.Name]; row && !slices.Contains(named, id.Name) {
					named = append(named, id.Name)
					rows[id.Name] = append(rows[id.Name], fn.Name.Name)
				}
			}
			return true
		})
		if len(named) != 1 {
			t.Errorf("%s goes through rows %v, want one", fn.Name.Name, named)
		}
	}
	for row, fns := range rows {
		if len(fns) > 1 {
			t.Errorf("row %s is the row of %v, want at most one Chain* law", row, fns)
		}
	}
	if len(rows) != len(groundtruth.Laws) {
		t.Errorf("read %d rows, Laws has %d", len(rows), len(groundtruth.Laws))
	}
	formulas, err := os.ReadFile("../../FORMULAS.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range groundtruth.Laws {
		if _, ok := measurements[l.Name]; !ok {
			t.Errorf("row %s has no measurement", l.Name)
		}
		if !strings.Contains(string(formulas), l.Formula) {
			t.Errorf("row %s states %q, which FORMULAS.md does not", l.Name, l.Formula)
		}
	}
}
