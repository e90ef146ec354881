package serve

import (
	"fmt"
	"math"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
)

// TestGroundTruthDisconnectedFactor: on (2K₂+I)⊗(P₃+I) every product
// vertex is Unreachable, so the ε histogram counts all 12 under −1 — the
// same answer p=… and the diameter give (null) — in both spellings.
func TestGroundTruthDisconnectedFactor(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	twoK2, err := graph.NewUndirected(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	ha, hb := registerText(t, ts, twoK2, ""), registerText(t, ts, gen.Path(3), "")
	for _, prefix := range []string{ha + "/" + hb, ha + "," + hb} {
		url := ts.URL + "/gt/" + prefix + "/"
		hist := getJSON(t, url+"eccentricity?loops=1&hist=1", http.StatusOK)
		if want := map[string]any{"-1": float64(12)}; !reflect.DeepEqual(hist["histogram"], want) {
			t.Errorf("%s: histogram %v, want %v", prefix, hist["histogram"], want)
		}
		for q, key := range map[string]string{"eccentricity?loops=1&p=0": "eccentricity", "diameter?loops=1": "diameter"} {
			if v, ok := getJSON(t, url+q, http.StatusOK)[key]; !ok || v != nil {
				t.Errorf("%s %s: %s = %v, want null", prefix, q, key, v)
			}
		}
	}
}

// TestGroundTruthSummaryComponents pins /gt/…/summary's whole answer for
// a bipartite pair (C₄ ⊗ P₃: two components, one under loops=1), a
// non-bipartite pair (K₃ ⊗ P₃: one) and a disconnected pair (2K₂ ⊗ P₃: no
// Weichsel count), in both spellings — with no factor summary built.
func TestGroundTruthSummaryComponents(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	twoK2, err := graph.NewUndirected(4, []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}})
	if err != nil {
		t.Fatal(err)
	}
	hc4, hk3, h2k2, hp3 := registerText(t, ts, gen.Ring(4), ""), registerText(t, ts, gen.Ring(3), ""),
		registerText(t, ts, twoK2, ""), registerText(t, ts, gen.Path(3), "")
	for _, c := range []struct {
		a, query string
		want     map[string]any
	}{
		{hc4, "summary", map[string]any{"n": 12.0, "arcs": 32.0, "edges": 16.0, "components": 2.0, "loops": false}},
		{hc4, "summary?loops=1", map[string]any{"n": 12.0, "arcs": 84.0, "edges": 48.0, "components": 1.0, "loops": true}},
		{hk3, "summary", map[string]any{"n": 9.0, "arcs": 24.0, "edges": 12.0, "components": 1.0, "loops": false}},
		{h2k2, "summary", map[string]any{"n": 12.0, "arcs": 16.0, "edges": 8.0, "loops": false}},
	} {
		for _, url := range []string{ts.URL + "/gt/" + c.a + "/" + hp3 + "/" + c.query, ts.URL + "/gt/" + c.a + "," + hp3 + "/" + c.query} {
			got := getJSON(t, url, http.StatusOK)
			for _, key := range []string{"a", "b", "chain", "k"} {
				delete(got, key)
			}
			if !reflect.DeepEqual(got, c.want) {
				t.Errorf("%s: %v, want %v", url, got, c.want)
			}
		}
	}
	if builds := s.Metrics().SummaryBuilds.Load(); builds != 0 {
		t.Errorf("summary requests built %d factor summaries, want 0", builds)
	}
}

// TestGroundTruthOneHandlerTwoSpellings: /gt/{a}/{b}/{prop} and
// /gt/{a},{b}/{prop} are one query. Every property — including the laws
// the paper gives for two factors only — must answer the same values in
// both spellings, each under its own identification keys; at k = 3
// summary's component count and community answer the materialized
// product's values.
func TestGroundTruthOneHandlerTwoSpellings(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := gen.PrefAttach(6, 2, 41)
	b := gen.PrefAttach(5, 2, 42)
	ha, hb := registerText(t, ts, a, ""), registerText(t, ts, b, "")
	loopy := gen.Ring(5).WithFullSelfLoops()
	hl := registerText(t, ts, loopy, "")

	// A non-loop product edge (p,q): first arc of A crossed with first arc of B.
	ea, eb, nB := a.ArcSlice()[0], b.ArcSlice()[0], b.NumVertices()
	pq := fmt.Sprintf("p=%d&q=%d", ea.U*nB+eb.U, ea.V*nB+eb.V)

	// The keys that say which product was asked, not what the answer is.
	ident := []string{"a", "b", "chain", "k", "i", "coords"}
	cases := []struct {
		fa, fb, query string
		status        int
	}{
		{ha, hb, "summary", 200},
		{ha, hb, "summary?loops=1", 200},
		{ha, hb, "degree?p=7", 200},
		{ha, hb, "degree?p=7&loops=1", 200},
		{ha, hb, "triangles", 200},
		{ha, hb, "triangles?p=7", 200},
		{ha, hb, "triangles?" + pq, 200},
		{ha, hb, "triangles?loops=1", 200},
		{ha, hb, "triangles?loops=1&p=7", 200},
		{ha, hb, "triangles?loops=1&" + pq, 200},
		{ha, hb, "clustering?p=7", 200},
		{ha, hb, "clustering?" + pq, 200},
		{ha, hb, "diameter?loops=1", 200},
		{ha, hb, "eccentricity?loops=1&p=7", 200},
		{ha, hb, "eccentricity?loops=1&hist=1", 200},
		{ha, hb, "closeness?loops=1&p=7", 200},
		{ha, hb, "hops?loops=1&p=3&q=20", 200},
		{ha, hb, "community?loops=1&sa=0,1&sb=1,2", 200},
		{hl, hl, "diameter", 200},
		{hl, hl, "diameter?p=3", 200}, // a global law ignores a vertex
		{ha, hb, "triangles?hist=1", 200},
		{ha, hb, "triangles?loops=1&hist=1", 200},
		{hl, hl, "hops?p=0&q=7", 200},
		{hl, hl, "closeness?p=3", 200},
		{ha, hb, "degree?hist=1", 200},
		{hl, hl, "diameter?loops=1", 200},   // the +I leaves full loops full
		{ha, hb, "diameter", 400},           // loop-free factors, no loops=1
		{hl, hl, "degree?p=3&loops=1", 400}, // ⊗(A_d+I) of looped A_d
		{hl, hl, "degree?hist=1&loops=1", 400},
		{hl, hl, "summary?loops=1", 400},
		{hl, hl, "triangles?loops=1", 400}, // the construction adds the loops
		{ha, hb, "clustering?p=7&loops=1", 400},
		{ha, hb, "community?sa=0&sb=0", 400}, // Thm. 6 needs loops=1
		{ha, hb, "triangles?p=0&q=0", 400},   // not an edge
		{ha, hb, "degree?p=30", 400},         // out of range
		{ha, hb, "frobnicate", 404},
	}
	for _, tc := range cases {
		pair := getJSON(t, fmt.Sprintf("%s/gt/%s/%s/%s", ts.URL, tc.fa, tc.fb, tc.query), tc.status)
		chain := getJSON(t, fmt.Sprintf("%s/gt/%s,%s/%s", ts.URL, tc.fa, tc.fb, tc.query), tc.status)
		if tc.status == http.StatusOK {
			if pair["a"] != tc.fa || pair["b"] != tc.fb || pair["chain"] != nil {
				t.Errorf("%s: pair spelling identifies itself as %v", tc.query, pair)
			}
			if chain["k"] != float64(2) || chain["a"] != nil || chain["b"] != nil ||
				!reflect.DeepEqual(chain["chain"], []any{tc.fa, tc.fb}) {
				t.Errorf("%s: chain spelling identifies itself as %v", tc.query, chain)
			}
			if strings.HasPrefix(tc.query, "degree?p") &&
				!reflect.DeepEqual(chain["coords"], []any{pair["i"], pair["k"]}) {
				t.Errorf("%s: coords %v vs i=%v k=%v", tc.query, chain["coords"], pair["i"], pair["k"])
			}
		}
		for _, key := range ident {
			delete(pair, key)
			delete(chain, key)
		}
		// What is left is "loops" plus the values (or the error message).
		if (tc.status == http.StatusOK && len(pair) < 2) || !reflect.DeepEqual(pair, chain) {
			t.Errorf("%s: spellings disagree:\n  {a}/{b}: %v\n  {a},{b}: %v", tc.query, pair, chain)
		}
	}
	if sum := getJSON(t, fmt.Sprintf("%s/gt/%s,%s/summary", ts.URL, ha, hb), 200); sum["components"] == nil {
		t.Errorf("k=2 chain summary lacks the Weichsel component count: %v", sum)
	}

	// k = 3: summary's Weichsel count and community's Thm. 6 fold answer,
	// and equal the materialized ⊗A_d's components and the community
	// S_1⊗S_2⊗S_3 counted on the materialized ⊗(A_d+I).
	k3 := fmt.Sprintf("%s/gt/%s,%s,%s/", ts.URL, ha, hb, ha)
	ch, err := core.NewChain(a, b, a)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.Product(ch.Factors()...)
	if err != nil {
		t.Fatal(err)
	}
	looped, err := core.Product(ch.WithFullSelfLoops().Factors()...)
	if err != nil {
		t.Fatal(err)
	}
	_, comps := plain.ConnectedComponents()
	if sum := getJSON(t, k3+"summary", 200); sum["components"] != float64(comps) || sum["k"] != float64(3) {
		t.Errorf("k=3 summary: %v, want %d components", sum, comps)
	}
	getJSON(t, k3+"triangles?p=7", 200)
	sets := [][]int64{{0, 1, 4}, {1, 2}, {3, 5}}
	sc := core.KronPartition([][][]int64{{sets[0]}, {sets[1]}, {sets[2]}}, []int64{6, 5, 6})[0]
	meas := analytics.Community(looped, sc)
	got := getJSON(t, k3+"community?loops=1&s=0,1,4&s=1,2&s=3,5", 200)
	if got["size"] != float64(meas.Size) || got["m_in"] != float64(meas.MIn) || got["m_out"] != float64(meas.MOut) ||
		math.Abs(got["rho_in"].(float64)-meas.RhoIn) > 1e-12 || math.Abs(got["rho_out"].(float64)-meas.RhoOut) > 1e-12 {
		t.Errorf("k=3 community: %v, measured %+v", got, meas)
	}
	if want := []any{[]any{0.0, 1.0, 4.0}, []any{1.0, 2.0}, []any{3.0, 5.0}}; !reflect.DeepEqual(got["s"], want) {
		t.Errorf("k=3 community echoes s=%v, want %v", got["s"], want)
	}
	if resp := getJSON(t, k3+"community?loops=1&sa=0&sb=0", http.StatusBadRequest); !strings.Contains(resp["error"].(string), "one s=") {
		t.Errorf("k=3 community with sa/sb: error %q does not ask for one s= per factor", resp["error"])
	}
}

// TestGroundTruthChainTrianglesAndClustering: at k = 3 the triangle laws
// (per vertex, per edge, in all and as a histogram, plain and loops=1),
// the degree histograms and both clustering laws answer, and their
// values are those measured on the materialized ⊗A_d and ⊗(A_d+I) of
// three different factors.
func TestGroundTruthChainTrianglesAndClustering(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	gs := []*graph.Graph{gen.PrefAttach(5, 2, 41), gen.Clique(4), gen.Ring(3)}
	ch, err := core.NewChain(gs...)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := core.Product(ch.Factors()...)
	if err != nil {
		t.Fatal(err)
	}
	looped, err := core.Product(ch.WithFullSelfLoops().Factors()...)
	if err != nil {
		t.Fatal(err)
	}
	url := fmt.Sprintf("%s/gt/%s,%s,%s/", ts.URL, registerText(t, ts, gs[0], ""), registerText(t, ts, gs[1], ""), registerText(t, ts, gs[2], ""))
	tri, ltri := analytics.Triangles(plain), analytics.Triangles(looped)
	eta, xi := analytics.VertexClustering(plain), analytics.EdgeClustering(plain)
	// want compares a response value with a measured one; NaN is null.
	want := func(query, key string, measured float64) {
		t.Helper()
		got := getJSON(t, url+query, http.StatusOK)[key]
		if f, ok := got.(float64); math.IsNaN(measured) && got != nil || !math.IsNaN(measured) && (!ok || math.Abs(f-measured) > 1e-9) {
			t.Errorf("%s: %s = %v, measured %v", query, key, got, measured)
		}
	}
	want("triangles", "global_triangles", float64(tri.Global))
	want("triangles?loops=1", "global_triangles", float64(ltri.Global))
	// hist=1 answers every histogram row: the degree and t histograms of
	// both products, counted on the materialized ones.
	for query, measured := range map[string][]int64{
		"degree?hist=1": plain.Degrees(), "degree?loops=1&hist=1": looped.Degrees(),
		"triangles?hist=1": tri.Vertex, "triangles?loops=1&hist=1": ltri.Vertex,
	} {
		counts := map[string]any{}
		for _, v := range measured {
			c, _ := counts[fmt.Sprint(v)].(float64)
			counts[fmt.Sprint(v)] = c + 1
		}
		if got := getJSON(t, url+query, http.StatusOK)["histogram"]; !reflect.DeepEqual(got, counts) {
			t.Errorf("%s: %v, measured %v", query, got, counts)
		}
	}
	for p := int64(0); p < plain.NumVertices(); p += 7 {
		want(fmt.Sprintf("triangles?p=%d", p), "vertex_triangles", float64(tri.Vertex[p]))
		want(fmt.Sprintf("triangles?loops=1&p=%d", p), "vertex_triangles", float64(ltri.Vertex[p]))
		want(fmt.Sprintf("clustering?p=%d", p), "vertex_clustering", eta[p])
	}
	for x, e := range plain.ArcSlice() {
		if x%11 == 0 {
			pq := fmt.Sprintf("p=%d&q=%d", e.U, e.V)
			want("triangles?"+pq, "edge_triangles", float64(tri.Arc[x]))
			want("clustering?"+pq, "edge_clustering", xi[x])
		}
	}
	for x, e := range looped.ArcSlice() {
		if x%13 == 0 && e.U != e.V {
			want(fmt.Sprintf("triangles?loops=1&p=%d&q=%d", e.U, e.V), "edge_triangles", float64(ltri.Arc[x]))
		}
	}
}

// TestGroundTruthHistogramBound: a histogram fold whose combine would
// pass its factors' size is refused before it is built. Cor. 1's joint
// (t, d) keys of PrefAttach(2000, 4, 1) number 154, so power=2 combines
// 154² of them and answers, where power=4 would build up to 154⁴ ≈ 5.6·10⁸
// keys and is a 400; the ε histogram, whose max law collapses its keys,
// answers at power=5; and a histogram past 2¹⁶ keys is a 400.
func TestGroundTruthHistogramBound(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	url := ts.URL + "/gt/" + registerText(t, ts, gen.PrefAttach(2000, 4, 1), "") + "/"
	hist := getJSON(t, url+"triangles?power=2&loops=1&hist=1", http.StatusOK)["histogram"].(map[string]any)
	var n float64
	for _, c := range hist {
		n += c.(float64)
	}
	if n != 2000*2000 {
		t.Errorf("power=2 Cor. 1 histogram counts %v vertices, want 4·10⁶", n)
	}
	if msg, _ := getJSON(t, url+"triangles?power=4&loops=1&hist=1", http.StatusBadRequest)["error"].(string); !strings.Contains(msg, "keys") {
		t.Errorf("power=4: error %q does not name the key bound", msg)
	}
	getJSON(t, url+"eccentricity?power=5&loops=1&hist=1", http.StatusOK)
	// A fold within the combine bound can still have more keys than a
	// response carries: the degree histogram has 12,125 at power=3 and
	// 90,462 at power=4, past the 2¹⁶ cap.
	getJSON(t, url+"degree?power=3&hist=1", http.StatusOK)
	if msg, _ := getJSON(t, url+"degree?power=4&hist=1", http.StatusBadRequest)["error"].(string); !strings.Contains(msg, "65536") {
		t.Errorf("degree power=4: error %q does not name the 2¹⁶-key cap", msg)
	}
}
