package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
)

// TestChainGroundTruthLaws checks the /gt/{chain}/{property} routes
// against a materialized three-factor product: every served value must
// equal the measured one.
func TestChainGroundTruthLaws(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := gen.PrefAttach(6, 2, 11)
	b := gen.PrefAttach(5, 2, 12)
	c := gen.PrefAttach(4, 2, 13)
	chain := strings.Join([]string{
		registerText(t, ts, a, ""),
		registerText(t, ts, b, ""),
		registerText(t, ts, c, ""),
	}, ",")

	ch, err := core.NewChain(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := ch.Materialize()
	if err != nil {
		t.Fatal(err)
	}

	sum := getJSON(t, ts.URL+"/gt/"+chain+"/summary", http.StatusOK)
	if sum["n"] != float64(mat.NumVertices()) || sum["arcs"] != float64(mat.NumArcs()) || sum["edges"] != float64(mat.NumEdges()) {
		t.Errorf("summary %v vs n=%d arcs=%d edges=%d", sum, mat.NumVertices(), mat.NumArcs(), mat.NumEdges())
	}
	if sum["k"] != float64(3) {
		t.Errorf("summary k = %v, want 3", sum["k"])
	}

	exact := analytics.Triangles(mat)
	tri := getJSON(t, ts.URL+"/gt/"+chain+"/triangles", http.StatusOK)
	if tri["global_triangles"] != float64(exact.Global) {
		t.Errorf("global triangles %v, want %d", tri["global_triangles"], exact.Global)
	}
	for p := int64(0); p < mat.NumVertices(); p += 17 {
		got := getJSON(t, fmt.Sprintf("%s/gt/%s/degree?p=%d", ts.URL, chain, p), http.StatusOK)
		if got["degree"] != float64(mat.Degree(p)) {
			t.Errorf("degree(%d) = %v, want %d", p, got["degree"], mat.Degree(p))
		}
		gotTri := getJSON(t, fmt.Sprintf("%s/gt/%s/triangles?p=%d", ts.URL, chain, p), http.StatusOK)
		if gotTri["vertex_triangles"] != float64(exact.Vertex[p]) {
			t.Errorf("triangles(%d) = %v, want %d", p, gotTri["vertex_triangles"], exact.Vertex[p])
		}
	}

	// Distance laws run on the ⊗(A_d+I) product under loops=1.
	chLoops, err := core.NewChain(a.WithFullSelfLoops(), b.WithFullSelfLoops(), c.WithFullSelfLoops())
	if err != nil {
		t.Fatal(err)
	}
	matL, err := chLoops.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	diam := getJSON(t, ts.URL+"/gt/"+chain+"/diameter?loops=1", http.StatusOK)
	if diam["diameter"] != float64(analytics.Diameter(matL)) {
		t.Errorf("diameter %v, want %d", diam["diameter"], analytics.Diameter(matL))
	}
	eccs := analytics.Eccentricities(matL)
	ecc := getJSON(t, ts.URL+"/gt/"+chain+"/eccentricity?loops=1&p=7", http.StatusOK)
	if ecc["eccentricity"] != float64(eccs[7]) {
		t.Errorf("ε(7) = %v, want %d", ecc["eccentricity"], eccs[7])
	}
	rows := analytics.AllPairsHops(matL)
	hops := getJSON(t, ts.URL+"/gt/"+chain+"/hops?loops=1&p=3&q=55", http.StatusOK)
	if hops["hops"] != float64(rows[3][55]) {
		t.Errorf("hops(3,55) = %v, want %d", hops["hops"], rows[3][55])
	}
	hist := getJSON(t, ts.URL+"/gt/"+chain+"/eccentricity?loops=1&hist=1", http.StatusOK)
	want := map[string]float64{}
	for _, e := range eccs {
		want[fmt.Sprint(e)]++
	}
	gotHist := hist["histogram"].(map[string]any)
	if len(gotHist) != len(want) {
		t.Fatalf("histogram %v, want %v", gotHist, want)
	}
	for k, v := range want {
		if gotHist[k] != v {
			t.Errorf("hist[%s] = %v, want %v", k, gotHist[k], v)
		}
	}
}

// TestChainPowerQuery: a single-key chain with power=k serves A^{⊗k},
// and malformed or overflowing powers are refused with explicit errors.
func TestChainPowerQuery(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := gen.PrefAttach(5, 2, 21)
	ha := registerText(t, ts, a, "alpha")
	fa := groundtruth.NewFactor(a)

	// Chain keys resolve like factor keys: by name too.
	sum := getJSON(t, ts.URL+"/gt/alpha/summary?power=3", http.StatusOK)
	wantN, err := groundtruth.ChainNumVertices([]*groundtruth.Factor{fa, fa, fa})
	if err != nil {
		t.Fatal(err)
	}
	wantM, err := groundtruth.ChainNumEdges([]*groundtruth.Factor{fa, fa, fa})
	if err != nil {
		t.Fatal(err)
	}
	if sum["n"] != float64(wantN) || sum["edges"] != float64(wantM) {
		t.Errorf("power summary %v, want n=%d edges=%d", sum, wantN, wantM)
	}

	for _, bad := range []string{
		"/gt/" + ha + "/summary?power=0",
		"/gt/" + ha + "/summary?power=65",
		"/gt/" + ha + "/summary?power=abc",
		"/gt/" + ha + "," + ha + "/summary?power=2", // power needs a single key
		"/gt/" + ha + ",/summary",                   // empty key in chain
	} {
		getJSON(t, ts.URL+bad, http.StatusBadRequest)
	}
	getJSON(t, ts.URL+"/gt/"+ha+",nosuchfactor/summary", http.StatusNotFound)
	getJSON(t, ts.URL+"/gt/"+ha+"/frobnicate", http.StatusNotFound)

	// Counting overflow surfaces as a 400 with an explicit error, not a
	// wrapped number: 5^40 vertices is far past int64.
	resp := getJSON(t, ts.URL+"/gt/"+ha+"/summary?power=40", http.StatusBadRequest)
	if !strings.Contains(resp["error"].(string), "overflow") {
		t.Errorf("overflow error = %v", resp["error"])
	}
	// Vertex-addressed properties on an overflowing chain refuse too.
	getJSON(t, ts.URL+"/gt/"+ha+"/degree?power=40&p=0", http.StatusBadRequest)
}

// TestChainGenerateMatchesSerial: the /gen/{chain}/edges stream must be
// exactly the arc set of the materialized chain product.
func TestChainGenerateMatchesSerial(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	a := gen.PrefAttach(6, 2, 31)
	b := gen.PrefAttach(4, 2, 32)
	c := gen.PrefAttach(4, 2, 33)
	chain := strings.Join([]string{
		registerText(t, ts, a, ""),
		registerText(t, ts, b, ""),
		registerText(t, ts, c, ""),
	}, ",")

	ch, err := core.NewChain(a, b, c)
	if err != nil {
		t.Fatal(err)
	}
	mat, err := ch.Materialize()
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/gen/" + chain + "/edges?layout=2d")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Kronlab-Product-N"); got != fmt.Sprint(mat.NumVertices()) {
		t.Errorf("N header %q, want %d", got, mat.NumVertices())
	}
	if got := resp.Header.Get("X-Kronlab-Product-Arcs"); got != fmt.Sprint(mat.NumArcs()) {
		t.Errorf("arcs header %q, want %d", got, mat.NumArcs())
	}

	got := map[graph.Edge]int{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var e struct{ U, V int64 }
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("bad line %q: %v", sc.Text(), err)
		}
		got[graph.Edge{U: e.U, V: e.V}]++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if resp.Trailer.Get("X-Kronlab-Complete") != "true" {
		t.Fatalf("stream incomplete: %v", resp.Trailer)
	}

	var total int64
	for u := int64(0); u < mat.NumVertices(); u++ {
		for _, v := range mat.Neighbors(u) {
			if got[graph.Edge{U: u, V: v}] != 1 {
				t.Fatalf("arc (%d,%d) streamed %d times", u, v, got[graph.Edge{U: u, V: v}])
			}
			total++
		}
	}
	if int64(len(got)) != total {
		t.Fatalf("stream carried %d distinct arcs, product has %d", len(got), total)
	}

	// power=k goes through the same path; 9^40 arcs is an explicit refusal.
	resp2, err := http.Get(ts.URL + "/gen/" + chain[:strings.Index(chain, ",")] + "/edges?power=40")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("overflowing generation: status %d, want 400", resp2.StatusCode)
	}
}
