package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/gen"
	"kronlab/internal/graph"
	"kronlab/internal/serve"
	"kronlab/internal/store"
)

// TestEndToEnd is the acceptance scenario: register two factors over HTTP
// (one text upload, one binary), query ground truth, stream the product's
// edges in both wire formats, and check every answer against the
// internal/analytics oracles run on the materialized product.
func TestEndToEnd(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.Config{MaxInflight: 4, MaxQueue: 8}))
	defer ts.Close()

	a := gen.PrefAttach(12, 2, 41)
	b := gen.PrefAttach(9, 2, 42)

	// Factor A over the text path.
	var textBody bytes.Buffer
	if err := a.WriteEdgeList(&textBody); err != nil {
		t.Fatal(err)
	}
	ha := postFactor(t, ts.URL+"/factors?name=a", "text/plain", &textBody, http.StatusCreated)
	// Factor B over the binary path.
	var binBody bytes.Buffer
	if err := b.WriteBinary(&binBody); err != nil {
		t.Fatal(err)
	}
	hb := postFactor(t, ts.URL+"/factors", "application/octet-stream", &binBody, http.StatusCreated)

	if ha != a.CanonicalHash() || hb != b.CanonicalHash() {
		t.Fatalf("server addresses (%s, %s) disagree with canonical hashes", ha, hb)
	}

	// Materialize both product variants as the oracle substrate.
	C, err := core.Product(a, b)
	if err != nil {
		t.Fatal(err)
	}
	CL, err := core.Product(a.WithFullSelfLoops(), b.WithFullSelfLoops())
	if err != nil {
		t.Fatal(err)
	}
	nC := C.NumVertices()
	gtURL := func(prop, params string) string {
		u := fmt.Sprintf("%s/gt/%s/%s/%s", ts.URL, ha, hb, prop)
		if params != "" {
			u += "?" + params
		}
		return u
	}

	t.Run("degree", func(t *testing.T) {
		for _, p := range []int64{0, nC / 3, nC - 1} {
			got := getJSON(t, gtURL("degree", fmt.Sprintf("p=%d", p)))
			if want := C.Degree(p); asInt64(got["degree"]) != want {
				t.Errorf("degree(p=%d) = %v, oracle %d", p, got["degree"], want)
			}
			got = getJSON(t, gtURL("degree", fmt.Sprintf("p=%d&loops=1", p)))
			if want := CL.Degree(p); asInt64(got["degree"]) != want {
				t.Errorf("degree(p=%d, loops) = %v, oracle %d", p, got["degree"], want)
			}
		}
	})

	t.Run("triangles", func(t *testing.T) {
		triC := analytics.Triangles(C)
		triCL := analytics.Triangles(CL)
		if got := getJSON(t, gtURL("triangles", "")); asInt64(got["global_triangles"]) != triC.Global {
			t.Errorf("global triangles = %v, oracle %d", got["global_triangles"], triC.Global)
		}
		if got := getJSON(t, gtURL("triangles", "loops=1")); asInt64(got["global_triangles"]) != triCL.Global {
			t.Errorf("global triangles (loops) = %v, oracle %d", got["global_triangles"], triCL.Global)
		}
		for _, p := range []int64{1, nC / 2} {
			got := getJSON(t, gtURL("triangles", fmt.Sprintf("p=%d", p)))
			if asInt64(got["vertex_triangles"]) != triC.Vertex[p] {
				t.Errorf("t_%d = %v, oracle %d", p, got["vertex_triangles"], triC.Vertex[p])
			}
			got = getJSON(t, gtURL("triangles", fmt.Sprintf("p=%d&loops=1", p)))
			if asInt64(got["vertex_triangles"]) != triCL.Vertex[p] {
				t.Errorf("t_%d (loops) = %v, oracle %d", p, got["vertex_triangles"], triCL.Vertex[p])
			}
		}
		// One representative non-loop edge in each variant.
		u, v := firstProperEdge(t, C)
		got := getJSON(t, gtURL("triangles", fmt.Sprintf("p=%d&q=%d", u, v)))
		if want := analytics.EdgeTriangles(C, u, v); asInt64(got["edge_triangles"]) != want {
			t.Errorf("Δ(%d,%d) = %v, oracle %d", u, v, got["edge_triangles"], want)
		}
		u, v = firstProperEdge(t, CL)
		got = getJSON(t, gtURL("triangles", fmt.Sprintf("p=%d&q=%d&loops=1", u, v)))
		if want := analytics.EdgeTriangles(CL, u, v); asInt64(got["edge_triangles"]) != want {
			t.Errorf("Δ(%d,%d) (loops) = %v, oracle %d", u, v, got["edge_triangles"], want)
		}
	})

	t.Run("clustering", func(t *testing.T) {
		eta := analytics.VertexClustering(C)
		for _, p := range []int64{0, nC - 1} {
			got := getJSON(t, gtURL("clustering", fmt.Sprintf("p=%d", p)))
			if !floatEq(asFloat(got["vertex_clustering"]), eta[p]) {
				t.Errorf("η_%d = %v, oracle %g", p, got["vertex_clustering"], eta[p])
			}
		}
	})

	t.Run("distances", func(t *testing.T) {
		got := getJSON(t, gtURL("diameter", "loops=1"))
		if want := analytics.Diameter(CL); asInt64(got["diameter"]) != want {
			t.Errorf("diameter = %v, oracle %d", got["diameter"], want)
		}
		for _, p := range []int64{0, nC / 2, nC - 1} {
			got := getJSON(t, gtURL("eccentricity", fmt.Sprintf("p=%d&loops=1", p)))
			if want := analytics.Eccentricity(CL, p); asInt64(got["eccentricity"]) != want {
				t.Errorf("ε_%d = %v, oracle %d", p, got["eccentricity"], want)
			}
			got = getJSON(t, gtURL("closeness", fmt.Sprintf("p=%d&loops=1", p)))
			if want := analytics.Closeness(CL, p); !floatEq(asFloat(got["closeness"]), want) {
				t.Errorf("z_%d = %v, oracle %g", p, got["closeness"], want)
			}
		}
		hops := analytics.Hops(CL, 0)
		got = getJSON(t, gtURL("hops", fmt.Sprintf("p=0&q=%d&loops=1", nC-1)))
		if asInt64(got["hops"]) != hops[nC-1] {
			t.Errorf("hops(0,%d) = %v, oracle %d", nC-1, got["hops"], hops[nC-1])
		}
	})

	t.Run("community", func(t *testing.T) {
		sa := []int64{0, 1, 2}
		sb := []int64{0, 1}
		set := core.KronSet(sa, sb, b.NumVertices())
		want := analytics.Community(CL, set)
		got := getJSON(t, gtURL("community", "sa=0,1,2&sb=0,1&loops=1"))
		if asInt64(got["size"]) != want.Size || asInt64(got["m_in"]) != want.MIn || asInt64(got["m_out"]) != want.MOut {
			t.Errorf("community counts = (%v,%v,%v), oracle (%d,%d,%d)",
				got["size"], got["m_in"], got["m_out"], want.Size, want.MIn, want.MOut)
		}
		if !floatEq(asFloat(got["rho_in"]), want.RhoIn) || !floatEq(asFloat(got["rho_out"]), want.RhoOut) {
			t.Errorf("community densities = (%v,%v), oracle (%g,%g)",
				got["rho_in"], got["rho_out"], want.RhoIn, want.RhoOut)
		}
	})

	t.Run("stream-ndjson", func(t *testing.T) {
		resp, err := http.Get(fmt.Sprintf("%s/gen/%s/%s/edges?layout=2d&ranks=3", ts.URL, ha, hb))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var arcs []graph.Edge
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			var e struct{ U, V int64 }
			if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
				t.Fatalf("bad stream line %q: %v", sc.Text(), err)
			}
			arcs = append(arcs, graph.Edge{U: e.U, V: e.V})
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		assertStreamedProduct(t, nC, arcs, C)
	})

	t.Run("stream-binary", func(t *testing.T) {
		resp, err := http.Get(fmt.Sprintf("%s/gen/%s/%s/edges?format=binary&loops=1", ts.URL, ha, hb))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw)%store.RecordSize != 0 {
			t.Fatalf("binary stream length %d is not a multiple of %d", len(raw), store.RecordSize)
		}
		arcs := make([]graph.Edge, 0, len(raw)/store.RecordSize)
		for off := 0; off < len(raw); off += store.RecordSize {
			u, v := store.GetRecord(raw[off : off+store.RecordSize])
			arcs = append(arcs, graph.Edge{U: u, V: v})
		}
		assertStreamedProduct(t, nC, arcs, CL)
	})

	t.Run("metrics", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		text := string(body)
		for _, metric := range []string{
			"kronserve_requests_total{route=\"gt\"}",
			"kronserve_requests_total{route=\"gen\"}",
			"kronserve_gen_edges_total",
			"kronserve_cache_hits_total",
			"kronserve_summary_builds_total",
		} {
			val := metricValue(t, text, metric)
			if val <= 0 {
				t.Errorf("%s = %g after e2e traffic, want > 0", metric, val)
			}
		}
	})
}

// assertStreamedProduct rebuilds a graph from streamed arcs and demands
// exact equality with the oracle product.
func assertStreamedProduct(t *testing.T, n int64, arcs []graph.Edge, want *graph.Graph) {
	t.Helper()
	if int64(len(arcs)) != want.NumArcs() {
		t.Fatalf("streamed %d arcs, product has %d", len(arcs), want.NumArcs())
	}
	got, err := graph.New(n, arcs)
	if err != nil {
		t.Fatalf("streamed arc set invalid: %v", err)
	}
	if !got.Equal(want) {
		t.Fatal("streamed edge set differs from the materialized product")
	}
}

func postFactor(t *testing.T, url, contentType string, body io.Reader, wantStatus int) string {
	t.Helper()
	resp, err := http.Post(url, contentType, body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d (want %d): %s", url, resp.StatusCode, wantStatus, raw)
	}
	var info struct {
		Hash string `json:"hash"`
	}
	if err := json.Unmarshal(raw, &info); err != nil {
		t.Fatal(err)
	}
	return info.Hash
}

func getJSON(t *testing.T, url string) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, body)
	}
	var out map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, body, err)
	}
	return out
}

func asInt64(v any) int64 {
	f, ok := v.(float64)
	if !ok {
		return math.MinInt64
	}
	return int64(f)
}

func asFloat(v any) float64 {
	f, ok := v.(float64)
	if !ok {
		return math.NaN()
	}
	return f
}

func floatEq(a, b float64) bool {
	if a == b {
		return true
	}
	return math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

// firstProperEdge returns some non-loop arc (u,v) of g.
func firstProperEdge(t *testing.T, g *graph.Graph) (int64, int64) {
	t.Helper()
	for _, e := range g.EdgeList() {
		if e.U != e.V {
			return e.U, e.V
		}
	}
	t.Fatal("graph has no proper edge")
	return 0, 0
}

// metricValue extracts the sample value of a metric line such as
// `kronserve_gen_edges_total 123`.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			var v float64
			if _, err := fmt.Sscanf(rest, "%g", &v); err != nil {
				t.Fatalf("unparseable metric line %q: %v", line, err)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found in exposition:\n%s", name, text)
	return 0
}
