package serve

import (
	"fmt"
	"net/http"
	"reflect"
	"strings"
	"testing"

	"kronlab/internal/gen"
)

// TestGroundTruthOneHandlerTwoSpellings: /gt/{a}/{b}/{prop} and
// /gt/{a},{b}/{prop} are one query. Every property — including the laws
// the paper gives for two factors only — must answer the same values in
// both spellings, each under its own identification keys; at k = 3 the
// two-factor laws refuse with a 400 that names the hypothesis.
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
		{hl, hl, "hops?p=0&q=7", 200},
		{hl, hl, "closeness?p=3", 200},
		{ha, hb, "diameter", 400},          // loop-free factors, no loops=1
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
			if strings.HasPrefix(tc.query, "degree") &&
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

	// k = 3: the chain laws still answer, the two-factor laws name their
	// hypothesis.
	k3 := fmt.Sprintf("%s/gt/%s,%s,%s/", ts.URL, ha, hb, ha)
	if sum := getJSON(t, k3+"summary", 200); sum["components"] != nil || sum["k"] != float64(3) {
		t.Errorf("k=3 summary: %v", sum)
	}
	getJSON(t, k3+"triangles?p=7", 200)
	for _, q := range []string{
		"triangles?p=1&q=2", "triangles?loops=1", "triangles?loops=1&p=7",
		"clustering?p=0", "closeness?p=0", "closeness?loops=1&p=0", "community?loops=1&sa=0&sb=0",
	} {
		if resp := getJSON(t, k3+q, http.StatusBadRequest); !strings.Contains(resp["error"].(string), "two-factor law") {
			t.Errorf("k=3 %s: error %q does not name the two-factor hypothesis", q, resp["error"])
		}
	}
}
