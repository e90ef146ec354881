package serve

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"net/http"
	"slices"
	"strconv"
	"strings"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
)

// gtRequest carries the resolved inputs of one ground-truth query: the
// registered factors' hashes, how the chain was spelled, which product
// was asked and the mixed-radix product indexing. All formula evaluation
// is O(k)–O(diam) against the cached factor summaries — the paper's
// sublinear serving claim.
type gtRequest struct {
	hashes []string
	pair   bool // asked as /gt/{a}/{b}: responses carry a/b (and i/k), not chain/k (and coords)
	loops  bool // query the ⊗(A_d+I) product
	ci     core.ChainIndex
	ciErr  error // vertex-count overflow; vertex-addressed props refuse
}

// handleGroundTruth serves GET /gt/{a}/{b}/{property} and
// GET /gt/{chain}/{property} — two spellings of one query over the
// factor list resolveChain returns. Common query parameters: loops=1
// queries the full-self-loop product ⊗(A_d+I) instead of ⊗A_d; p (and q)
// address product vertices (a pair, or an edge); hist=1 asks for the
// value → count histogram over every product vertex; s, once per factor
// in chain order (or sa and sb for two factors), gives factor community
// vertex lists.
//
// Every property but summary and community is a set of rows of
// groundtruth.Laws, answered by gtLaw at any k. summary reads the graphs
// alone; community folds Thm. 6 over the chain from each factor's
// community, at any k too.
func (s *Server) handleGroundTruth(w http.ResponseWriter, r *http.Request) {
	gs, hashes, pair, ok := s.resolveChain(w, r)
	if !ok {
		return
	}
	req := &gtRequest{hashes: hashes, pair: pair, loops: r.URL.Query().Get("loops") == "1"}
	dims := make([]int64, len(gs))
	for i, g := range gs {
		dims[i] = g.NumVertices()
	}
	req.ci, req.ciErr = core.NewChainIndex(dims)
	switch prop := r.PathValue("property"); prop {
	case "summary": // it reads the graphs alone: no factor summary is built
		s.gtSummary(w, req, gs)
	case "community":
		s.gtCommunity(w, r, req, gs)
	default:
		s.gtLaw(w, r, req, gs, prop)
	}
}

// maxHistogramKeys caps a histogram's body, which a fold within
// groundtruth's combine bound can still give tens of thousands of keys.
const maxHistogramKeys = 1 << 16

// gtLaw answers property from its row of groundtruth.Laws: hist=1, p and
// q, or p give the shapes to try, the most specific first (a law that
// reads fewer parameters than were given ignores the rest),
// groundtruth.Resolve the row and the cached factor summaries it reads —
// one entry per factor, keyed by the tiers the row reads —, and the row
// its value — or the 400 that states its hypothesis.
func (s *Server) gtLaw(w http.ResponseWriter, r *http.Request, req *gtRequest, gs []*graph.Graph, prop string) {
	if !slices.ContainsFunc(groundtruth.Laws, func(l *groundtruth.Law) bool { return l.Property == prop }) {
		writeError(w, http.StatusNotFound,
			"unknown property %q (have summary, degree, triangles, clustering, diameter, eccentricity, closeness, hops, community)", prop)
		return
	}
	p, hasP, errP := req.vertexParam(r, "p")
	q, hasQ, errQ := req.vertexParam(r, "q")
	if err := cmp.Or(errP, errQ); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	shapes := []groundtruth.Shape{groundtruth.Global}
	switch {
	case r.URL.Query().Get("hist") == "1":
		shapes = []groundtruth.Shape{groundtruth.Histogram}
	case hasP && hasQ:
		shapes = []groundtruth.Shape{groundtruth.PerPair, groundtruth.PerVertex, groundtruth.Global}
	case hasP:
		shapes = []groundtruth.Shape{groundtruth.PerVertex, groundtruth.Global}
	}
	var row *groundtruth.Law
	var fs []*groundtruth.Factor
	var err error
	for _, shape := range shapes {
		if row, fs, err = groundtruth.Resolve(prop, shape, gs, req.loops, func(d int, plusI bool, tiers groundtruth.Tiers) (*groundtruth.Factor, error) {
			return s.cache.Get(r.Context(), SummaryKey{Hash: req.hashes[d], Loops: plusI, Tiers: tiers},
				func() *groundtruth.Factor { return groundtruth.Summarize(gs[d], plusI, tiers) })
		}); row != nil {
			break
		}
	}
	var cp, cq []int64
	if hasP {
		cp = req.ci.Split(p)
	}
	if hasQ {
		cq = req.ci.Split(q)
	}
	var v any
	if err == nil {
		v, err = row.Eval(fs, cp, cq)
	}
	switch {
	case row == nil:
		writeError(w, http.StatusBadRequest, "%v: p= asks for a vertex, p=&q= an arc or pair, hist=1 a histogram, none of them the whole product", err)
		return
	case errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded):
		writeError(w, statusForContextErr(err), "resolving factor summaries: %v", err)
		return
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if h, ok := v.(map[int64]int64); ok && len(h) > maxHistogramKeys {
		writeError(w, http.StatusBadRequest, "the %s has %d keys, over the %d (2¹⁶) keys a response carries", row.Name, len(h), maxHistogramKeys)
		return
	}
	key := strings.ReplaceAll(row.Name, " ", "_")
	if row.Shape == groundtruth.Histogram {
		key = "histogram"
	}
	out := map[string]any{key: jsonValue(v)}
	switch row.Shape {
	case groundtruth.PerVertex:
		out["p"] = p
		if req.pair {
			out["i"], out["k"] = cp[0], cp[1]
		} else {
			out["coords"] = cp
		}
	case groundtruth.PerArc, groundtruth.PerPair:
		out["p"], out["q"] = p, q
	}
	writeJSON(w, http.StatusOK, req.base(out))
}

// jsonValue renders a law's value: analytics.Unreachable (no path) and
// NaN (an undefined coefficient) as null, a histogram with its values as
// decimal keys.
func jsonValue(v any) any {
	switch v := v.(type) {
	case int64:
		if v == analytics.Unreachable {
			return nil
		}
	case float64:
		if math.IsNaN(v) {
			return nil
		}
	case map[int64]int64:
		out := make(map[string]int64, len(v))
		for x, c := range v {
			out[strconv.FormatInt(x, 10)] = c
		}
		return out
	}
	return v
}

// base stamps the product identification onto a response body, in the
// spelling the request used.
func (req *gtRequest) base(extra map[string]any) map[string]any {
	if req.pair {
		extra["a"], extra["b"] = req.hashes[0], req.hashes[1]
	} else {
		extra["chain"] = req.hashes
		extra["k"] = len(req.hashes)
	}
	extra["loops"] = req.loops
	return extra
}

// vertexParam parses and range-checks a product vertex id parameter,
// refusing when the product vertex count itself overflows int64.
func (req *gtRequest) vertexParam(r *http.Request, name string) (int64, bool, error) {
	raw := r.URL.Query().Get(name)
	if raw == "" {
		return 0, false, nil
	}
	if req.ciErr != nil {
		return 0, false, fmt.Errorf("cannot address product vertices: %v", req.ciErr)
	}
	p, err := strconv.ParseInt(raw, 10, 64)
	if err != nil {
		return 0, false, fmt.Errorf("bad %s=%q: %v", name, raw, err)
	}
	if p < 0 || p >= req.ci.NumVertices() {
		return 0, false, fmt.Errorf("%s=%d out of range [0,%d)", name, p, req.ci.NumVertices())
	}
	return p, true, nil
}

// gtSummary answers the counts n_C, arcs_C and m_C — the rows no property
// asks for, over uncached degree-only summaries — and Weichsel's
// component count, from the graphs alone.
func (s *Server) gtSummary(w http.ResponseWriter, req *gtRequest, gs []*graph.Graph) {
	src, out := groundtruth.Summaries(gs), map[string]any{}
	for _, l := range groundtruth.Laws {
		if l.Property != "" {
			continue
		}
		key := l.Name // vertices, edges, arcs
		if key == "vertices" {
			key = "n"
		}
		fs, err := l.Bind(gs, req.loops, src)
		if err == nil {
			out[key], err = l.Eval(fs, nil, nil)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
	}
	components := groundtruth.ProductComponents
	if req.loops {
		components = groundtruth.ProductComponentsPlusI
	}
	if comps, err := components(gs); err == nil {
		out["components"] = comps
	}
	writeJSON(w, http.StatusOK, req.base(out))
}

// parseVertexList parses a comma-separated factor vertex list.
func parseVertexList(raw string, n int64, name string) ([]int64, error) {
	if raw == "" {
		return nil, fmt.Errorf("community needs %s=<comma-separated factor vertices>", name)
	}
	parts := strings.Split(raw, ",")
	out := make([]int64, 0, len(parts))
	seen := make(map[int64]bool, len(parts))
	for _, part := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(part), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad %s entry %q: %v", name, part, err)
		}
		if v < 0 || v >= n {
			return nil, fmt.Errorf("%s vertex %d out of range [0,%d)", name, v, n)
		}
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out, nil
}

// gtCommunity answers Thm. 6 folded over the chain
// (groundtruth.CommunityKron) for ⊗(A_d+I) of loop-free factors, from
// one community per factor: s= once per factor, in chain order, or for
// two factors sa= and sb=. The answer echoes the sets under the names
// they were asked by.
func (s *Server) gtCommunity(w http.ResponseWriter, r *http.Request, req *gtRequest, gs []*graph.Graph) {
	q := r.URL.Query()
	raw, names := q["s"], []string{"s"}
	if raw == nil && len(gs) == 2 {
		raw, names = []string{q.Get("sa"), q.Get("sb")}, []string{"sa", "sb"}
	}
	if !req.loops {
		writeError(w, http.StatusBadRequest, "community ground truth (Thm. 6) is for the loops=1 product (A+I)⊗(B+I)")
		return
	}
	if len(raw) != len(gs) {
		writeError(w, http.StatusBadRequest,
			"community needs one s=<comma-separated factor vertices> per factor, in chain order: %d given for %d factors", len(raw), len(gs))
		return
	}
	sets, stats := make([][]int64, len(gs)), make([]analytics.CommunityStats, len(gs))
	for d, g := range gs {
		var err error
		if sets[d], err = parseVertexList(raw[d], g.NumVertices(), names[min(d, len(names)-1)]); g.NumSelfLoops() != 0 {
			err = fmt.Errorf("community ground truth (Thm. 6) requires loop-free registered factors (factor %d has loops; loops=1 adds them)", d)
		}
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		stats[d] = analytics.Community(g, sets[d])
	}
	cs, err := groundtruth.CommunityKron(gs, stats)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	out := map[string]any{
		"size": cs.Size, "m_in": cs.MIn, "m_out": cs.MOut,
		"rho_in": cs.RhoIn, "rho_out": cs.RhoOut,
	}
	if len(names) == 2 {
		out["sa"], out["sb"] = sets[0], sets[1]
	} else {
		out["s"] = sets
	}
	writeJSON(w, http.StatusOK, req.base(out))
}
