package serve

import (
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
)

// gtRequest carries the resolved inputs of one ground-truth query: the
// per-position factors at the summary tier the property needs (shared
// pointers for repeated factors) plus the mixed-radix product indexing.
// All formula evaluation below is O(k)–O(diam) against the cached
// summaries — the paper's sublinear serving claim.
type gtRequest struct {
	fs     []*groundtruth.Factor
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
// address product vertices (edges); sa/sb give factor community vertex
// lists.
//
// summary, degree, triangles (global and per vertex), diameter,
// eccentricity and hops compose across any chain. The laws the paper
// gives for C = A⊗B only — edge triangles, the Cor. 1/2 loops=1 triangle
// counts, clustering, closeness, community, and the Weichsel component
// count inside summary — answer when the list has two factors, however
// it was spelled.
func (s *Server) handleGroundTruth(w http.ResponseWriter, r *http.Request) {
	gs, hashes, pair, ok := s.resolveChain(w, r)
	if !ok {
		return
	}
	loops := r.URL.Query().Get("loops") == "1"
	prop := r.PathValue("property")
	switch prop {
	case "clustering", "closeness", "community":
		if !pairOnly(w, len(gs), prop+" ground truth") {
			return
		}
	}

	// Which summary variant/tier does the property need?
	distProp := prop == "diameter" || prop == "eccentricity" || prop == "closeness" || prop == "hops"
	loopVariant := loops && distProp // distance formulas run on the +I factors
	for i, g := range gs {
		if distProp && !loops && g.NumSelfLoops() != g.NumVertices() {
			// Thm. 3–5 hypotheses: without loops=1 the registered factors
			// themselves must carry full self loops.
			writeError(w, http.StatusBadRequest,
				"distance ground truth requires full-self-loop factors (factor %d is not); pass loops=1 to query ⊗(A_d+I)", i)
			return
		}
		if loops && !distProp && g.NumSelfLoops() != 0 {
			// Cor. 1/2, Thm. 6 and the degree formula assume the +I loops
			// are supplied by the construction, not already present.
			writeError(w, http.StatusBadRequest,
				"loops=1 ground truth requires loop-free registered factors (factor %d has loops; the construction adds them)", i)
			return
		}
	}

	req := &gtRequest{fs: make([]*groundtruth.Factor, len(gs)), hashes: hashes, pair: pair, loops: loops}
	dims := make([]int64, len(gs))
	for i := range gs {
		sum, err := s.cache.Get(r.Context(), SummaryKey{Hash: hashes[i], Loops: loopVariant, Distances: distProp},
			func() (*groundtruth.Summary, error) {
				return groundtruth.NewSummary(gs[i], hashes[i], loopVariant, distProp), nil
			})
		if err != nil {
			writeError(w, statusForContextErr(err), "resolving factor summaries: %v", err)
			return
		}
		req.fs[i], dims[i] = sum.F, sum.F.N()
	}
	req.ci, req.ciErr = core.NewChainIndex(dims)

	switch prop {
	case "summary":
		s.gtSummary(w, req, gs)
	case "degree":
		s.gtDegree(w, r, req)
	case "triangles":
		s.gtTriangles(w, r, req)
	case "clustering":
		s.gtClustering(w, r, req)
	case "diameter":
		writeJSON(w, http.StatusOK, req.base(map[string]any{
			"diameter": hopValue(groundtruth.ChainDiameter(req.fs)),
		}))
	case "eccentricity":
		s.gtEccentricity(w, r, req)
	case "closeness":
		s.gtCloseness(w, r, req)
	case "hops":
		s.gtHops(w, r, req)
	case "community":
		s.gtCommunity(w, r, req)
	default:
		writeError(w, http.StatusNotFound,
			"unknown property %q (have summary, degree, triangles, clustering, diameter, eccentricity, closeness, hops, community)", prop)
	}
}

// pairOnly guards a law the paper states for two factors: it reports
// whether k = 2, writing the 400 that names the hypothesis otherwise.
func pairOnly(w http.ResponseWriter, k int, what string) bool {
	if k != 2 {
		writeError(w, http.StatusBadRequest,
			"%s is a two-factor law (the paper states it for C = A⊗B); this chain has %d factors", what, k)
	}
	return k == 2
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

// vertexParams parses p and q in one go, writing the 400 itself.
func (req *gtRequest) vertexParams(w http.ResponseWriter, r *http.Request) (p, q int64, hasP, hasQ, ok bool) {
	p, hasP, err := req.vertexParam(r, "p")
	if err == nil {
		q, hasQ, err = req.vertexParam(r, "q")
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return 0, 0, false, false, false
	}
	return p, q, hasP, hasQ, true
}

// hopValue maps analytics.Unreachable to a JSON null.
func hopValue(h int64) any {
	if h == analytics.Unreachable {
		return nil
	}
	return h
}

// floatValue maps NaN (undefined clustering) to a JSON null.
func floatValue(f float64) any {
	if math.IsNaN(f) {
		return nil
	}
	return f
}

// isProductEdge reports whether (p,q) is a non-loop arc of the queried
// product: an arc in every factor, the +I loops counting under loops=1.
func (req *gtRequest) isProductEdge(p, q int64) bool {
	if p == q {
		return false
	}
	cp, cq := req.ci.Split(p), req.ci.Split(q)
	for d, f := range req.fs {
		if !f.G.HasArc(cp[d], cq[d]) && !(req.loops && cp[d] == cq[d]) {
			return false
		}
	}
	return true
}

func (s *Server) gtSummary(w http.ResponseWriter, req *gtRequest, gs []*graph.Graph) {
	ch, err := core.NewChain(gs...)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if req.loops {
		ch = ch.WithFullSelfLoops()
	}
	edges, arcs, err := ch.NumEdges()
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	out := map[string]any{"n": ch.NumVertices(), "arcs": arcs, "edges": edges}
	// Weichsel component count: two connected factors with an edge each.
	if f := ch.Factors(); len(f) == 2 {
		if comps, err := groundtruth.ProductComponents(groundtruth.NewFactor(f[0]), groundtruth.NewFactor(f[1])); err == nil {
			out["components"] = comps
		}
	}
	writeJSON(w, http.StatusOK, req.base(out))
}

func (s *Server) gtDegree(w http.ResponseWriter, r *http.Request, req *gtRequest) {
	p, ok, err := req.vertexParam(r, "p")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusBadRequest, "degree needs p=<product vertex>")
		return
	}
	coords := req.ci.Split(p)
	d := int64(1)
	for i, f := range req.fs {
		if req.loops {
			d *= f.Deg[coords[i]] + 1 // d_p of ⊗(A_d+I)
		} else {
			d *= f.Deg[coords[i]] // d_C = ⊗ d_{A_d}
		}
	}
	out := map[string]any{"p": p, "degree": d}
	if req.pair {
		out["i"], out["k"] = coords[0], coords[1]
	} else {
		out["coords"] = coords
	}
	writeJSON(w, http.StatusOK, req.base(out))
}

func (s *Server) gtTriangles(w http.ResponseWriter, r *http.Request, req *gtRequest) {
	// Triangle formulas (plain and Cor. 1/2) assume loop-free factors.
	for i, f := range req.fs {
		if f.G.NumSelfLoops() != 0 {
			writeError(w, http.StatusBadRequest, "triangle ground truth requires loop-free factors (factor %d has loops)", i)
			return
		}
	}
	if req.loops && !pairOnly(w, len(req.fs), "loops=1 triangle ground truth (Cor. 1/2)") {
		return
	}
	p, q, hasP, hasQ, ok := req.vertexParams(w, r)
	if !ok {
		return
	}
	switch {
	case hasP && hasQ: // edge count Δ_pq
		if !pairOnly(w, len(req.fs), "edge triangle ground truth (Δ_C = Δ_A ⊗ Δ_B)") {
			return
		}
		if !req.isProductEdge(p, q) {
			writeError(w, http.StatusBadRequest, "(%d,%d) is not a non-loop edge of the product", p, q)
			return
		}
		var tri int64
		if req.loops {
			tri = groundtruth.EdgeTrianglesFullLoopsAt(req.fs[0], req.fs[1], p, q) // Cor. 2
		} else {
			tri = groundtruth.EdgeTrianglesAt(req.fs[0], req.fs[1], p, q) // Δ_C = Δ_A ⊗ Δ_B
		}
		writeJSON(w, http.StatusOK, req.base(map[string]any{"p": p, "q": q, "edge_triangles": tri}))
	case hasP: // vertex count t_p
		var tri int64
		if req.loops {
			tri = groundtruth.VertexTrianglesFullLoopsAt(req.fs[0], req.fs[1], p) // Cor. 1
		} else {
			tri = groundtruth.ChainVertexTrianglesAt(req.fs, req.ci.Split(p)) // t_C = 2^{k−1}·Π t_d
		}
		writeJSON(w, http.StatusOK, req.base(map[string]any{"p": p, "vertex_triangles": tri}))
	default: // global count τ_C
		var tau int64
		if req.loops {
			tau = groundtruth.GlobalTrianglesFullLoops(req.fs[0], req.fs[1])
		} else {
			var err error
			if tau, err = groundtruth.ChainGlobalTriangles(req.fs); err != nil { // τ_C = 6^{k−1}·Π τ_d
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
		}
		writeJSON(w, http.StatusOK, req.base(map[string]any{"global_triangles": tau}))
	}
}

func (s *Server) gtClustering(w http.ResponseWriter, r *http.Request, req *gtRequest) {
	if req.loops {
		writeError(w, http.StatusBadRequest, "clustering ground truth (Thm. 1/2) applies to the loop-free product; drop loops=1")
		return
	}
	a, b := req.fs[0], req.fs[1]
	if a.G.NumSelfLoops() != 0 || b.G.NumSelfLoops() != 0 {
		writeError(w, http.StatusBadRequest, "clustering ground truth requires loop-free factors")
		return
	}
	p, q, hasP, hasQ, ok := req.vertexParams(w, r)
	if !ok {
		return
	}
	switch {
	case hasP && hasQ:
		if !req.isProductEdge(p, q) {
			writeError(w, http.StatusBadRequest, "(%d,%d) is not a non-loop edge of the product", p, q)
			return
		}
		xi := groundtruth.EdgeClusteringAt(a, b, p, q) // Thm. 2
		writeJSON(w, http.StatusOK, req.base(map[string]any{"p": p, "q": q, "edge_clustering": floatValue(xi)}))
	case hasP:
		eta := groundtruth.VertexClusteringAt(a, b, p) // Thm. 1
		writeJSON(w, http.StatusOK, req.base(map[string]any{"p": p, "vertex_clustering": floatValue(eta)}))
	default:
		writeError(w, http.StatusBadRequest, "clustering needs p=<vertex> or p,q=<edge>")
	}
}

func (s *Server) gtEccentricity(w http.ResponseWriter, r *http.Request, req *gtRequest) {
	if r.URL.Query().Get("hist") == "1" {
		// O(k·diam²) histogram over all n_C vertices without materializing ε_C.
		hist := groundtruth.ChainEccentricityHistogram(req.fs)
		out := make(map[string]int64, len(hist))
		for e, c := range hist {
			out[strconv.FormatInt(e, 10)] = c
		}
		writeJSON(w, http.StatusOK, req.base(map[string]any{"histogram": out}))
		return
	}
	p, ok, err := req.vertexParam(r, "p")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusBadRequest, "eccentricity needs p=<product vertex> or hist=1")
		return
	}
	writeJSON(w, http.StatusOK, req.base(map[string]any{
		"p": p, "eccentricity": hopValue(groundtruth.ChainEccentricityAt(req.fs, req.ci.Split(p))),
	}))
}

func (s *Server) gtCloseness(w http.ResponseWriter, r *http.Request, req *gtRequest) {
	p, ok, err := req.vertexParam(r, "p")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if !ok {
		writeError(w, http.StatusBadRequest, "closeness needs p=<product vertex>")
		return
	}
	// Thm. 4 via the Sec. V-B compressed histogram: O(diam) per query.
	z := groundtruth.ClosenessCompressedAt(req.fs[0], req.fs[1], p)
	writeJSON(w, http.StatusOK, req.base(map[string]any{"p": p, "closeness": z}))
}

func (s *Server) gtHops(w http.ResponseWriter, r *http.Request, req *gtRequest) {
	p, q, hasP, hasQ, ok := req.vertexParams(w, r)
	if !ok {
		return
	}
	if !hasP || !hasQ {
		writeError(w, http.StatusBadRequest, "hops needs p=<vertex>&q=<vertex>")
		return
	}
	writeJSON(w, http.StatusOK, req.base(map[string]any{
		"p": p, "q": q,
		"hops": hopValue(groundtruth.ChainHopsAt(req.fs, req.ci.Split(p), req.ci.Split(q))),
	}))
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

func (s *Server) gtCommunity(w http.ResponseWriter, r *http.Request, req *gtRequest) {
	if !req.loops {
		writeError(w, http.StatusBadRequest, "community ground truth (Thm. 6) is for the loops=1 product (A+I)⊗(B+I)")
		return
	}
	a, b := req.fs[0], req.fs[1]
	setA, err := parseVertexList(r.URL.Query().Get("sa"), a.N(), "sa")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	setB, err := parseVertexList(r.URL.Query().Get("sb"), b.N(), "sb")
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	statsA := groundtruth.FactorCommunity(a, setA)
	statsB := groundtruth.FactorCommunity(b, setB)
	cs := groundtruth.CommunityKron(a, b, statsA, statsB) // Thm. 6
	writeJSON(w, http.StatusOK, req.base(map[string]any{
		"sa": setA, "sb": setB,
		"size": cs.Size, "m_in": cs.MIn, "m_out": cs.MOut,
		"rho_in": cs.RhoIn, "rho_out": cs.RhoOut,
	}))
}
