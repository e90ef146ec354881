// Package validate packages the paper's central use case — validating a
// graph system's output at scales where no trusted implementation exists
// — as a reusable check battery. Given a chain of factors and a claimed
// product graph (e.g. produced by the system under test), Run holds it to
// every row of groundtruth.Laws that describes the product, each against
// one measurement of its quantity on the product through
// internal/analytics, sampled or everywhere; to Weichsel connectivity;
// and to community counts under a Kronecker partition (with Cor. 6/7's
// density bounds for two factors). A single wrong edge is overwhelmingly
// likely to trip at least one check.
package validate

import (
	"fmt"
	"maps"
	"math"
	"math/rand"
	"sort"
	"strings"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
)

// Check is one named validation outcome: the law the claimed product is
// held to, its value predicted from the factors, and C's measured value.
type Check struct {
	Name     string
	Law      string
	Expected string
	Actual   string
	OK       bool
}

// Report is the outcome of a validation Run.
type Report struct {
	Checks []Check
}

// OK reports whether every check passed.
func (r *Report) OK() bool { return len(r.Failures()) == 0 }

// Failures returns the failed checks.
func (r *Report) Failures() []Check {
	var out []Check
	for _, c := range r.Checks {
		if !c.OK {
			out = append(out, c)
		}
	}
	return out
}

// String renders a human-readable summary.
func (r *Report) String() string {
	s := ""
	for _, c := range r.Checks {
		mark := "PASS"
		if !c.OK {
			mark = "FAIL"
		}
		s += fmt.Sprintf("%-4s %-40s expected %s, got %s\n", mark, c.Name, c.Expected, c.Actual)
	}
	return s
}

// Options configures a validation run.
type Options struct {
	// SelfLoops asserts the claimed product is ⊗(A_d+I) rather than ⊗A_d:
	// the rows that describe it are checked, Cor. 1/2's triangle laws and
	// the distance laws (whose hypothesis needs the loops) among them.
	SelfLoops bool
	// Samples is the number of random vertices (arcs) a per-vertex
	// (per-arc) check visits — the same ones for every check, so the
	// distance checks at a vertex share one sweep from it; at least the
	// vertex (arc) count visits every one, and the laws whose measurement
	// sweeps from every vertex (the diameter and the ε histogram) are
	// checked only then. Default 64.
	Samples int
	// Seed drives sample selection. A fixed default keeps reports
	// reproducible.
	Seed int64
	// Partitions, when non-nil, gives one partition per factor and enables
	// the Thm. 6 community checks over their Kronecker partition.
	Partitions [][][]int64
	// SkipDistances disables the BFS-based checks (hops, ε, the diameter,
	// closeness and the ε histogram), which cost O(samples·(n_C+m_C)).
	SkipDistances bool
}

// run is one Run in progress: the report its checks add to, and the
// seed every sampled check draws with — so every per-vertex check visits
// the same vertices, and the distance checks share one sweep from each.
type run struct {
	rep     Report
	seed    int64
	samples int64
}

func (r *run) add(name, law string, expected, actual any) {
	e, g := fmt.Sprint(expected), fmt.Sprint(actual)
	r.rep.Checks = append(r.rep.Checks, Check{name, law, e, g, e == g})
}

// each holds law at k of the n items a check covers — every one when
// k ≥ n, else k random draws — and stops at the first item bad describes
// (bad returns "" where the law holds).
func (r *run) each(name, law, noun string, n, k int64, bad func(i int64) string) {
	k = min(k, n)
	scope := fmt.Sprintf("%d sampled %s", k, noun)
	if k == n {
		scope = fmt.Sprintf("all %d %s", n, noun)
	}
	rng, actual := rand.New(rand.NewSource(r.seed)), "all match"
	for s := int64(0); s < k && actual == "all match"; s++ {
		i := s
		if k < n {
			i = rng.Int63n(n)
		}
		if msg := bad(i); msg != "" {
			actual = msg
		}
	}
	r.add(name+" ("+scope+")", law, "all match", actual)
}

// product is the claimed product c, with the analytics its measurements
// share computed on first use. One BFS row from a vertex gives its hops,
// ε and ζ, so each distance check reads the sweeps the others made.
type product struct {
	c       *graph.Graph
	tri     *analytics.TriangleStats
	eta, xi []float64
	ecc     map[int64]int64 // ε and ζ of each vertex a row was read from
	zeta    map[int64]float64
}

func newProduct(c *graph.Graph) *product {
	return &product{c: c, ecc: map[int64]int64{}, zeta: map[int64]float64{}}
}

func (m *product) triangles() *analytics.TriangleStats {
	if m.tri == nil {
		m.tri = analytics.Triangles(m.c)
	}
	return m.tri
}

// once returns *v, computing it from c on first use.
func (m *product) once(v *[]float64, of func(*graph.Graph) []float64) []float64 {
	if *v == nil {
		*v = of(m.c)
	}
	return *v
}

// hopsFrom returns c's hop row from p, noting p's ε and ζ.
func (m *product) hopsFrom(p int64) []int64 {
	row := analytics.Hops(m.c, p)
	m.ecc[p], m.zeta[p] = analytics.EccentricityOf(row), analytics.ClosenessOf(row)
	return row
}

// swept returns p once a row has been read from it.
func (m *product) swept(p int64) int64 {
	if _, ok := m.ecc[p]; !ok {
		m.hopsFrom(p)
	}
	return p
}

// eccentricities returns every vertex's ε.
func (m *product) eccentricities() []int64 {
	out := make([]int64, m.c.NumVertices())
	for p := range out {
		out[p] = m.ecc[m.swept(int64(p))]
	}
	return out
}

// item addresses what a law is measured at: vertex p, arc x from p to q,
// or, for a per-pair law, p: its measurement is the row to every q.
type item struct{ p, q, x int64 }

// measurements reads each law's quantity off the claimed product, by the
// law's name: the quantity is the same whichever product a row describes,
// so the Cor. 1 and loop-free vertex triangle rows share one. The
// distance laws — the rows that take full loops — read BFS sweeps.
var measurements = map[string]func(m *product, at item) any{
	"vertices":                  func(m *product, _ item) any { return m.c.NumVertices() },
	"edges":                     func(m *product, _ item) any { return m.c.NumEdges() },
	"arcs":                      func(m *product, _ item) any { return m.c.NumArcs() },
	"degree":                    func(m *product, at item) any { return m.c.Degree(at.p) },
	"degree histogram":          func(m *product, _ item) any { return histogram(m.c.Degrees()) },
	"vertex triangles":          func(m *product, at item) any { return m.triangles().Vertex[at.p] },
	"vertex triangle histogram": func(m *product, _ item) any { return histogram(m.triangles().Vertex) },
	"edge triangles":            func(m *product, at item) any { return m.triangles().Arc[at.x] },
	"global triangles":          func(m *product, _ item) any { return m.triangles().Global },
	"vertex clustering":         func(m *product, at item) any { return m.once(&m.eta, analytics.VertexClustering)[at.p] },
	"edge clustering":           func(m *product, at item) any { return m.once(&m.xi, analytics.EdgeClustering)[at.x] },
	"hops":                      func(m *product, at item) any { return m.hopsFrom(at.p) }, // the row to every q
	"eccentricity":              func(m *product, at item) any { return m.ecc[m.swept(at.p)] },
	"closeness":                 func(m *product, at item) any { return m.zeta[m.swept(at.p)] },
	"eccentricity histogram":    func(m *product, _ item) any { return histogram(m.eccentricities()) },
	"diameter":                  func(m *product, _ item) any { return analytics.DiameterOf(m.eccentricities()) },
}

func histogram(vs []int64) map[int64]int64 {
	h := map[int64]int64{}
	for _, v := range vs {
		h[v]++
	}
	return h
}

// mismatch describes what differs between a law's value at it and its
// measurement, or returns "": coefficients within 1e-9 (relative past 1),
// NaN where both are undefined; counts and hops exactly.
func mismatch(it item, pair bool, want, got any) string {
	w, wf := want.(float64)
	g, gf := got.(float64)
	switch {
	case wf && gf && (math.IsNaN(w) && math.IsNaN(g) || math.Abs(w-g) <= 1e-9*max(1, math.Abs(g))) || !wf && want == got:
		return ""
	case pair:
		return fmt.Sprintf("at (%d,%d): want %v, got %v", it.p, it.q, want, got)
	}
	return fmt.Sprintf("at %d: want %v, got %v", it.p, want, got)
}

// law holds the claimed product m.c, indexed by ci, to row l over the
// factors fs Bind gave: once for a global law or a histogram, at the
// sampled vertices, arcs or pairs of a local one.
func (r *run) law(l *groundtruth.Law, fs []*groundtruth.Factor, m *product, ci core.ChainIndex) {
	read := measurements[l.Name]
	n := m.c.NumVertices()
	cp, cq := make([]int64, len(fs)), make([]int64, len(fs))
	// at evaluates the law at (p, q) and compares it with the measurement.
	at := func(it item, p, q []int64) string {
		want, err := l.Eval(fs, p, q)
		if err != nil {
			return err.Error()
		}
		return mismatch(it, q != nil, want, read(m, it))
	}
	switch l.Shape {
	case groundtruth.Global:
		want, err := l.Eval(fs, nil, nil)
		if err != nil {
			want = err
		}
		r.add(l.Name, l.Formula, want, read(m, item{}))
	case groundtruth.PerVertex:
		r.each(l.Name, l.Formula, "vertices", n, r.samples, func(p int64) string {
			return at(item{p: p}, ci.SplitInto(p, cp), nil)
		})
	case groundtruth.PerArc: // a law of non-loop arcs: the i-th of them, at most one loop a row
		offsets, before := m.c.RowOffsets(), make([]int64, n+1) // before[u]: non-loop arcs in rows < u
		for u := int64(0); u < n; u++ {
			before[u+1] = before[u] + m.c.Degree(u)
			if m.c.HasSelfLoop(u) {
				before[u+1]--
			}
		}
		r.each(l.Name, l.Formula, "arcs", before[n], r.samples, func(i int64) string {
			u := int64(sort.Search(int(n), func(v int) bool { return before[v+1] > i }))
			x := offsets[u] + i - before[u]
			if loop := m.c.ArcIndex(u, u); loop >= 0 && x >= loop {
				x++
			}
			v := m.c.Neighbors(u)[x-offsets[u]]
			return at(item{p: u, q: v, x: x}, ci.SplitInto(u, cp), ci.SplitInto(v, cq))
		})
	case groundtruth.PerPair: // from each sampled p to every q, q's digits stepped as an odometer
		dims := ci.Dims()
		r.each(l.Name, l.Formula, "vertices", n, r.samples, func(p int64) string {
			from, err := l.From(fs, ci.SplitInto(p, cp))
			if err != nil {
				return err.Error()
			}
			clear(cq)
			for q, got := range read(m, item{p: p}).([]int64) {
				if want := from(cq); want != got {
					return fmt.Sprintf("at (%d,%d): want %d, got %d", p, q, want, got)
				}
				for d := len(cq) - 1; d >= 0; d-- {
					if cq[d]++; cq[d] < dims[d] {
						break
					}
					cq[d] = 0
				}
			}
			return ""
		})
	case groundtruth.Histogram:
		want, err := l.Eval(fs, nil, nil)
		got := read(m, item{}).(map[int64]int64)
		actual := "all match"
		if w, _ := want.(map[int64]int64); err != nil || !maps.Equal(w, got) {
			actual = fmt.Sprintf("want %v (%v), got %v", want, err, got)
		}
		r.add(fmt.Sprintf("%s (all %d values)", l.Name, len(got)), l.Formula, "all match", actual)
	}
}

// summaries is Run's Source of factor summaries; tests count what it
// builds.
var summaries = groundtruth.Summaries

// Run validates the claimed product c against the chain of loop-free
// factors gs: every row of groundtruth.Laws that describes ⊗A_d — or
// ⊗(A_d+I) under SelfLoops — predicted from the factors and measured on
// c; Weichsel connectivity; and, under SelfLoops with Partitions, the
// community counts of Thm. 6 folded over the chain, with Cor. 6/7's
// density bounds for two factors, the pair the paper states them for.
func Run(gs []*graph.Graph, c *graph.Graph, opts Options) (*Report, error) {
	for d, g := range gs {
		if g.NumSelfLoops() != 0 {
			return nil, fmt.Errorf("validate: input factors must be loop-free (SelfLoops adds the +I); factor %d has %d", d, g.NumSelfLoops())
		}
	}
	parts := opts.Partitions
	if parts != nil && (len(parts) != len(gs) || !opts.SelfLoops) {
		return nil, fmt.Errorf("validate: community checks need one partition per factor (%d for %d) and SelfLoops mode (Thm. 6 hypothesis)", len(parts), len(gs))
	}
	if opts.Samples <= 0 {
		opts.Samples = 64
	}
	r := &run{seed: opts.Seed, samples: int64(opts.Samples)}
	dims := make([]int64, len(gs))
	for d, g := range gs {
		dims[d] = g.NumVertices()
	}
	ci, err := core.NewChainIndex(dims)
	if err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	nC := ci.NumVertices()
	src := summaries(gs)
	m := newProduct(c)
	for _, l := range groundtruth.Laws {
		// The distance laws' global and histogram values read every
		// vertex's sweep: they are checked only when the sample covers C.
		// A row left out is not bound, so it builds no summary.
		whole := l.Shape == groundtruth.Global || l.Shape == groundtruth.Histogram
		if c.NumVertices() != nC && l.Shape != groundtruth.Global || // the rest index into c
			l.Takes == groundtruth.FullLoops && (opts.SkipDistances || whole && r.samples < nC) {
			continue
		}
		fs, err := l.Bind(gs, opts.SelfLoops, src)
		if err != nil {
			continue // the row describes another product
		}
		r.law(l, fs, m, ci)
	}
	if c.NumVertices() != nC {
		return &r.rep, nil
	}
	if parts != nil {
		r.communities(gs, parts, dims, c)
	}
	// Connectivity (Weichsel, ref [1]) of the product's own factors, when
	// each is connected and has an edge.
	components := groundtruth.ProductComponents
	if opts.SelfLoops {
		components = groundtruth.ProductComponentsPlusI
	}
	if wantComp, err := components(gs); err == nil {
		_, gotComp := c.ConnectedComponents()
		law := "1, or 2 when both factors are bipartite"
		if len(gs) != 2 {
			law = "2^max(b−1, 0) for b bipartite factors"
		}
		r.add("components (Weichsel)", law, wantComp, gotComp)
	}
	return &r.rep, nil
}

// communities holds c = ⊗(A_d+I) to the Kronecker partition of the
// factors' partitions parts: counts exact (Thm. 6 folded over the
// chain), and for two factors densities within Cor. 6/7's bounds.
func (r *run) communities(gs []*graph.Graph, parts [][][]int64, dims []int64, c *graph.Graph) {
	pc := core.KronPartition(parts, dims)
	sets := fmt.Sprint(len(pc))
	if !analytics.IsPartition(c, pc) {
		sets = "not a partition of C"
	}
	sizes := make([]string, len(parts))
	stats := make([][]analytics.CommunityStats, len(parts))
	for d, p := range parts {
		sizes[d], stats[d] = fmt.Sprint(len(p)), analytics.Communities(gs[d], p)
	}
	r.add(fmt.Sprintf("communities (%s)", strings.Join(sizes, "×")), "|Π_C| = |Π_A|·|Π_B|", groundtruth.NumCommunities(parts), sets)
	want, err := groundtruth.CommunitiesKron(gs, stats)
	if err != nil {
		r.add("community counts", "Thm. 6", err, "")
		return
	}
	got := analytics.Communities(c, pc)
	n, k := int64(len(pc)), len(gs)
	// Cor. 6/7 bound a pair's densities by its factor communities': S_x's
	// first and last.
	ends := func(x int64) (analytics.CommunityStats, analytics.CommunityStats) {
		return stats[0][x*int64(len(stats[0]))/n], stats[k-1][x%int64(len(stats[k-1]))]
	}
	inLaw, outLaw := "m_in exact (Thm. 6)", "m_out exact (Thm. 6)"
	if k == 2 {
		inLaw += "; ρ_in ≥ ⅓·ρ_in·ρ_in (Cor. 6)"
		outLaw += "; ρ_out ≤ (3+4ω)Ω·ρ_out·ρ_out (corrected Cor. 7)"
	}
	r.each("internal density", inLaw, "communities", n, n, func(x int64) string {
		w, g := want[x], got[x]
		if sa, sb := ends(x); w.MIn != g.MIn || k == 2 && sa.Size > 1 && sb.Size > 1 && g.RhoIn < groundtruth.RhoInLowerBound(sa, sb)-1e-12 {
			return fmt.Sprintf("S_%d: m_in want %d, got %d; ρ_in %.6g", x, w.MIn, g.MIn, g.RhoIn)
		}
		return ""
	})
	r.each("external density", outLaw, "communities", n, n, func(x int64) string {
		w, g := want[x], got[x]
		// Cor. 7's hypothesis: m_out(S) ≥ |S| on both sides.
		if sa, sb := ends(x); w.MOut != g.MOut || k == 2 && sa.MOut >= sa.Size && sb.MOut >= sb.Size && g.RhoOut > groundtruth.RhoOutUpperBound(gs[0], gs[1], sa, sb)+1e-12 {
			return fmt.Sprintf("S_%d: m_out want %d, got %d; ρ_out %.6g", x, w.MOut, g.MOut, g.RhoOut)
		}
		return ""
	})
}
