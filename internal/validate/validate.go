// Package validate packages the paper's central use case — validating a
// graph system's output at scales where no trusted implementation exists
// — as a reusable check battery. Given the two factors and a claimed
// product graph (e.g. produced by the system under test), Run holds it to
// every law of the paper's Sec. I table: global counts, degrees at every
// vertex, triangles per vertex, per arc and in all, Thm. 1 clustering,
// hop distances, eccentricities and the diameter, community counts and
// densities under a Kronecker partition — and to Weichsel connectivity.
// Per-vertex and per-arc laws are sampled, or checked everywhere when
// the sample count covers them. Every check compares a Kronecker formula
// against a measurement on the claimed product, so a single wrong edge
// is overwhelmingly likely to trip at least one check; the law package
// states the laws, and this one is where they meet a product.
package validate

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

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
func (r *Report) OK() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

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
	// SelfLoops asserts the claimed product is (A+I) ⊗ (B+I) rather than
	// A ⊗ B; triangle checks then use the Cor. 1/2 formulas and distance
	// checks are enabled (their hypothesis requires the loops).
	SelfLoops bool
	// Samples is the number of random vertices (arcs) a per-vertex
	// (per-arc) check visits; at least the vertex (arc) count visits
	// every one, and the diameter is checked only then. Default 64.
	Samples int
	// Seed drives sample selection. A fixed default keeps reports
	// reproducible.
	Seed int64
	// PartitionA/PartitionB, when both non-nil, enable the Thm. 6
	// community checks over the full Kronecker partition.
	PartitionA, PartitionB [][]int64
	// SkipDistances disables the BFS-based hop/eccentricity spot checks
	// (which cost O(samples·(n_C+m_C))).
	SkipDistances bool
}

// run is one Run in progress: the report its checks add to and the draws
// its per-item checks sample with.
type run struct {
	rep     Report
	rng     *rand.Rand
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
	actual := "all match"
	for s := int64(0); s < k && actual == "all match"; s++ {
		i := s
		if k < n {
			i = r.rng.Int63n(n)
		}
		if msg := bad(i); msg != "" {
			actual = msg
		}
	}
	r.add(name+" ("+scope+")", law, "all match", actual)
}

// Run validates the claimed product c against loop-free factors a and b:
// every law of the paper's Sec. I table, each predicted from the factors
// and measured on c.
func Run(a, b, c *graph.Graph, opts Options) (*Report, error) {
	if a.NumSelfLoops() != 0 || b.NumSelfLoops() != 0 {
		return nil, fmt.Errorf("validate: input factors must be loop-free (SelfLoops adds the +I)")
	}
	pa, pb := opts.PartitionA, opts.PartitionB
	if pa != nil && pb != nil && !opts.SelfLoops {
		return nil, fmt.Errorf("validate: community checks require SelfLoops mode (Thm. 6 hypothesis)")
	}
	if opts.Samples <= 0 {
		opts.Samples = 64
	}
	r := &run{rng: rand.New(rand.NewSource(opts.Seed)), samples: int64(opts.Samples)}
	// law states a law for the claimed product: plain for A ⊗ B, looped
	// for (A+I) ⊗ (B+I).
	law := func(plain, looped string) string {
		if opts.SelfLoops {
			return looped
		}
		return plain
	}

	fa, fb := groundtruth.NewFactor(a), groundtruth.NewFactor(b)
	// fs is the chain the triangle laws take (loop-free factors, the
	// Cor. 1/2 forms add the loops), fe the chain of the claimed product
	// itself (its +I factors under SelfLoops, fs itself otherwise).
	fs := []*groundtruth.Factor{fa, fb}
	effA, effB, fe := a, b, fs
	if opts.SelfLoops {
		effA, effB = a.WithFullSelfLoops(), b.WithFullSelfLoops()
		fe = []*groundtruth.Factor{groundtruth.NewFactor(effA), groundtruth.NewFactor(effB)}
	}

	// Global counts.
	nC, errN := groundtruth.ChainNumVertices(fs)
	mC, errM := groundtruth.ChainNumEdges(fe)
	arcsWant, errA := groundtruth.ChainNumArcs(fe)
	if err := errors.Join(errN, errM, errA); err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	r.add("vertices", "n_C = n_A·n_B", nC, c.NumVertices())
	r.add("edges", law("m_C = 2·m_A·m_B", "m_C = (arcs_C + n_C)/2"), mC, c.NumEdges())
	r.add("arcs", law("arcs_C = arcs_A·arcs_B", "arcs_C = (arcs_A+n_A)·(arcs_B+n_B)"), arcsWant, c.NumArcs())
	if c.NumVertices() != nC {
		// Remaining checks index into c; bail out with what we have.
		return &r.rep, nil
	}
	ci := core.MustChainIndex(fa.N(), fb.N()) // n_C fits: checked above
	cp, cq := make([]int64, 2), make([]int64, 2)

	// Degrees, at every vertex: the check costs what counting them does.
	r.each("degree", law("d_C = d_A ⊗ d_B", "d_C = (d_A+1) ⊗ (d_B+1)"), "vertices", nC, nC, func(p int64) string {
		if want := groundtruth.ChainDegreeAt(fe, ci.SplitInto(p, cp)); c.Degree(p) != want {
			return fmt.Sprintf("d_%d: want %d, got %d", p, want, c.Degree(p))
		}
		return ""
	})

	// Triangles: per vertex, per arc, and in all.
	cTri := analytics.Triangles(c)
	vertexTriangles, edgeTriangles, globalTriangles := groundtruth.ChainVertexTrianglesAt, groundtruth.ChainEdgeTrianglesAt, groundtruth.ChainGlobalTriangles
	if opts.SelfLoops { // Cor. 1/2 take the loop-free fs and add the +I themselves
		vertexTriangles, edgeTriangles, globalTriangles = groundtruth.ChainVertexTrianglesFullLoopsAt, groundtruth.ChainEdgeTrianglesFullLoopsAt, groundtruth.ChainGlobalTrianglesFullLoops
	}
	r.each("vertex triangles", law("t_C = 2·t_A ⊗ t_B", "t_C by Cor. 1"), "vertices", nC, r.samples, func(p int64) string {
		want, err := vertexTriangles(fs, ci.SplitInto(p, cp))
		if err != nil {
			return err.Error()
		}
		if cTri.Vertex[p] != want {
			return fmt.Sprintf("t_%d: want %d, got %d", p, want, cTri.Vertex[p])
		}
		return ""
	})
	offsets := c.RowOffsets()
	r.each("edge triangles", law("Δ_C = Δ_A ⊗ Δ_B", "Δ_C by Cor. 2"), "arcs", c.NumArcs(), r.samples, func(x int64) string {
		u := int64(sort.Search(int(nC), func(v int) bool { return offsets[v+1] > x }))
		v := c.Neighbors(u)[x-offsets[u]]
		ci.SplitInto(u, cp)
		ci.SplitInto(v, cq)
		switch {
		case u == v:
			return "" // Cor. 2 counts the triangles of p ≠ q only
		case !effA.HasArc(cp[0], cq[0]) || !effB.HasArc(cp[1], cq[1]):
			return fmt.Sprintf("arc (%d,%d) is not in the product", u, v)
		}
		want, err := edgeTriangles(fs, cp, cq)
		if err != nil {
			return err.Error()
		}
		if cTri.Arc[x] != want {
			return fmt.Sprintf("Δ_(%d,%d): want %d, got %d", u, v, want, cTri.Arc[x])
		}
		return ""
	})
	wantTau, err := globalTriangles(fs)
	if err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	r.add("global triangles", law("τ_C = 6·τ_A·τ_B", "τ_C = Σ_p t_p/3 (Cor. 1)"), wantTau, cTri.Global)

	// Vertex clustering (Thm. 1), whose θ needs loop-free factors.
	if !opts.SelfLoops {
		cc := analytics.VertexClustering(c)
		eta := func(f *groundtruth.Factor, i int64) float64 {
			return 2 * float64(f.Tri.Vertex[i]) / float64(f.Deg[i]*(f.Deg[i]-1))
		}
		r.each("clustering", "η_C = θ·η_A·η_B ≥ ⅓·η_A·η_B", "vertices", nC, r.samples, func(p int64) string {
			want, err := groundtruth.ChainVertexClusteringAt(fs, ci.SplitInto(p, cp))
			if err != nil {
				return err.Error()
			}
			if math.IsNaN(want) {
				return "" // η is undefined below degree 2
			}
			if bound := eta(fa, cp[0]) * eta(fb, cp[1]) / 3; math.Abs(cc[p]-want) > 1e-9 || cc[p] < bound-1e-12 {
				return fmt.Sprintf("η_%d: want %.6g ≥ %.6g, got %.6g", p, want, bound, cc[p])
			}
			return ""
		})
	}

	// Hops and eccentricity (Thm. 3 / Cor. 4) need full self loops; the
	// diameter (Cor. 3) is the largest ε once every vertex is checked.
	if opts.SelfLoops && !opts.SkipDistances {
		fd := []*groundtruth.Factor{fe[0].WithDistances(), fe[1].WithDistances()}
		var diam int64
		r.each("hops+eccentricity", "hops_C = max{hops_A, hops_B}; ε_C = max{ε_A, ε_B}", "vertices", nC, r.samples, func(p int64) string {
			hopsFrom := groundtruth.ChainHopsFrom(fe, ci.SplitInto(p, cp))
			var ecc int64
			for q, h := range analytics.Hops(c, p) {
				if want := hopsFrom(ci.SplitInto(int64(q), cq)); h != want {
					return fmt.Sprintf("hops(%d,%d): want %d, got %d", p, q, want, h)
				}
				ecc = analytics.MaxHops(ecc, h)
			}
			if want := groundtruth.ChainEccentricityAt(fd, cp); ecc != want {
				return fmt.Sprintf("ε_%d: want %d, got %d", p, want, ecc)
			}
			diam = analytics.MaxHops(diam, ecc)
			return ""
		})
		if r.samples >= nC {
			r.add("diameter", "diam = max{diam_A, diam_B}", groundtruth.ChainDiameter(fd), diam)
		}
	}

	// Communities over the Kronecker partition: counts exact (Thm. 6),
	// densities within Cor. 6/7's bounds.
	if pa != nil && pb != nil {
		pc := core.KronPartition(pa, pb, fb.N())
		sets := fmt.Sprint(len(pc))
		if !analytics.IsPartition(c, pc) {
			sets = "not a partition of C"
		}
		r.add(fmt.Sprintf("communities (%d×%d)", len(pa), len(pb)), "|Π_C| = |Π_A|·|Π_B|", groundtruth.NumCommunities(pa, pb), sets)
		statsA, statsB := analytics.Communities(a, pa), analytics.Communities(b, pb)
		want := groundtruth.CommunitiesKron(fa, fb, pa, pb, statsA, statsB)
		got := analytics.Communities(c, pc)
		n := int64(len(pc))
		r.each("internal density", "m_in exact (Thm. 6); ρ_in ≥ ⅓·ρ_in·ρ_in (Cor. 6)", "communities", n, n, func(x int64) string {
			sa, sb := statsA[x/int64(len(pb))], statsB[x%int64(len(pb))]
			if w, g := want[x], got[x]; w.MIn != g.MIn || sa.Size > 1 && sb.Size > 1 && g.RhoIn < groundtruth.RhoInLowerBound(sa, sb)-1e-12 {
				return fmt.Sprintf("S_%d: m_in want %d, got %d; ρ_in %.6g ≥ %.6g", x, w.MIn, g.MIn, g.RhoIn, groundtruth.RhoInLowerBound(sa, sb))
			}
			return ""
		})
		r.each("external density", "m_out exact (Thm. 6); ρ_out ≤ (3+4ω)Ω·ρ_out·ρ_out (corrected Cor. 7)", "communities", n, n, func(x int64) string {
			sa, sb := statsA[x/int64(len(pb))], statsB[x%int64(len(pb))]
			// Cor. 7's hypothesis: m_out(S) ≥ |S| on both sides.
			bounded := sa.MOut >= sa.Size && sb.MOut >= sb.Size
			if w, g := want[x], got[x]; w.MOut != g.MOut || bounded && g.RhoOut > groundtruth.RhoOutUpperBound(fa, fb, sa, sb)+1e-12 {
				return fmt.Sprintf("S_%d: m_out want %d, got %d; ρ_out %.6g", x, w.MOut, g.MOut, g.RhoOut)
			}
			return ""
		})
	}

	// Connectivity (Weichsel, ref [1]), when both factors are connected
	// and have an edge.
	if wantComp, err := groundtruth.ProductComponents(effA, effB); err == nil {
		_, gotComp := c.ConnectedComponents()
		r.add("components (Weichsel)", "1, or 2 when both factors are bipartite", wantComp, gotComp)
	}
	return &r.rep, nil
}
