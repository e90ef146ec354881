// Package validate packages the paper's central use case — validating a
// graph system's output at scales where no trusted implementation exists
// — as a reusable check battery. Given the two factors and a claimed
// product graph (e.g. produced by the system under test), Run executes a
// configurable set of ground-truth checks: global counts, degree
// histogram, sampled per-vertex triangle counts, sampled hop distances
// and eccentricities, community counts under a Kronecker partition, and
// Weichsel connectivity. Every check compares a Kronecker formula against
// a measurement on the claimed product, so a single wrong edge is
// overwhelmingly likely to trip at least one check.
package validate

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
	"kronlab/internal/graph"
	"kronlab/internal/groundtruth"
)

// Check is one named validation outcome.
type Check struct {
	Name     string
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
		s += fmt.Sprintf("%-4s %-28s expected %s, got %s\n", mark, c.Name, c.Expected, c.Actual)
	}
	return s
}

// Options configures a validation run.
type Options struct {
	// SelfLoops asserts the claimed product is (A+I) ⊗ (B+I) rather than
	// A ⊗ B; triangle checks then use the Cor. 1 formulas and distance
	// checks are enabled (their hypothesis requires the loops).
	SelfLoops bool
	// Samples is the number of random vertices (and vertex pairs) to
	// spot-check for per-vertex/per-pair quantities. Default 64.
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

// Run validates the claimed product c against factors a and b.
func Run(a, b, c *graph.Graph, opts Options) (*Report, error) {
	if opts.Samples <= 0 {
		opts.Samples = 64
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	rep := &Report{}
	add := func(name string, expected, actual any) {
		e, g := fmt.Sprint(expected), fmt.Sprint(actual)
		rep.Checks = append(rep.Checks, Check{name, e, g, e == g})
	}

	fa, fb := groundtruth.NewFactor(a), groundtruth.NewFactor(b)
	// fs is the chain the triangle laws take (loop-free factors, the
	// Cor. 1 forms add the loops), fe the chain of the claimed product
	// itself (its +I factors under SelfLoops, fs itself otherwise).
	fs := []*groundtruth.Factor{fa, fb}
	effA, effB, fe := a, b, fs
	if opts.SelfLoops {
		if a.NumSelfLoops() != 0 || b.NumSelfLoops() != 0 {
			return nil, fmt.Errorf("validate: SelfLoops mode needs loop-free input factors")
		}
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
	add("vertices", nC, c.NumVertices())
	add("edges", mC, c.NumEdges())
	add("arcs", arcsWant, c.NumArcs())
	if c.NumVertices() != nC {
		// Remaining checks index into c; bail out with what we have.
		return rep, nil
	}
	ci := core.MustChainIndex(fa.N(), fb.N()) // n_C fits: checked above

	// Degree histogram: d_C = d_A ⊗ d_B exactly.
	wantDegs, err := groundtruth.ChainDegrees(fe)
	if err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	add("degree histogram", histString(wantDegs), histString(c.Degrees()))

	// Global triangles.
	var wantTau int64
	if opts.SelfLoops {
		wantTau = groundtruth.GlobalTrianglesFullLoops(fa, fb)
	} else if wantTau, err = groundtruth.ChainGlobalTriangles(fs); err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	cTri := analytics.Triangles(c)
	add("global triangles", wantTau, cTri.Global)

	// Sampled per-vertex triangle counts.
	triOK := true
	var firstBad string
	for s := 0; s < opts.Samples; s++ {
		p := rng.Int63n(c.NumVertices())
		var want int64
		if opts.SelfLoops {
			want = groundtruth.VertexTrianglesFullLoopsAt(fa, fb, p)
		} else if want, err = groundtruth.ChainVertexTrianglesAt(fs, ci.Split(p)); err != nil {
			return nil, fmt.Errorf("validate: %w", err)
		}
		if cTri.Vertex[p] != want {
			triOK = false
			firstBad = fmt.Sprintf("t_%d: want %d, got %d", p, want, cTri.Vertex[p])
			break
		}
	}
	actual := "all match"
	if !triOK {
		actual = firstBad
	}
	rep.Checks = append(rep.Checks, Check{
		fmt.Sprintf("vertex triangles (%d samples)", opts.Samples), "all match", actual, triOK})

	// Connectivity (Weichsel, ref [1]), when both factors are connected
	// and have an edge.
	if wantComp, err := groundtruth.ProductComponents(effA, effB); err == nil {
		_, gotComp := c.ConnectedComponents()
		add("components (Weichsel)", wantComp, gotComp)
	}

	// Distance spot checks (Thm. 3 / Cor. 4) need full self loops.
	if opts.SelfLoops && !opts.SkipDistances {
		fd := []*groundtruth.Factor{fe[0].WithDistances(), fe[1].WithDistances()}
		distOK := true
		var bad string
		for s := 0; s < opts.Samples; s++ {
			p := rng.Int63n(c.NumVertices())
			hops := analytics.Hops(c, p)
			q := rng.Int63n(c.NumVertices())
			if want := groundtruth.ChainHopsAt(fd, ci.Split(p), ci.Split(q)); hops[q] != want {
				distOK = false
				bad = fmt.Sprintf("hops(%d,%d): want %d, got %d", p, q, want, hops[q])
				break
			}
			// ε(p) is the largest hop from p, Unreachable if any is.
			var ecc int64
			for _, h := range hops {
				if h == analytics.Unreachable {
					ecc = analytics.Unreachable
					break
				}
				ecc = max(ecc, h)
			}
			if want := groundtruth.ChainEccentricityAt(fd, ci.Split(p)); ecc != want {
				distOK = false
				bad = fmt.Sprintf("ecc(%d): want %d, got %d", p, want, ecc)
				break
			}
		}
		actual = "all match"
		if !distOK {
			actual = bad
		}
		rep.Checks = append(rep.Checks, Check{
			fmt.Sprintf("hops+eccentricity (%d samples)", opts.Samples), "all match", actual, distOK})
	}

	// Community checks over the Kronecker partition (Thm. 6).
	if opts.PartitionA != nil && opts.PartitionB != nil {
		if !opts.SelfLoops {
			return nil, fmt.Errorf("validate: community checks require SelfLoops mode (Thm. 6 hypothesis)")
		}
		statsA := analytics.Communities(a, opts.PartitionA)
		statsB := analytics.Communities(b, opts.PartitionB)
		commOK := true
		var bad string
		for ai := range opts.PartitionA {
			for bi := range opts.PartitionB {
				pred := groundtruth.CommunityKron(fa, fb, statsA[ai], statsB[bi])
				sc := core.KronSet(opts.PartitionA[ai], opts.PartitionB[bi], fb.N())
				meas := analytics.Community(c, sc)
				if pred.MIn != meas.MIn || pred.MOut != meas.MOut {
					commOK = false
					bad = fmt.Sprintf("community (%d,%d): want (%d,%d), got (%d,%d)",
						ai, bi, pred.MIn, pred.MOut, meas.MIn, meas.MOut)
				}
			}
		}
		actual = "all match"
		if !commOK {
			actual = bad
		}
		rep.Checks = append(rep.Checks, Check{
			fmt.Sprintf("communities (%d×%d)", len(opts.PartitionA), len(opts.PartitionB)),
			"all match", actual, commOK})
	}
	return rep, nil
}

// histString renders the value histogram of vs deterministically for
// comparison.
func histString(vs []int64) string {
	h := map[int64]int64{}
	for _, v := range vs {
		h[v]++
	}
	keys := make([]int64, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	s := ""
	for _, k := range keys {
		s += fmt.Sprintf("%d:%d ", k, h[k])
	}
	return s
}
