package groundtruth

import (
	"fmt"
	"math"
	"slices"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
)

// Ground-truth laws for factor chains C = A₁⊗A₂⊗…⊗Aₖ, obtained from the
// paper's two-factor laws by induction over the chain. These are the only
// bodies of the laws: the paper's C = A⊗B is the chain []*Factor{a, b},
// addressed by core.ChainIndex coordinates, and a Kronecker power A^{⊗k}
// is the chain of k copies of one Factor (the same pointer k times;
// nothing is recomputed). Counting laws return explicit errors on int64
// overflow (a chain a handful of factors deep overflows easily) so
// callers plan against real numbers or refuse loudly — never against
// wrapped garbage.

// fold returns op(…op(x(0), x(1))…, x(k−1)) over the chain's factors —
// every law whose state is one number — naming the law when op overflows.
func fold(fs []*Factor, law string, x func(d int, f *Factor) int64, op func(acc, v int64) (int64, bool)) (int64, error) {
	out := x(0, fs[0])
	for d := 1; d < len(fs); d++ {
		v, ok := op(out, x(d, fs[d]))
		if !ok {
			return 0, overflow(law, d)
		}
		out = v
	}
	return out, nil
}

func overflow(law string, d int) error {
	return fmt.Errorf("groundtruth: chain %s overflows int64 at factor %d", law, d)
}

// scaled returns the checked op acc·v·c: t_C = 2·t_A⊗t_B and
// τ_C = 6·τ_A·τ_B fold with c = 2 and c = 6.
func scaled(c int64) func(acc, v int64) (int64, bool) {
	return func(acc, v int64) (int64, bool) {
		p, ok := core.CheckedMul(acc, v)
		if ok {
			p, ok = core.CheckedMul(p, c)
		}
		return p, ok
	}
}

// maxHops is Thm. 3's max law as a fold op; it never fails.
func maxHops(a, b int64) (int64, bool) { return analytics.MaxHops(a, b), true }

// ChainNumVertices returns n_C = Π n_d, checked.
func ChainNumVertices(fs []*Factor) (int64, error) {
	return fold(fs, "vertex count", func(_ int, f *Factor) int64 { return f.N() }, core.CheckedMul)
}

// ChainNumArcs returns the arc count of the chain product, Π arcs_d,
// checked.
func ChainNumArcs(fs []*Factor) (int64, error) {
	return fold(fs, "arc count", func(_ int, f *Factor) int64 { return f.G.NumArcs() }, core.CheckedMul)
}

// ChainNumEdges returns the undirected edge count of the chain product,
// checked: arcs and loops both multiply across factors and
// m_C = (arcs + loops)/2. For loop-free factors this reduces to the
// paper's m_C = 2^{k−1}·Π m_d.
func ChainNumEdges(fs []*Factor) (int64, error) {
	arcs, err := ChainNumArcs(fs)
	if err != nil {
		return 0, err
	}
	loops, err := fold(fs, "loop count", func(_ int, f *Factor) int64 { return f.G.NumSelfLoops() }, core.CheckedMul)
	if err != nil {
		return 0, err
	}
	return loops + (arcs-loops)/2, nil // = (arcs + loops)/2, whose sum could overflow
}

// ChainGlobalTriangles returns τ_C = 6^{k−1}·Π τ_d for loop-free factors
// (induction on τ_C = 6·τ_A·τ_B), checked.
func ChainGlobalTriangles(fs []*Factor) (int64, error) {
	requireLoopFree(fs, "τ_C = 6^{k−1}·Π τ_d")
	return fold(fs, "triangle count", func(_ int, f *Factor) int64 { return f.Tri.Global }, scaled(6))
}

// ChainDiameter returns diam(C) = max_d diam(A_d) for full-self-loop
// factors (Cor. 3 by induction); Unreachable if any factor is
// disconnected.
func ChainDiameter(fs []*Factor) int64 {
	diam, _ := fold(fs, "diameter", func(_ int, f *Factor) int64 { return f.distances("diameter").Diam }, maxHops)
	return diam // maxHops never fails
}

// ChainHopsFrom returns hops from product vertex src, given its
// coordinates, to any dst (Thm. 3 by induction):
// max_d hops_d(src[d], dst[d]), Unreachable if any digit pair is. It runs
// one sweep per factor over the factor graph — no distance tier — and
// then answers each dst in O(k).
func ChainHopsFrom(fs []*Factor, src []int64) func(dst []int64) int64 {
	rows := make([][]int64, len(fs))
	for d, f := range fs {
		rows[d] = analytics.Hops(f.G, src[d])
	}
	return func(dst []int64) int64 {
		h, _ := fold(fs, "hops", func(d int, _ *Factor) int64 { return rows[d][dst[d]] }, maxHops)
		return h // maxHops never fails
	}
}

// ChainClosenessAt returns ζ_p = Σ_q 1/hops(p,q) over reachable q for
// full-self-loop factors: Thm. 4 in Sec. V-B's compressed form, at any k.
// By Thm. 3, hops(p,q) ≤ h exactly when every digit pair is within h, so
// with R_d the factors' hop profiles, ε a profile's last hop,
//
//	N(≤h) = Π_d R_d[c_d][min(h, ε)],   ζ_p = Σ_{h≥1} (N(≤h) − N(≤h−1))/h.
//
// An unreachable pair enters no profile, so a disconnected factor needs
// no special case. N(≤h) ≤ n_C fits an int64. Cost O(k·max ε).
func ChainClosenessAt(fs []*Factor, coords []int64) float64 {
	top := 0
	for d, f := range fs {
		f.RequireFullSelfLoops("Thm. 4")
		top = max(top, len(f.distances("closeness").Profile[coords[d]])-1)
	}
	var s float64
	var prev int64 // N(≤0) = 0: hops are at least 1
	for h := 1; h <= top; h++ {
		n := int64(1)
		for d, f := range fs {
			r := f.Profile[coords[d]]
			n *= r[min(h, len(r)-1)]
		}
		s += float64(n-prev) / float64(h)
		prev = n
	}
	return s
}

// vertexLaw is a law on product vertices: a per-factor vector v_d and the
// op that folds it across the chain. Its value at p = (c_1, …, c_k) folds
// v_1[c_1], …, v_k[c_k]; its vector over all of C folds whole vectors,
// v_1 ⊗_op v_2 ⊗_op … ⊗_op v_k, in ChainIndex order; its histogram
// folds the factors' histograms under the same op.
type vertexLaw struct {
	name    string
	require func(*Factor)                 // the law's hypothesis, checked before any factor is read
	vec     func(*Factor, string) []int64 // the factor's vector, read for the named use
	op      func(acc, v int64) (int64, bool)
}

var (
	degreeLaw = vertexLaw{"degree", func(*Factor) {},
		func(f *Factor, _ string) []int64 { return f.Deg }, core.CheckedMul}
	triangleLaw = vertexLaw{"vertex triangle count",
		func(f *Factor) { f.RequireNoSelfLoops("t_C = 2^{k−1}·⊗t_d") },
		func(f *Factor, _ string) []int64 { return f.Tri.Vertex }, scaled(2)}
	eccentricityLaw = vertexLaw{"eccentricity",
		func(f *Factor) { f.RequireFullSelfLoops("Cor. 4") },
		func(f *Factor, use string) []int64 { return f.distances(use).Ecc }, maxHops}
)

func (l vertexLaw) check(fs []*Factor) {
	for _, f := range fs {
		l.require(f)
	}
}

func (l vertexLaw) at(fs []*Factor, coords []int64) (int64, error) {
	l.check(fs)
	return fold(fs, l.name, func(d int, f *Factor) int64 { return l.vec(f, l.name)[coords[d]] }, l.op)
}

// all materializes the law at every product vertex — linear in n_C from
// the factors' vectors.
func (l vertexLaw) all(fs []*Factor) ([]int64, error) {
	if _, err := ChainNumVertices(fs); err != nil {
		return nil, err
	}
	l.check(fs)
	out := slices.Clone(l.vec(fs[0], l.name))
	for d := 1; d < len(fs); d++ {
		v := l.vec(fs[d], l.name)
		next := make([]int64, 0, len(out)*len(v))
		for _, x := range out {
			for _, y := range v {
				z, ok := l.op(x, y)
				if !ok {
					return nil, overflow(l.name, d)
				}
				next = append(next, z)
			}
		}
		out = next
	}
	return out, nil
}

// hist returns the law's value → count histogram over all of C by
// folding the factors' histograms — no n_C-long vector, cost the product
// of the factors' distinct-value counts. Its counts sum to n_C, so it
// refuses a chain whose n_C overflows.
func (l vertexLaw) hist(fs []*Factor) (map[int64]int64, error) {
	if _, err := ChainNumVertices(fs); err != nil {
		return nil, err
	}
	l.check(fs)
	var out map[int64]int64
	for d, f := range fs {
		h := map[int64]int64{}
		for _, v := range l.vec(f, l.name+" histogram") {
			h[v]++
		}
		if d == 0 {
			out = h
		} else if out = combine(out, h, l.op); out == nil {
			return nil, overflow(l.name+" histogram", d)
		}
	}
	return out, nil
}

// combine returns the value → count histogram of op(x, y) over all pairs
// of a value x counted in hx and a value y counted in hy — the one
// combine under every vertex law's histogram: the product for d, the
// scaled product for t, the max (Unreachable if either side is) for ε.
// It returns nil when op or a count overflows.
func combine(hx, hy map[int64]int64, op func(x, y int64) (int64, bool)) map[int64]int64 {
	out := map[int64]int64{}
	for x, cx := range hx {
		for y, cy := range hy {
			v, okV := op(x, y)
			c, okC := core.CheckedMul(cx, cy)
			if !okV || !okC || out[v] > math.MaxInt64-c {
				return nil
			}
			out[v] += c
		}
	}
	return out
}

// ChainDegreeAt returns d_p = Π_d d_{coords[d]} — the degree law
// composes across any chain because d_C = d_A ⊗ d_B composes. Over the
// +I factors it is the degree of ⊗(A_d+I), (d_i + 1)·(d_k + 1) for two
// factors. A degree never exceeds n_C, which the ChainIndex the
// coordinates came from holds in an int64, so the product cannot
// overflow.
func ChainDegreeAt(fs []*Factor, coords []int64) int64 {
	d, _ := degreeLaw.at(fs, coords)
	return d
}

// ChainDegreeHistogram returns the histogram of d_C = ⊗ d_d, checked.
func ChainDegreeHistogram(fs []*Factor) (map[int64]int64, error) { return degreeLaw.hist(fs) }

// ChainVertexTrianglesAt returns t_p = 2^{k−1}·Π_d t_{coords[d]} for
// loop-free factors (induction on t_C = 2·t_A⊗t_B), checked.
func ChainVertexTrianglesAt(fs []*Factor, coords []int64) (int64, error) {
	return triangleLaw.at(fs, coords)
}

// ChainVertexTriangleHistogram returns the histogram of
// t_C = 2^{k−1}·⊗ t_d for loop-free factors, checked.
func ChainVertexTriangleHistogram(fs []*Factor) (map[int64]int64, error) {
	return triangleLaw.hist(fs)
}

// ChainEccentricityAt returns ε_p = max_d ε_{coords[d]} for factors with
// full self loops (Cor. 4 by induction). Unreachable if any factor's
// vertex is in a disconnected component.
func ChainEccentricityAt(fs []*Factor, coords []int64) int64 {
	e, _ := eccentricityLaw.at(fs, coords) // maxHops never fails
	return e
}

// ChainEccentricities materializes ε_C for every product vertex — linear
// in n_C from sublinear factor storage, as the paper advertises.
func ChainEccentricities(fs []*Factor) ([]int64, error) { return eccentricityLaw.all(fs) }

// ChainEccentricityHistogram returns the ε histogram of the chain
// product by folding the factors' ε histograms under the max law — Fig. 1
// for heterogeneous chains without materializing anything. Cost is
// O(k·diam²) after factor eccentricities. Its counts sum to n_C, so it
// refuses a chain whose n_C overflows.
func ChainEccentricityHistogram(fs []*Factor) (map[int64]int64, error) {
	return eccentricityLaw.hist(fs)
}

// ChainCoordsOf returns the mixed-radix coordinates of product vertex p.
func ChainCoordsOf(fs []*Factor, p int64) ([]int64, error) {
	dims := make([]int64, len(fs))
	for d, f := range fs {
		dims[d] = f.N()
	}
	ci, err := core.NewChainIndex(dims)
	if err != nil {
		return nil, err
	}
	return ci.Split(p), nil
}
