package groundtruth

import (
	"fmt"
	"math"

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
// wrapped garbage. Each exported law goes through its row of Laws.

// fold returns op(…op(x(0), x(1))…, x(k−1)) over the chain's factors —
// every law whose state at a vertex is one value — naming the law when op
// overflows.
func fold[K any](fs []*Factor, law string, x func(d int, f *Factor) K, op func(acc, v K) (K, bool)) (K, error) {
	out := x(0, fs[0])
	for d := 1; d < len(fs); d++ {
		v, ok := op(out, x(d, fs[d]))
		if !ok {
			var zero K
			return zero, overflow(law, d)
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

func numVertices(fs []*Factor) (int64, error) {
	return fold(fs, "vertex count", func(_ int, f *Factor) int64 { return f.N() }, core.CheckedMul)
}

func numArcs(fs []*Factor) (int64, error) {
	return fold(fs, "arc count", func(_ int, f *Factor) int64 { return f.arcs }, core.CheckedMul)
}

// numEdges: arcs and loops both multiply across factors and
// m_C = (arcs + loops)/2.
func numEdges(fs []*Factor) (int64, error) {
	arcs, err := numArcs(fs)
	if err != nil {
		return 0, err
	}
	loops, err := fold(fs, "loop count", func(_ int, f *Factor) int64 { return f.loops }, core.CheckedMul)
	if err != nil {
		return 0, err
	}
	return loops + (arcs-loops)/2, nil // = (arcs + loops)/2, whose sum could overflow
}

// diameter is Cor. 3's max law over the factors' diameters; it never
// fails.
func diameter(fs []*Factor) (int64, error) {
	return fold(fs, "diameter", func(_ int, f *Factor) int64 { return f.Diam }, maxHops)
}

// hopsFrom sweeps each factor graph once from src's digit — no distance
// tier — and answers each dst in O(k) by Thm. 3's max law.
func hopsFrom(fs []*Factor, src []int64) func(dst []int64) int64 {
	rows := make([][]int64, len(fs))
	for d, f := range fs {
		rows[d] = f.hops(src[d])
	}
	return func(dst []int64) int64 {
		return value(fold(fs, "hops", func(d int, _ *Factor) int64 { return rows[d][dst[d]] }, maxHops))
	}
}

// hops is hopsFrom's value at one pair; it never fails.
func hops(fs []*Factor, src, dst []int64) (int64, error) { return hopsFrom(fs, src)(dst), nil }

// closenessAt is Thm. 4 in Sec. V-B's compressed form, at any k. By
// Thm. 3, hops(p,q) ≤ h exactly when every digit pair is within h, so
// with R_d digit c_d's cumulative hop profile, read off the hop row
// hopsFrom sweeps, and ε_d its last hop,
//
//	N(≤h) = Π_d R_d[min(h, ε_d)],   ζ_p = Σ_{h≥1} (N(≤h) − N(≤h−1))/h.
//
// An unreachable pair enters no profile, so a disconnected factor needs
// no special case. N(≤h) ≤ n_C fits an int64. Cost: a sweep a factor,
// then O(k·max ε).
func closenessAt(fs []*Factor, coords []int64) (float64, error) {
	profiles, top := make([][]int64, len(fs)), 0
	for d, f := range fs {
		profiles[d] = profile(f.hops(coords[d]))
		top = max(top, len(profiles[d])-1)
	}
	var s float64
	var prev int64 // N(≤0) = 0: hops are at least 1
	for h := 1; h <= top; h++ {
		n := int64(1)
		for _, r := range profiles {
			n *= r[min(h, len(r)-1)]
		}
		s += float64(n-prev) / float64(h)
		prev = n
	}
	return s, nil
}

// profile returns a hop row's cumulative profile: R[h] counts the row's
// finite entries ≤ h, the diagonal among them, up to its largest.
func profile(row []int64) []int64 {
	var top int64
	for _, h := range row {
		top = max(top, h)
	}
	r := make([]int64, top+1)
	for _, h := range row {
		if h != analytics.Unreachable {
			r[h]++
		}
	}
	for h := 1; h < len(r); h++ {
		r[h] += r[h-1]
	}
	return r
}

// vector is a law on product vertices: a per-factor vector v_d and the
// op that folds it across the chain. Its value at p = (c_1, …, c_k) folds
// v_1[c_1], …, v_k[c_k]; its histogram folds the factors' histograms
// under the same op.
type vector struct {
	name string
	vec  func(*Factor) []int64 // the factor's vector
	op   func(acc, v int64) (int64, bool)
}

var (
	degrees        = vector{"degree", func(f *Factor) []int64 { return f.Deg }, core.CheckedMul}
	triangles      = vector{"vertex triangle count", func(f *Factor) []int64 { return f.Tri.Vertex }, scaled(2)}
	eccentricities = vector{"eccentricity", func(f *Factor) []int64 { return f.Ecc }, maxHops}
)

func (l vector) at(fs []*Factor, coords []int64) (int64, error) {
	return fold(fs, l.name, func(d int, f *Factor) int64 { return l.vec(f)[coords[d]] }, l.op)
}

// hist returns the law's value → count histogram over all of C by
// folding the factors' histograms — no n_C-long vector, cost the product
// of the factors' distinct-value counts. Its counts sum to n_C, so it
// refuses a chain whose n_C overflows.
func (l vector) hist(fs []*Factor) (map[int64]int64, error) {
	return foldHistograms(fs, l.name+" histogram", func(f *Factor) map[int64]int64 {
		h := map[int64]int64{}
		for _, v := range l.vec(f) {
			h[v]++
		}
		return h
	}, l.op)
}

// histogramSteps, plus the factors' vertices and arcs, bounds each
// combine of a histogram fold: it costs |out|·|h_d| steps and may make as
// many keys, which for a law whose values do not collapse (the product
// for d and t, Cor. 1's step) is n_C itself once every value is distinct.
// A fold that would pass the bound is refused rather than built.
const histogramSteps = 1 << 20

// foldHistograms folds the factors' histograms, keyed by what the law's
// op takes of a digit, through combine.
func foldHistograms[K comparable](fs []*Factor, law string, h func(*Factor) map[K]int64, op func(x, y K) (K, bool)) (map[K]int64, error) {
	if _, err := numVertices(fs); err != nil {
		return nil, err
	}
	limit := int64(histogramSteps)
	for _, f := range fs {
		limit += f.N() + f.arcs
	}
	out := h(fs[0])
	for d := 1; d < len(fs); d++ {
		hd := h(fs[d])
		if steps, ok := core.CheckedMul(int64(len(out)), int64(len(hd))); !ok || steps > limit {
			return nil, fmt.Errorf("groundtruth: chain %s would combine %d×%d keys at factor %d, over the %d its factors allow", law, len(out), len(hd), d, limit)
		}
		if out = combine(out, hd, op); out == nil {
			return nil, overflow(law, d)
		}
	}
	return out, nil
}

// combine returns the value → count histogram of op(x, y) over all pairs
// of a value x counted in hx and a value y counted in hy — the one
// combine under every histogram law: the product for d, the scaled
// product for t, the max (Unreachable if either side is) for ε, and
// Cor. 1's step over a digit's (t, d) pair. It returns nil when op or a
// count overflows.
func combine[K comparable](hx, hy map[K]int64, op func(x, y K) (K, bool)) map[K]int64 {
	out := map[K]int64{}
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

// ChainEccentricities materializes ε_C for every product vertex — linear
// in n_C from sublinear factor storage, as the paper advertises — under
// Cor. 4's row.
func ChainEccentricities(fs []*Factor) ([]int64, error) {
	lawEccentricity.require(fs, nil, nil)
	dims := make([]int64, len(fs))
	for d, f := range fs {
		dims[d] = f.N()
	}
	ci, err := core.NewChainIndex(dims)
	if err != nil {
		return nil, err
	}
	out, coords := make([]int64, ci.NumVertices()), make([]int64, len(fs))
	for p := range out {
		out[p] = value(eccentricities.at(fs, ci.SplitInto(int64(p), coords)))
	}
	return out, nil
}
