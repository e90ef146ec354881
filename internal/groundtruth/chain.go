package groundtruth

import (
	"fmt"

	"kronlab/internal/analytics"
	"kronlab/internal/core"
)

// Ground-truth laws for heterogeneous factor chains C = A₁⊗A₂⊗…⊗Aₖ,
// obtained from the paper's two-factor laws by induction over the chain.
// A Kronecker power A^{⊗k} is the chain of k copies of one Factor (the
// same pointer k times; nothing is recomputed). Counting laws return
// explicit errors on int64 overflow (a chain a handful of factors deep
// overflows easily) so callers plan against real numbers or refuse
// loudly — never against wrapped garbage.

// ChainNumVertices returns n_C = Π n_d, checked.
func ChainNumVertices(fs []*Factor) (int64, error) {
	out := int64(1)
	for d, f := range fs {
		p, ok := core.CheckedMul(out, f.N())
		if !ok {
			return 0, fmt.Errorf("groundtruth: chain vertex count overflows int64 at factor %d", d)
		}
		out = p
	}
	return out, nil
}

// ChainNumArcs returns the arc count of the chain product, Π arcs_d,
// checked.
func ChainNumArcs(fs []*Factor) (int64, error) {
	out := int64(1)
	for d, f := range fs {
		p, ok := core.CheckedMul(out, f.G.NumArcs())
		if !ok {
			return 0, fmt.Errorf("groundtruth: chain arc count overflows int64 at factor %d", d)
		}
		out = p
	}
	return out, nil
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
	loops := int64(1)
	for d, f := range fs {
		p, ok := core.CheckedMul(loops, f.G.NumSelfLoops())
		if !ok {
			return 0, fmt.Errorf("groundtruth: chain loop count overflows int64 at factor %d", d)
		}
		loops = p
	}
	return (arcs + loops) / 2, nil
}

// ChainDegreeAt returns d_p = Π_d d_{coords[d]} — the degree law
// composes across any chain because d_C = d_A ⊗ d_B composes.
func ChainDegreeAt(fs []*Factor, coords []int64) int64 {
	out := int64(1)
	for d, f := range fs {
		out *= f.Deg[coords[d]]
	}
	return out
}

// ChainVertexTrianglesAt returns t_p = 2^{k−1}·Π_d t_{coords[d]} for
// loop-free factors (induction on t_C = 2·t_A⊗t_B).
func ChainVertexTrianglesAt(fs []*Factor, coords []int64) int64 {
	out := fs[0].Tri.Vertex[coords[0]]
	for d, f := range fs[1:] {
		out *= 2 * f.Tri.Vertex[coords[d+1]]
	}
	return out
}

// ChainGlobalTriangles returns τ_C = 6^{k−1}·Π τ_d for loop-free factors
// (induction on τ_C = 6·τ_A·τ_B), checked.
func ChainGlobalTriangles(fs []*Factor) (int64, error) {
	out := fs[0].Tri.Global
	for d, f := range fs[1:] {
		six, ok := core.CheckedMul(6, f.Tri.Global)
		if !ok {
			return 0, fmt.Errorf("groundtruth: chain triangle count overflows int64 at factor %d", d+1)
		}
		p, ok := core.CheckedMul(out, six)
		if !ok {
			return 0, fmt.Errorf("groundtruth: chain triangle count overflows int64 at factor %d", d+1)
		}
		out = p
	}
	return out, nil
}

// ChainEccentricityAt returns ε_p = max_d ε_{coords[d]} for factors with
// full self loops (Cor. 4 by induction). Unreachable if any factor's
// vertex is in a disconnected component.
func ChainEccentricityAt(fs []*Factor, coords []int64) int64 {
	out := int64(0)
	for d, f := range fs {
		f.EnsureDistances()
		e := f.Ecc[coords[d]]
		if e == analytics.Unreachable {
			return analytics.Unreachable
		}
		if e > out {
			out = e
		}
	}
	return out
}

// ChainDiameter returns diam(C) = max_d diam(A_d) for full-self-loop
// factors (Cor. 3 by induction).
func ChainDiameter(fs []*Factor) int64 {
	out := int64(0)
	for _, f := range fs {
		f.EnsureDistances()
		if f.Diam == analytics.Unreachable {
			return analytics.Unreachable
		}
		if f.Diam > out {
			out = f.Diam
		}
	}
	return out
}

// ChainHopsAt returns hops between two product vertices given their
// coordinate vectors (Thm. 3 by induction): max_d hops_d(c1[d], c2[d]).
func ChainHopsAt(fs []*Factor, coords1, coords2 []int64) int64 {
	out := int64(0)
	for d, f := range fs {
		f.EnsureDistances()
		h := f.Hops[coords1[d]][coords2[d]]
		if h == analytics.Unreachable {
			return analytics.Unreachable
		}
		if h > out {
			out = h
		}
	}
	return out
}

// ChainEccentricityHistogram returns the ε histogram of the chain
// product by folding the max-law histogram across factors — Fig. 1 for
// heterogeneous chains without materializing anything. Cost is
// O(k·diam²) after factor eccentricities.
func ChainEccentricityHistogram(fs []*Factor) map[int64]int64 {
	fs[0].EnsureDistances()
	cur := map[int64]int64{}
	for _, e := range fs[0].Ecc {
		cur[e]++
	}
	for _, f := range fs[1:] {
		f.EnsureDistances()
		next := map[int64]int64{}
		for _, e := range f.Ecc {
			next[e]++
		}
		cur = maxLawFold(cur, next)
	}
	return cur
}

// maxLawFold combines two value→count histograms under the max law.
func maxLawFold(x, y map[int64]int64) map[int64]int64 {
	xs := histToSorted(x)
	ys := histToSorted(y)
	out := map[int64]int64{}
	var cumX, cumY int64
	// Merge over the union of keys in ascending order.
	i, j := 0, 0
	for i < len(xs) || j < len(ys) {
		var v int64
		switch {
		case i >= len(xs):
			v = ys[j].val
		case j >= len(ys):
			v = xs[i].val
		case xs[i].val < ys[j].val:
			v = xs[i].val
		default:
			v = ys[j].val
		}
		var cx, cy int64
		if i < len(xs) && xs[i].val == v {
			cx = xs[i].cnt
			i++
		}
		if j < len(ys) && ys[j].val == v {
			cy = ys[j].cnt
			j++
		}
		if c := cx*(cumY+cy) + cumX*cy; c > 0 {
			out[v] = c
		}
		cumX += cx
		cumY += cy
	}
	return out
}

type valCnt struct{ val, cnt int64 }

func histToSorted(h map[int64]int64) []valCnt {
	out := make([]valCnt, 0, len(h))
	for v, c := range h {
		out = append(out, valCnt{v, c})
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].val < out[j-1].val; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
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
