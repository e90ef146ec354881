// Package spectral demonstrates the paper's Sec. IV-C observation that
// "due to the Kronecker structure a spectral method can efficiently solve
// for large swathes of the eigenspace of C": the spectrum of
// C = A₁ ⊗ … ⊗ A_k is exactly every product λ₁·…·λ_k of one eigenvalue
// per factor, so factor-sized eigensolves expose product-sized spectral
// information — including spectral triangle counts τ = Σλ³/6 — making the
// structure exploitable by algorithms that never see the factors.
//
// The package provides a dense symmetric eigensolver for small matrices
// (Householder tridiagonalisation plus implicit QL, stdlib only), the
// Kronecker eigenvalue law folded over a chain of factor spectra, an
// implicit matrix-vector product y = (A₁ ⊗ … ⊗ A_k)·x that never
// materializes C (the vec trick, one mode at a time), and power iteration
// on that implicit operator.
package spectral

import (
	"fmt"
	"math"
	"sort"

	"kronlab/internal/core"
	"kronlab/internal/graph"
)

// SymEig computes all eigenvalues of a symmetric matrix given as rows:
// a Householder reduction to tridiagonal form, then shifted implicit QL
// on the tridiagonal matrix. Input is not modified. Returns eigenvalues
// in ascending order. Intended for factor-sized matrices (n up to a few
// thousand).
func SymEig(rows [][]float64) ([]float64, error) {
	n := len(rows)
	a := make([][]float64, n)
	for i := range rows {
		if len(rows[i]) != n {
			return nil, fmt.Errorf("spectral: row %d has length %d, want %d", i, len(rows[i]), n)
		}
		a[i] = append([]float64(nil), rows[i]...)
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a[i][j]-a[j][i]) > 1e-9*(1+math.Abs(a[i][j])) {
				return nil, fmt.Errorf("spectral: matrix is not symmetric at (%d,%d)", i, j)
			}
		}
	}
	d, e := tridiagonalize(a)
	if err := tridiagonalQL(d, e); err != nil {
		return nil, err
	}
	sort.Float64s(d)
	return d, nil
}

// tridiagonalize reduces the symmetric matrix a (its lower triangle is
// read and overwritten) to tridiagonal form by Householder reflections,
// row n−1 first, returning the diagonal d and the subdiagonal e
// (e[i] couples rows i−1 and i; e[0] = 0).
func tridiagonalize(a [][]float64) (d, e []float64) {
	n := len(a)
	d, e = make([]float64, n), make([]float64, n)
	for i := n - 1; i > 0; i-- {
		l := i - 1
		var scale float64
		for k := 0; k <= l; k++ {
			scale += math.Abs(a[i][k])
		}
		if l == 0 || scale == 0 {
			e[i] = a[i][l]
			continue
		}
		// The reflector u = row i's leading part − g·e_l, scaled.
		var h float64
		for k := 0; k <= l; k++ {
			a[i][k] /= scale
			h += a[i][k] * a[i][k]
		}
		f := a[i][l]
		g := -math.Copysign(math.Sqrt(h), f)
		e[i] = scale * g
		h -= f * g
		a[i][l] = f - g
		// p = A·u/h (kept in e[0..l], free until row j's turn), K = uᵗp/2h.
		f = 0
		for j := 0; j <= l; j++ {
			g = 0
			for k := 0; k <= j; k++ {
				g += a[j][k] * a[i][k]
			}
			for k := j + 1; k <= l; k++ {
				g += a[k][j] * a[i][k]
			}
			e[j] = g / h
			f += e[j] * a[i][j]
		}
		hh := f / (h + h)
		// A ← A − u·qᵗ − q·uᵗ with q = p − K·u.
		for j := 0; j <= l; j++ {
			f = a[i][j]
			g = e[j] - hh*f
			e[j] = g
			for k := 0; k <= j; k++ {
				a[j][k] -= f*e[k] + g*a[i][k]
			}
		}
	}
	for i := range d {
		d[i] = a[i][i]
	}
	return d, e
}

// tridiagonalQL overwrites d with the eigenvalues of the symmetric
// tridiagonal matrix of diagonal d and subdiagonal e (tridiagonalize's
// layout), by implicit QL: each sweep chases a shifted rotation up the
// unreduced block [l, m], and a subdiagonal entry negligible against its
// neighbours deflates the matrix there.
func tridiagonalQL(d, e []float64) error {
	n := len(d)
	if n == 0 {
		return nil
	}
	copy(e, e[1:])
	e[n-1] = 0
	const eps = 0x1p-52
	for l := 0; l < n-1; l++ { // a last 1×1 block is its own eigenvalue
		for iter := 0; ; iter++ {
			m := l
			for ; m < n-1; m++ {
				if math.Abs(e[m]) <= eps*(math.Abs(d[m])+math.Abs(d[m+1])) {
					break
				}
			}
			if m == l {
				break
			}
			if iter == 60 {
				return fmt.Errorf("spectral: QL did not converge at eigenvalue %d", l)
			}
			g := (d[l+1] - d[l]) / (2 * e[l])
			r := math.Hypot(g, 1)
			g = d[m] - d[l] + e[l]/(g+math.Copysign(r, g))
			s, c, p := 1.0, 1.0, 0.0
			i := m - 1
			for ; i >= l; i-- {
				f, b := s*e[i], c*e[i]
				r = math.Hypot(f, g)
				e[i+1] = r
				if r == 0 { // underflow: the block splits at i+1
					d[i+1] -= p
					e[m] = 0
					break
				}
				s, c = f/r, g/r
				g = d[i+1] - p
				r = (d[i]-g)*s + 2*c*b
				p = s * r
				d[i+1] = g + p
				g = c*r - b
			}
			if i >= l {
				continue
			}
			d[l] -= p
			e[l] = g
			e[m] = 0
		}
	}
	return nil
}

// AdjacencyEig returns the eigenvalues of g's (symmetric) adjacency
// matrix in ascending order.
func AdjacencyEig(g *graph.Graph) ([]float64, error) {
	if !g.IsSymmetric() {
		return nil, fmt.Errorf("spectral: AdjacencyEig requires an undirected graph")
	}
	n := int(g.NumVertices())
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, n)
	}
	g.Arcs(func(u, v int64) bool {
		rows[u][v] = 1
		return true
	})
	return SymEig(rows)
}

// KronEigenvalues returns the sorted spectrum of A₁ ⊗ … ⊗ A_k from the
// factor spectra: every product λ₁·…·λ_k of one eigenvalue per factor,
// folded factor by factor.
func KronEigenvalues(spectra ...[]float64) []float64 {
	out := []float64{1}
	for _, eig := range spectra {
		next := make([]float64, 0, len(out)*len(eig))
		for _, l := range out {
			for _, m := range eig {
				next = append(next, l*m)
			}
		}
		out = next
	}
	sort.Float64s(out)
	return out
}

// SpectralTriangles returns the triangle count implied by a loop-free
// adjacency spectrum: τ = Σ λ³ / 6 (trace(A³) counts each triangle 6
// times). The float result is exact up to eigensolver accuracy; round.
func SpectralTriangles(eig []float64) float64 {
	var s float64
	for _, l := range eig {
		s += l * l * l
	}
	return s / 6
}

// KronMatVec computes y = (A₁ ⊗ … ⊗ A_k)·x without materializing the
// product. Viewing x as the n₁×…×n_k tensor X numbered as
// core.ChainIndex numbers product vertices (the leftmost factor
// outermost), the product applies A_d along mode d, one mode at a time
// (the vec trick; at k = 2 it is Y = A·X·Bᵗ), at cost
// O(Σ_d arcs_d·n/n_d) instead of O(Π_d arcs_d).
func KronMatVec(factors []*graph.Graph, x []float64) ([]float64, error) {
	n, err := numVertices(factors)
	if err != nil {
		return nil, err
	}
	if int64(len(x)) != n {
		return nil, fmt.Errorf("spectral: KronMatVec length %d, want %d", len(x), n)
	}
	y := append([]float64(nil), x...)
	if n == 0 {
		return y, nil
	}
	y, _ = kronMatVec(factors, y, make([]float64, n))
	return y, nil
}

// kronMatVec is KronMatVec over caller-owned buffers: y holds x on entry,
// t is scratch of the same length, and it returns them swapped as the
// modes leave them — the product first, the other buffer second.
func kronMatVec(factors []*graph.Graph, y, t []float64) ([]float64, []float64) {
	inner := int64(len(y))
	for _, g := range factors {
		span := inner
		inner /= g.NumVertices()
		clear(t)
		applyMode(g, t, y, span, inner)
		y, t = t, y
	}
	return y, t
}

// applyMode adds g applied along one mode of src into dst: each slab of
// span = n_d·inner entries is n_d rows of inner entries, and arc (i, j)
// adds row j of every slab of src into row i of the same slab of dst.
// Along the innermost mode (inner = 1) a row is one entry, summed in a
// register.
func applyMode(g *graph.Graph, dst, src []float64, span, inner int64) {
	for o := int64(0); o < int64(len(dst)); o += span {
		for i := int64(0); i < span/inner; i++ {
			if inner == 1 {
				var sum float64
				for _, j := range g.Neighbors(i) {
					sum += src[o+j]
				}
				dst[o+i] += sum
				continue
			}
			d := dst[o+i*inner : o+(i+1)*inner]
			for _, j := range g.Neighbors(i) {
				s := src[o+j*inner:][:len(d)]
				for r := range d {
					d[r] += s[r]
				}
			}
		}
	}
}

// numVertices returns the product's vertex count Π_d n_d.
func numVertices(factors []*graph.Graph) (int64, error) {
	n := int64(1)
	for _, g := range factors {
		var ok bool
		if n, ok = core.CheckedMul(n, g.NumVertices()); !ok {
			return 0, fmt.Errorf("spectral: product vertex count overflows int64")
		}
	}
	return n, nil
}

// PowerIteration estimates the dominant eigenvalue (largest |λ|) of
// A₁ ⊗ … ⊗ A_k via the implicit operator, returning the
// Rayleigh-quotient estimate after iters steps from a deterministic start
// vector. Its three product-sized vectors are allocated once: a step
// allocates nothing.
func PowerIteration(factors []*graph.Graph, iters int) (float64, error) {
	n, err := numVertices(factors)
	if err != nil {
		return 0, err
	}
	if n == 0 {
		return 0, fmt.Errorf("spectral: empty product")
	}
	x := make([]float64, n)
	var norm0 float64
	for i := range x {
		// Deterministic, non-orthogonal-to-Perron start.
		x[i] = 1 + 0.001*float64(i%7)
		norm0 += x[i] * x[i]
	}
	norm0 = math.Sqrt(norm0)
	for i := range x {
		x[i] /= norm0
	}
	var lambda float64
	y, t := make([]float64, n), make([]float64, n)
	for it := 0; it < iters; it++ {
		copy(y, x)
		y, t = kronMatVec(factors, y, t)
		var norm float64
		for _, v := range y {
			norm += v * v
		}
		norm = math.Sqrt(norm)
		if norm == 0 {
			return 0, nil // nilpotent / empty graph
		}
		var dot float64
		for i := range x {
			dot += x[i] * y[i]
		}
		lambda = dot // x is unit length from previous normalization
		for i := range y {
			y[i] /= norm
		}
		x, y = y, x
	}
	return lambda, nil
}
