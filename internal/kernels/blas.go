package kernels

import "math"

// BLAS-1 kernels over format-stored arrays. Arithmetic happens in
// float64; every store rounds back into the array's format, so the
// format's representation error propagates exactly as it would in a
// mixed-precision application.

// Dot returns Σ aᵢ·bᵢ.
func Dot(a, b *Array) float64 {
	if a.Len() != b.Len() {
		panic("kernels: Dot length mismatch")
	}
	var s float64
	for i := 0; i < a.Len(); i++ {
		s += a.Load(i) * b.Load(i)
	}
	return s
}

// AXPY computes y ← αx + y.
func AXPY(alpha float64, x, y *Array) {
	if x.Len() != y.Len() {
		panic("kernels: AXPY length mismatch")
	}
	for i := 0; i < x.Len(); i++ {
		y.Store(i, alpha*x.Load(i)+y.Load(i))
	}
}

// Poisson1D is the implicit tridiagonal operator of the 1-D Poisson
// problem with Dirichlet boundaries: (Ax)ᵢ = 2xᵢ − xᵢ₋₁ − xᵢ₊₁. It is
// symmetric positive definite — the canonical iterative-solver test
// problem (the paper's refs [12, 20] study SDC in exactly such
// solvers).
type Poisson1D struct {
	N int // interior grid points (matrix dimension)
}

// Apply computes y ← A·x.
func (p Poisson1D) Apply(x, y *Array) {
	n := p.N
	for i := 0; i < n; i++ {
		v := 2 * x.Load(i)
		if i > 0 {
			v -= x.Load(i - 1)
		}
		if i < n-1 {
			v -= x.Load(i + 1)
		}
		y.Store(i, v)
	}
}

// Residual computes r ← b − A·x and returns ‖r‖₂.
func (p Poisson1D) Residual(b, x, r *Array) float64 {
	n := p.N
	var s float64
	for i := 0; i < n; i++ {
		v := 2 * x.Load(i)
		if i > 0 {
			v -= x.Load(i - 1)
		}
		if i < n-1 {
			v -= x.Load(i + 1)
		}
		ri := b.Load(i) - v
		r.Store(i, ri)
		s += ri * ri
	}
	return math.Sqrt(s)
}
