// Package linmodel implements the small dense linear algebra the
// explainers need: weighted ridge regression via normal equations and a
// Cholesky solver for symmetric positive-definite systems. LIME fits its
// interpretable surrogate with BinaryFit, which never builds the design
// matrix; KernelSHAP builds its normal matrix from bit counts and solves it
// with SolveInto; Ridge, the dense fit, is the reference BinaryFit is tested against.
package linmodel

import (
	"fmt"
	"math"
)

// Model is a fitted linear model y ≈ Intercept + x·Coef.
type Model struct {
	Coef      []float64
	Intercept float64
}

// Predict evaluates the model at x.
func (m *Model) Predict(x []float64) float64 {
	y := m.Intercept
	for i, c := range m.Coef {
		y += c * x[i]
	}
	return y
}

// Ridge fits weighted ridge regression:
//
//	min_β,b  Σ_i w_i (y_i - b - x_i·β)²  +  λ ‖β‖²
//
// The intercept is not penalised. X is row-major with one sample per row;
// w may be nil for unit weights. λ must be non-negative; λ = 0 degrades to
// ordinary weighted least squares (with a tiny jitter retry if the normal
// matrix is singular).
func Ridge(X [][]float64, y, w []float64, lambda float64) (*Model, error) {
	n := len(X)
	if n == 0 {
		return nil, fmt.Errorf("linmodel: Ridge with no samples")
	}
	if len(y) != n {
		return nil, fmt.Errorf("linmodel: %d targets for %d samples", len(y), n)
	}
	if w != nil && len(w) != n {
		return nil, fmt.Errorf("linmodel: %d weights for %d samples", len(w), n)
	}
	if lambda < 0 {
		return nil, fmt.Errorf("linmodel: negative lambda %g", lambda)
	}
	p := len(X[0])
	if p == 0 {
		return nil, fmt.Errorf("linmodel: samples have no features")
	}
	for i := range X {
		if len(X[i]) != p {
			return nil, fmt.Errorf("linmodel: row %d has %d features want %d", i, len(X[i]), p)
		}
	}

	// Weighted means; centering absorbs the (unpenalised) intercept.
	totalW := 0.0
	for i := 0; i < n; i++ {
		totalW += weight(w, i)
	}
	if totalW <= 0 {
		return nil, weightSumError(totalW)
	}
	xbar := make([]float64, p)
	ybar := 0.0
	for i := 0; i < n; i++ {
		wi := weight(w, i)
		for j := 0; j < p; j++ {
			xbar[j] += wi * X[i][j]
		}
		ybar += wi * y[i]
	}
	for j := range xbar {
		xbar[j] /= totalW
	}
	ybar /= totalW

	// Normal equations on centred data: (XᵀWX + λI) β = XᵀWy.
	A := NewSym(p)
	b := make([]float64, p)
	xc := make([]float64, p)
	for i := 0; i < n; i++ {
		wi := weight(w, i)
		for j := 0; j < p; j++ {
			xc[j] = X[i][j] - xbar[j]
		}
		yc := y[i] - ybar
		for j := 0; j < p; j++ {
			wx := wi * xc[j]
			b[j] += wx * yc
			row := A.row(j)
			for k := 0; k <= j; k++ {
				row[k] += wx * xc[k]
			}
		}
	}
	for j := 0; j < p; j++ {
		A.Add(j, j, lambda)
	}

	coef := make([]float64, p)
	if err := A.solveJittered(b, make([]float64, len(A.data)), coef); err != nil {
		return nil, err
	}
	intercept := ybar
	for j := 0; j < p; j++ {
		intercept -= coef[j] * xbar[j]
	}
	return &Model{Coef: coef, Intercept: intercept}, nil
}

func weight(w []float64, i int) float64 {
	if w == nil {
		return 1
	}
	return w[i]
}

// Sym is a symmetric matrix stored as the packed lower triangle.
type Sym struct {
	n    int
	data []float64 // row-major packed lower triangle
}

// NewSym returns an n×n zero symmetric matrix.
func NewSym(n int) *Sym {
	return &Sym{n: n, data: make([]float64, n*(n+1)/2)}
}

// N returns the dimension.
func (s *Sym) N() int { return s.n }

// row returns the packed storage of row i (columns 0..i).
func (s *Sym) row(i int) []float64 {
	start := i * (i + 1) / 2
	return s.data[start : start+i+1]
}

// At returns element (i, j).
func (s *Sym) At(i, j int) float64 {
	if j > i {
		i, j = j, i
	}
	return s.data[i*(i+1)/2+j]
}

// Set sets element (i, j) (and its mirror).
func (s *Sym) Set(i, j int, v float64) {
	if j > i {
		i, j = j, i
	}
	s.data[i*(i+1)/2+j] = v
}

// Add adds v to element (i, j) (and its mirror).
func (s *Sym) Add(i, j int, v float64) {
	if j > i {
		i, j = j, i
	}
	s.data[i*(i+1)/2+j] += v
}

// MaxDiag returns the largest diagonal entry (0 for an empty matrix).
func (s *Sym) MaxDiag() float64 {
	m := 0.0
	for i := 0; i < s.n; i++ {
		if d := s.At(i, i); d > m {
			m = d
		}
	}
	return m
}

// Solve solves A x = b for symmetric positive-definite A via Cholesky
// factorisation. A is not modified. It returns an error if the matrix is
// not (numerically) positive definite. Error construction lives in the
// cold helpers below so the tagged body stays free of fmt allocations.
//
//shahin:hotpath
func (s *Sym) Solve(b []float64) ([]float64, error) {
	if len(b) != s.n {
		return nil, badRHSError(len(b), s.n)
	}
	x := make([]float64, s.n)
	if err := s.SolveInto(b, make([]float64, len(s.data)), x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInto is Solve with its storage supplied, for a caller that solves
// one system after another: fac (as long as the packed triangle) receives
// the factor and x (as long as b) the solution.
func (s *Sym) SolveInto(b, fac, x []float64) error {
	copy(fac, s.data)
	copy(x, b)
	return cholSolve(fac, x)
}

// solveJittered is SolveInto for normal equations, where a singular
// matrix means collinear or constant features: it retries once with a
// small diagonal jitter scaled to the matrix, which it leaves in s.
func (s *Sym) solveJittered(b, fac, x []float64) error {
	err := s.SolveInto(b, fac, x)
	if err != nil {
		jitter := 1e-10 * (1 + s.MaxDiag())
		for j := 0; j < s.n; j++ {
			s.Add(j, j, jitter)
		}
		if err = s.SolveInto(b, fac, x); err != nil {
			return fmt.Errorf("linmodel: normal equations singular: %w", err)
		}
	}
	return nil
}

// cholSolve overwrites the packed lower triangle a with its Cholesky
// factor L and the right-hand side x with the solution of A x = b:
// forward substitution L z = b, then back substitution Lᵀ x = z, both
// in x. This is the package's one factorisation.
//
//shahin:hotpath
func cholSolve(a, x []float64) error {
	n := len(x)
	for i := 0; i < n; i++ {
		ri := a[i*(i+1)/2 : i*(i+1)/2+i+1]
		for j := 0; j <= i; j++ {
			rj := a[j*(j+1)/2 : j*(j+1)/2+j+1]
			sum := ri[j]
			for k := 0; k < j; k++ {
				sum -= ri[k] * rj[k]
			}
			if i == j {
				if sum <= 0 || math.IsNaN(sum) {
					return notPDError(i, sum)
				}
				ri[j] = math.Sqrt(sum)
			} else {
				ri[j] = sum / rj[j]
			}
		}
		sum := x[i]
		for k := 0; k < i; k++ {
			sum -= ri[k] * x[k]
		}
		x[i] = sum / ri[i]
	}
	for i := n - 1; i >= 0; i-- {
		sum := x[i]
		for k := i + 1; k < n; k++ {
			sum -= a[k*(k+1)/2+i] * x[k]
		}
		x[i] = sum / a[i*(i+1)/2+i]
	}
	return nil
}

// badRHSError and notPDError build Solve's failure values on the cold
// path, keeping fmt out of the allocation-audited solver body.
func badRHSError(got, want int) error {
	return fmt.Errorf("linmodel: Solve rhs has %d entries want %d", got, want)
}

func notPDError(pivot int, sum float64) error {
	return fmt.Errorf("linmodel: matrix not positive definite at pivot %d (%g)", pivot, sum)
}
