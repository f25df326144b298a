package linmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSymAccessors(t *testing.T) {
	s := NewSym(3)
	s.Set(0, 0, 1)
	s.Set(2, 1, 5)
	s.Add(1, 2, 2) // mirror of (2,1)
	if got := s.At(1, 2); got != 7 {
		t.Fatalf("At(1,2)=%g want 7", got)
	}
	if got := s.At(2, 1); got != 7 {
		t.Fatalf("At(2,1)=%g want 7", got)
	}
	if s.N() != 3 {
		t.Fatalf("N=%d", s.N())
	}
	s.Set(1, 1, 4)
	s.Set(2, 2, 9)
	if got := s.MaxDiag(); got != 9 {
		t.Fatalf("MaxDiag=%g want 9", got)
	}
}

func TestSolveIdentity(t *testing.T) {
	s := NewSym(4)
	for i := 0; i < 4; i++ {
		s.Set(i, i, 1)
	}
	b := []float64{1, -2, 3, 0.5}
	x, err := s.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range b {
		if !almostEqual(x[i], b[i], 1e-12) {
			t.Fatalf("x[%d]=%g want %g", i, x[i], b[i])
		}
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// A = [[4,2],[2,3]], b = [2, 5] -> x = [-0.5, 2].
	s := NewSym(2)
	s.Set(0, 0, 4)
	s.Set(1, 0, 2)
	s.Set(1, 1, 3)
	x, err := s.Solve([]float64{2, 5})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(x[0], -0.5, 1e-12) || !almostEqual(x[1], 2, 1e-12) {
		t.Fatalf("x=%v want [-0.5 2]", x)
	}
}

func TestSolveNotPD(t *testing.T) {
	s := NewSym(2)
	s.Set(0, 0, 1)
	s.Set(1, 0, 2)
	s.Set(1, 1, 1) // eigenvalues 3, -1: not PD
	if _, err := s.Solve([]float64{1, 1}); err == nil {
		t.Fatal("Solve on indefinite matrix should fail")
	}
	if _, err := s.Solve([]float64{1}); err == nil {
		t.Fatal("Solve with wrong rhs length should fail")
	}
}

// Property: for random SPD matrices A = MᵀM + I, Solve returns x with
// A x ≈ b.
func TestQuickSolveResidual(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(8)
		M := make([][]float64, n)
		for i := range M {
			M[i] = make([]float64, n)
			for j := range M[i] {
				M[i][j] = r.NormFloat64()
			}
		}
		A := NewSym(n)
		for i := 0; i < n; i++ {
			for j := 0; j <= i; j++ {
				v := 0.0
				for k := 0; k < n; k++ {
					v += M[k][i] * M[k][j]
				}
				if i == j {
					v += 1
				}
				A.Set(i, j, v)
			}
		}
		b := make([]float64, n)
		for i := range b {
			b[i] = rng.NormFloat64()
		}
		x, err := A.Solve(b)
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			got := 0.0
			for j := 0; j < n; j++ {
				got += A.At(i, j) * x[j]
			}
			if !almostEqual(got, b[i], 1e-8) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestRidgeErrors(t *testing.T) {
	X := [][]float64{{1, 2}, {3, 4}}
	y := []float64{1, 2}
	cases := map[string]func() error{
		"no samples":   func() error { _, err := Ridge(nil, nil, nil, 1); return err },
		"bad y":        func() error { _, err := Ridge(X, []float64{1}, nil, 1); return err },
		"bad w":        func() error { _, err := Ridge(X, y, []float64{1}, 1); return err },
		"neg lambda":   func() error { _, err := Ridge(X, y, nil, -1); return err },
		"ragged X":     func() error { _, err := Ridge([][]float64{{1, 2}, {3}}, y, nil, 1); return err },
		"no features":  func() error { _, err := Ridge([][]float64{{}, {}}, y, nil, 1); return err },
		"zero weights": func() error { _, err := Ridge(X, y, []float64{0, 0}, 1); return err },
	}
	for name, fn := range cases {
		if fn() == nil {
			t.Errorf("Ridge(%s) expected error", name)
		}
	}
}

func TestRidgeRecoversLinearFunction(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	const n, p = 500, 4
	trueCoef := []float64{2, -1, 0.5, 3}
	const trueIntercept = -7.0
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, p)
		y[i] = trueIntercept
		for j := 0; j < p; j++ {
			X[i][j] = rng.NormFloat64()
			y[i] += trueCoef[j] * X[i][j]
		}
	}
	m, err := Ridge(X, y, nil, 1e-8)
	if err != nil {
		t.Fatal(err)
	}
	for j := range trueCoef {
		if !almostEqual(m.Coef[j], trueCoef[j], 1e-6) {
			t.Fatalf("coef[%d]=%g want %g", j, m.Coef[j], trueCoef[j])
		}
	}
	if !almostEqual(m.Intercept, trueIntercept, 1e-6) {
		t.Fatalf("intercept=%g want %g", m.Intercept, trueIntercept)
	}
	if got := m.Predict(X[0]); !almostEqual(got, y[0], 1e-6) {
		t.Fatalf("Predict=%g want %g", got, y[0])
	}
}

func TestRidgeShrinks(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const n = 200
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = []float64{rng.NormFloat64()}
		y[i] = 5*X[i][0] + rng.NormFloat64()*0.1
	}
	small, err := Ridge(X, y, nil, 1e-6)
	if err != nil {
		t.Fatal(err)
	}
	big, err := Ridge(X, y, nil, 1e4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(big.Coef[0]) >= math.Abs(small.Coef[0]) {
		t.Fatalf("lambda=1e4 coef %g not shrunk vs %g", big.Coef[0], small.Coef[0])
	}
	if math.Abs(big.Coef[0]) > 1 {
		t.Fatalf("heavily regularised coef still %g", big.Coef[0])
	}
}

func TestRidgeWeights(t *testing.T) {
	// Two populations with different slopes; weighting one to ~zero must
	// recover the other's slope.
	X := [][]float64{{0}, {1}, {2}, {0}, {1}, {2}}
	y := []float64{0, 1, 2, 0, 10, 20}
	w := []float64{1, 1, 1, 1e-9, 1e-9, 1e-9}
	m, err := Ridge(X, y, w, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m.Coef[0], 1, 1e-3) {
		t.Fatalf("weighted slope=%g want 1", m.Coef[0])
	}
}

func TestRidgeConstantFeature(t *testing.T) {
	// A constant column makes the centred normal matrix singular at
	// lambda=0; the jitter retry must still produce a finite answer with
	// ~zero weight on the constant feature.
	X := [][]float64{{1, 3}, {2, 3}, {3, 3}, {4, 3}}
	y := []float64{2, 4, 6, 8}
	m, err := Ridge(X, y, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(m.Coef[0], 2, 1e-6) {
		t.Fatalf("coef[0]=%g want 2", m.Coef[0])
	}
	if math.Abs(m.Coef[1]) > 1e-6 {
		t.Fatalf("constant feature coef=%g want ~0", m.Coef[1])
	}
}

// Property: ridge predictions at the weighted mean equal the weighted mean
// response (the intercept identity).
func TestQuickRidgeMeanIdentity(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 5 + r.Intn(30)
		p := 1 + r.Intn(4)
		X := make([][]float64, n)
		y := make([]float64, n)
		w := make([]float64, n)
		for i := range X {
			X[i] = make([]float64, p)
			for j := range X[i] {
				X[i][j] = r.NormFloat64()
			}
			y[i] = r.NormFloat64()
			w[i] = 0.1 + r.Float64()
		}
		m, err := Ridge(X, y, w, 0.5)
		if err != nil {
			return false
		}
		totalW, ybar := 0.0, 0.0
		xbar := make([]float64, p)
		for i := range X {
			totalW += w[i]
			ybar += w[i] * y[i]
			for j := range xbar {
				xbar[j] += w[i] * X[i][j]
			}
		}
		ybar /= totalW
		for j := range xbar {
			xbar[j] /= totalW
		}
		return almostEqual(m.Predict(xbar), ybar, 1e-8)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkRidge1000x40(b *testing.B) {
	rng := rand.New(rand.NewSource(4))
	const n, p = 1000, 40
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		X[i] = make([]float64, p)
		for j := range X[i] {
			X[i][j] = rng.NormFloat64()
		}
		y[i] = rng.NormFloat64()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Ridge(X, y, nil, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// benchSolveVec keeps the compiler from eliding the Solve benchmark.
var benchSolveVec []float64

// spdSystem builds a well-conditioned p×p SPD system A = MᵀM + I and a
// right-hand side, both drawn from seed.
func spdSystem(p int, seed int64) (*Sym, []float64) {
	rng := rand.New(rand.NewSource(seed))
	M := make([][]float64, p)
	for i := range M {
		M[i] = make([]float64, p)
		for j := range M[i] {
			M[i][j] = rng.NormFloat64()
		}
	}
	A := NewSym(p)
	for i := 0; i < p; i++ {
		for j := i; j < p; j++ {
			var dot float64
			for k := 0; k < p; k++ {
				dot += M[k][i] * M[k][j]
			}
			if i == j {
				dot++
			}
			A.Set(i, j, dot)
		}
	}
	rhs := make([]float64, p)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	return A, rhs
}

func BenchmarkSymSolve(b *testing.B) {
	A, rhs := spdSystem(24, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := A.Solve(rhs)
		if err != nil {
			b.Fatal(err)
		}
		benchSolveVec = x
	}
}
