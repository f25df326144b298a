package linmodel

import (
	"math/rand"
	"testing"

	"shahin/internal/alloctest"
)

// TestHotpathAllocs pins what the package's //shahin:hotpath functions
// allocate per call: Solve on a well-conditioned 12×12 SPD system the
// packed factor and the solution, the in-place kernel under it nothing,
// and the accumulator, at the census
// twin's width, nothing — neither per sample nor per fit.
func TestHotpathAllocs(t *testing.T) {
	a, rhs := spdSystem(12, 8)
	if _, err := a.Solve(rhs); err != nil {
		t.Fatalf("fixture not positive definite: %v", err)
	}
	const p = 42
	design, y, w := binaryDesign(rand.New(rand.NewSource(3)), 200, p)
	fit := NewBinaryFit(p)
	for i, on := range design {
		fit.Add(on, y[i], w[i])
	}
	coef := make([]float64, p)
	fac, x := make([]float64, len(a.data)), make([]float64, len(rhs))
	for _, tc := range []struct {
		name          string
		allocs, bytes uint64
		run           func()
	}{
		{"linmodel.(*Sym).Solve", 2, 736, func() { benchSolveVec, _ = a.Solve(rhs) }},
		{"linmodel.cholSolve", 0, 0, func() {
			if err := a.SolveInto(rhs, fac, x); err != nil {
				t.Fatal(err)
			}
		}},
		{"linmodel.(*BinaryFit).Add", 0, 0, func() { fit.Add(design[7], y[7], w[7]) }},
		{"linmodel.(*BinaryFit).Solve", 0, 0, func() {
			if _, err := fit.Solve(1, coef); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		if allocs, bytes := alloctest.PerCall(tc.run); allocs != tc.allocs || bytes != tc.bytes {
			t.Errorf("%s: %d allocs, %d B per call, want %d allocs, %d B", tc.name, allocs, bytes, tc.allocs, tc.bytes)
		}
	}
}
