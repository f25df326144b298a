package linmodel

import (
	"math/rand"
	"runtime"
	"testing"
)

// allocsAndBytes reports what one call of f allocates, heap objects and
// bytes, exactly (ReadMemStats stops the world) and floored over the
// runs so a stray runtime allocation cannot round a 0 up.
func allocsAndBytes(f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
}

// TestHotpathAllocs pins what Solve allocates on a well-conditioned
// 12×12 SPD system (A = MᵀM + I): the packed factor, the forward
// vector and the solution, nothing else.
func TestHotpathAllocs(t *testing.T) {
	const dim = 12
	rng := rand.New(rand.NewSource(8))
	m := make([][]float64, 2*dim)
	for i := range m {
		m[i] = make([]float64, dim)
		for j := range m[i] {
			m[i][j] = rng.NormFloat64()
		}
	}
	a := NewSym(dim)
	for i := 0; i < dim; i++ {
		for j := 0; j <= i; j++ {
			v := 0.0
			for _, row := range m {
				v += row[i] * row[j]
			}
			if i == j {
				v++
			}
			a.Set(i, j, v)
		}
	}
	rhs := make([]float64, dim)
	for i := range rhs {
		rhs[i] = rng.NormFloat64()
	}
	if _, err := a.Solve(rhs); err != nil {
		t.Fatalf("fixture not positive definite: %v", err)
	}
	allocs, bytes := allocsAndBytes(func() { benchSolveVec, _ = a.Solve(rhs) })
	if allocs != 3 || bytes != 832 {
		t.Errorf("%s: %d allocs, %d B per call, want 3 allocs, 832 B", "linmodel.(*Sym).Solve", allocs, bytes)
	}
}
