package linmodel

import (
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
// 12×12 SPD system: the packed factor, the forward vector and the
// solution, nothing else.
func TestHotpathAllocs(t *testing.T) {
	a, rhs := spdSystem(12, 8)
	if _, err := a.Solve(rhs); err != nil {
		t.Fatalf("fixture not positive definite: %v", err)
	}
	allocs, bytes := allocsAndBytes(func() { benchSolveVec, _ = a.Solve(rhs) })
	if allocs != 3 || bytes != 832 {
		t.Errorf("%s: %d allocs, %d B per call, want 3 allocs, 832 B", "linmodel.(*Sym).Solve", allocs, bytes)
	}
}
