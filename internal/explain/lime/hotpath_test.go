package lime

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

// TestHotpathAllocs pins what the two //shahin:hotpath functions of
// the surrogate fit allocate per call at the census twin's width: the
// kernel nothing, the top-k selection its index and result slices.
func TestHotpathAllocs(t *testing.T) {
	const p = 42
	// kernel reads only cfg.KernelWidth, so a bare Explainer with
	// filled defaults is a faithful harness.
	e := &Explainer{cfg: Config{}.fill(p)}
	z, v := make([]float64, p), make([]float64, p)
	for i := range z {
		z[i] = float64((i + 1) % 2)
		v[i] = float64((i*7)%13) - 6
	}
	for _, tc := range []struct {
		name          string
		allocs, bytes uint64
		run           func()
	}{
		{"lime.(*Explainer).kernel", 0, 0, func() { benchKernel = e.kernel(z) }},
		{"lime.topKByAbs", 2, 224, func() { benchTopK = topKByAbs(v, p/2) }},
	} {
		if allocs, bytes := allocsAndBytes(tc.run); allocs != tc.allocs || bytes != tc.bytes {
			t.Errorf("%s: %d allocs, %d B per call, want %d allocs, %d B", tc.name, allocs, bytes, tc.allocs, tc.bytes)
		}
	}
}
