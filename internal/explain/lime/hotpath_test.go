package lime

import (
	"math/rand"
	"testing"

	"shahin/internal/alloctest"
	"shahin/internal/explain"
	"shahin/internal/rf"
)

// TestHotpathAllocs pins what the surrogate fit allocates at the census
// twin's width: the kernel nothing, and one whole steady-state
// explanation only what it hands out — the Attribution and its weights,
// the tuple's items, and a row and an item slice per fresh sample. The
// fit itself, and a pool's window, cost nothing once warm.
func TestHotpathAllocs(t *testing.T) {
	const p, samples = 42, 200
	st, tuples := censusEnv(t, 600, 1, 1)
	cls := rf.Func{Classes: 2, F: func(x []float64) int { return int(x[0]) & 1 }}
	e := New(st, cls, Config{NumSamples: samples}, rand.New(rand.NewSource(2)))
	var sink *explain.Attribution
	for _, tc := range []struct {
		name          string
		allocs, bytes uint64
		run           func()
	}{
		{"lime.(*Explainer).kernel", 0, 0, func() { benchKernel = e.kernel(p / 2) }},
		// Attribution 48 B + weights 352 B + tuple items 176 B, then per
		// sample a 352 B row and 176 B of items.
		{"lime.(*Explainer).ExplainWithPool", 3 + 2*samples, 576 + 528*samples, func() { sink, _ = e.ExplainWithPool(tuples[0], nil) }},
	} {
		if allocs, bytes := alloctest.PerCall(tc.run); allocs != tc.allocs || bytes != tc.bytes {
			t.Errorf("%s: %d allocs, %d B per call, want %d allocs, %d B", tc.name, allocs, bytes, tc.allocs, tc.bytes)
		}
	}
	_ = sink
}
