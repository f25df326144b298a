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
// explanation only what it hands out — the Attribution and its weights —
// at any sample budget. The fit, the tuple's items, every fresh draw and
// a pool's window live in scratch that outlasts the explanation.
func TestHotpathAllocs(t *testing.T) {
	const p = 42
	st, tuples := censusEnv(t, 600, 1, 1)
	cls := rf.Func{Classes: 2, F: func(x []float64) int { return int(x[0]) & 1 }}
	explainer := func(samples int) *Explainer {
		return New(st, cls, Config{NumSamples: samples}, rand.New(rand.NewSource(2)))
	}
	e, e2k := explainer(200), explainer(2000)
	var sink *explain.Attribution
	for _, tc := range []struct {
		name          string
		allocs, bytes uint64
		run           func()
	}{
		{"lime.(*Explainer).kernel", 0, 0, func() { benchKernel = e.kernel(p / 2) }},
		// Attribution 48 B + weights 352 B.
		{"lime.(*Explainer).ExplainWithPool", 2, 400, func() { sink, _ = e.ExplainWithPool(tuples[0], nil) }},
		{"lime.(*Explainer).ExplainWithPool at 2000 samples", 2, 400, func() { sink, _ = e2k.ExplainWithPool(tuples[0], nil) }},
	} {
		if allocs, bytes := alloctest.PerCall(tc.run); allocs != tc.allocs || bytes != tc.bytes {
			t.Errorf("%s: %d allocs, %d B per call, want %d allocs, %d B", tc.name, allocs, bytes, tc.allocs, tc.bytes)
		}
	}
	_ = sink
}
