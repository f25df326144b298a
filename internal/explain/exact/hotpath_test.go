package exact

import (
	"testing"

	"shahin/internal/alloctest"
	"shahin/internal/datagen"
	"shahin/internal/explain"
)

// TestHotpathAllocs pins what one exact explanation allocates over a
// trained forest on the 42-attribute census twin: the Attribution and
// its weight vector — the walk's scratch is the Explainer's, sized in
// New. The walker's helpers (walk, leaf, extend, divide) only run inside
// Explain, so this one row covers the package's whole hot surface. Fork
// is the other per-goroutine cost: the copy and its three scratch slices.
func TestHotpathAllocs(t *testing.T) {
	spec, err := datagen.Spec("census")
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(600, 1)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(tinyStats(t, d), tinyForest(t, d, 8, 6), Config{})
	if err != nil {
		t.Fatal(err)
	}
	x := d.Rows(0, 1)[0]
	var sink *explain.Attribution
	allocs, bytes := alloctest.PerCall(func() { sink, _ = e.Explain(x) })
	if allocs != 2 || bytes != 400 {
		t.Errorf("%s: %d allocs, %d B per call, want 2 allocs, 400 B", "exact.(*Explainer).Explain", allocs, bytes)
	}
	_ = sink
	var fork *Explainer
	allocs, bytes = alloctest.PerCall(func() { fork = e.Fork(nil) })
	if allocs != 4 || bytes != 1424 {
		t.Errorf("%s: %d allocs, %d B per call, want 4 allocs, 1424 B", "exact.(*Explainer).Fork", allocs, bytes)
	}
	_ = fork
}
