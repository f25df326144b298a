package shap

import (
	"math/rand"
	"testing"

	"shahin/internal/alloctest"
	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/perturb"
	"shahin/internal/rf"
)

// TestHotpathAllocs pins what an explanation allocates at the census
// twin's width: folding a sample in, the solve and the coalition draw
// nothing, and one whole steady-state explanation only what it hands out
// — the Attribution and its weights — at any sample budget.
func TestHotpathAllocs(t *testing.T) {
	const m, samples = 42, 200
	spec, err := datagen.Spec("census")
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(600, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	tuple := d.Rows(0, 1)[0]
	cls := rf.Func{Classes: 2, F: func(x []float64) int { return int(x[0]) & 1 }}
	e := New(st, cls, Config{NumSamples: samples}, rand.New(rand.NewSource(2)))
	e2k := New(st, cls, Config{NumSamples: 2000}, rand.New(rand.NewSource(2)))
	var sink *explain.Attribution
	for _, e := range []*Explainer{e, e2k} {
		if sink, err = e.Explain(tuple); err != nil { // warm: the class's base rate, a full fit
			t.Fatal(err)
		}
	}
	tBins := perturb.BinsOf(st.ItemizeRow(tuple, nil), make([]uint16, m))
	phi := make([]float64, m)
	for _, tc := range []struct {
		name          string
		allocs, bytes uint64
		run           func()
	}{
		{"shap.(*fit).add", 0, 0, func() {
			e.fit.n = samples - 1
			e.fit.add(tBins, tBins, true)
		}},
		{"shap.(*fit).solve", 0, 0, func() {
			if err := e.fit.solve(ridge, phi); err != nil {
				t.Fatal(err)
			}
		}},
		{"shap.pick", 0, 0, func() {
			pick(e.rng, e.perm, e.swaps, m/2)
			unpick(e.perm, e.swaps, m/2)
		}},
		// Attribution 48 B + weights 352 B.
		{"shap.(*Explainer).ExplainWithPool", 2, 400, func() { sink, _ = e.ExplainWithPool(tuple, nil) }},
		{"shap.(*Explainer).ExplainWithPool at 2000 samples", 2, 400, func() { sink, _ = e2k.ExplainWithPool(tuple, nil) }},
	} {
		if allocs, bytes := alloctest.PerCall(tc.run); allocs != tc.allocs || bytes != tc.bytes {
			t.Errorf("%s: %d allocs, %d B per call, want %d allocs, %d B", tc.name, allocs, bytes, tc.allocs, tc.bytes)
		}
	}
	_ = sink
}
