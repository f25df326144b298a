package perturb

import (
	"testing"

	"shahin/internal/alloctest"
	"shahin/internal/dataset"
)

// TestHotpathAllocs pins what every //shahin:hotpath function of this
// package allocates per call on the 42-attribute census twin: the fills,
// the encode and the bin match nothing, the two sample constructors
// exactly their Row and Items (the bins they fill stay on the stack).
func TestHotpathAllocs(t *testing.T) {
	d, st, g := benchEnv(t)
	p := st.Schema.NumAttrs()
	tuple := d.Rows(0, 1)[0]
	tItems := st.ItemizeRow(tuple, nil)
	// The pooled sample is drawn from the frozen itemset, so MatchesBins
	// takes its all-match path — the one the reuse loop takes.
	frozen := dataset.Itemset{tItems[0], tItems[p/2]}
	freeze := make([]bool, p)
	freeze[0], freeze[p/2] = true, true
	pooled := g.ForItemset(frozen)
	row, enc, bins := make([]float64, p), make([]float64, p), make([]uint16, p)
	pooledBins := make([]uint16, p)
	g.FillItemset(frozen, row, pooledBins)

	for _, tc := range []struct {
		name          string
		allocs, bytes uint64
		run           func()
	}{
		{"perturb.(*Generator).fill", 0, 0, func() { g.fill(frozen[1:], tuple, freeze, row, bins) }},
		{"perturb.(*Generator).FillItemset", 0, 0, func() { g.FillItemset(frozen, row, bins) }},
		{"perturb.(*Generator).FillItemset, row only", 0, 0, func() { g.FillItemset(frozen, row, nil) }},
		{"perturb.(*Generator).FillTuple", 0, 0, func() { g.FillTuple(tuple, freeze, row, bins) }},
		{"perturb.(*Generator).ForItemset", 2, 528, func() { benchSample = g.ForItemset(frozen) }},
		{"perturb.(*Generator).ForTuple", 2, 528, func() { benchSample = g.ForTuple(tuple, freeze) }},
		{"perturb.BinaryEncode", 0, 0, func() { benchVec = BinaryEncode(tItems, pooled.Items, enc) }},
		{"perturb.MatchesBins", 0, 0, func() { benchBool = MatchesBins(frozen, pooledBins) }},
	} {
		if allocs, bytes := alloctest.PerCall(tc.run); allocs != tc.allocs || bytes != tc.bytes {
			t.Errorf("%s: %d allocs, %d B per call, want %d allocs, %d B", tc.name, allocs, bytes, tc.allocs, tc.bytes)
		}
	}
}
