package obs

import (
	"encoding/json"
	"sort"
	"testing"
	"time"
)

// TestViewsFoldTheRegistry fills a recorder once and reads it back
// through every view: the JSON snapshot and the histogram itself must
// report the same numbers, because neither keeps a copy of its own.
func TestViewsFoldTheRegistry(t *testing.T) {
	r := NewRecorder()
	r.Counter(CounterInvocations).Add(400)
	r.Counter(CounterReusedSamples).Add(600)
	r.Gauge(GaugeTuplesTotal).Set(100)
	h := r.Histogram(HistExplainTuple)
	for _, d := range []time.Duration{time.Microsecond, time.Microsecond, time.Microsecond, 10 * time.Microsecond, 10 * time.Microsecond, time.Millisecond} {
		h.Observe(d)
	}

	// The JSON view goes over the wire and back, as a scraper reads it.
	raw, err := json.Marshal(r.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	snap := h.Snapshot()

	type row struct {
		what  string
		views []float64 // every view's reading of one fact; all must agree
	}
	tuple := m.Histograms[HistExplainTuple]
	bucket := map[int64]float64{}
	for _, b := range tuple.Buckets {
		bucket[b.UpperNS] = float64(b.Count)
	}
	rows := []row{
		{"classifier_invocations", []float64{400, float64(m.Counters[CounterInvocations])}},
		{"reused_samples", []float64{600, float64(m.Counters[CounterReusedSamples])}},
		{"tuples_total", []float64{100, float64(m.Gauges[GaugeTuplesTotal])}},
		{"explain_tuple_ns count", []float64{6, float64(tuple.Count), float64(h.Count())}},
		{"explain_tuple_ns sum", []float64{1_023_000, float64(tuple.SumNS), float64(snap.SumNS)}},
		{"explain_tuple_ns le 1023", []float64{3, bucket[1023]}},
		{"explain_tuple_ns le 16383", []float64{2, bucket[16383]}},
		{"explain_tuple_ns le 1048575", []float64{1, bucket[1048575]}},
		{"explain p50", []float64{float64(h.Quantile(0.50)), float64(tuple.P50NS), float64(snap.P50NS)}},
		{"explain p95", []float64{float64(h.Quantile(0.95)), float64(tuple.P95NS), float64(snap.P95NS)}},
		{"explain p99", []float64{float64(h.Quantile(0.99)), float64(tuple.P99NS), float64(snap.P99NS)}},
	}
	if len(m.Gauges) != 1 || len(m.Histograms) != 1 {
		t.Errorf("registry holds %d gauges and %d histograms, want tuples_total and explain_tuple_ns", len(m.Gauges), len(m.Histograms))
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].what < rows[j].what })
	for _, row := range rows {
		for _, v := range row.views[1:] {
			if v != row.views[0] {
				t.Errorf("%s: views disagree: %v", row.what, row.views)
				break
			}
		}
	}
}
