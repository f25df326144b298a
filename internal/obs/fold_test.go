package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"
)

// promSeries parses a text exposition into series → value, keyed the
// way the line spells it (`name{labels}`).
func promSeries(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := map[string]float64{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		cut := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[cut+1:], 64)
		if err != nil {
			t.Fatalf("sample line %q: %v", line, err)
		}
		out[line[:cut]] = v
	}
	return out
}

// TestViewsFoldTheRegistry fills a recorder once and reads it back
// through every view: the JSON snapshot, the Prometheus text and
// /progress must report the same numbers, because none of them keeps a
// copy of its own.
func TestViewsFoldTheRegistry(t *testing.T) {
	r := NewRecorder()
	r.Counter(CounterInvocations).Add(400)
	r.Counter(CounterReusedSamples).Add(600)
	r.Gauge(GaugeTuplesTotal).Set(100)
	h := r.Histogram(HistExplainTuple)
	for _, d := range []time.Duration{time.Microsecond, time.Microsecond, time.Microsecond, 10 * time.Microsecond, 10 * time.Microsecond, time.Millisecond} {
		h.Observe(d)
	}
	clk := &fakeClock{now: time.Unix(1000, 0)}
	r.SetSLO(NewSLOTracker(SLOConfig{Window: time.Minute, LatencyTarget: 100 * time.Millisecond, Clock: clk.Now}))
	r.RecordSLO(10*time.Millisecond, true)
	r.RecordSLO(300*time.Millisecond, false)
	r.StartRuntimeSampling(time.Hour) // the immediate sample, then Stop's final one
	r.StopRuntimeSampling()

	// The JSON view goes over the wire and back, as a scraper reads it.
	raw, err := json.Marshal(r.Metrics())
	if err != nil {
		t.Fatal(err)
	}
	var m Metrics
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	prom := promSeries(t, buf.String())
	p := r.Progress()
	slo, _ := r.SLOStatus()

	type row struct {
		what  string
		views []float64 // every view's reading of one fact; all must agree
	}
	tuple := m.Histograms[HistExplainTuple]
	rows := []row{
		{"classifier_invocations", []float64{400, float64(m.Counters[CounterInvocations]), prom["shahin_classifier_invocations"], float64(p.Invocations)}},
		{"reused_samples", []float64{600, float64(m.Counters[CounterReusedSamples]), prom["shahin_reused_samples"], float64(p.ReusedSamples)}},
		{"tuples_total", []float64{100, float64(m.Gauges[GaugeTuplesTotal]), prom["shahin_tuples_total"], float64(p.TuplesTotal)}},
		{"reuse rate", []float64{0.6, p.ReuseRate}},
		{"explain_tuple_ns count", []float64{6, float64(tuple.Count), float64(h.Count())}},
		{"explain_tuple_ns sum", []float64{1_023_000, float64(tuple.SumNS), float64(h.Sum())}},
		{"explain_tuple_ns le 1023", []float64{3, prom[`shahin_explain_tuple_ns_bucket{le="1023"}`]}},
		{"explain_tuple_ns le 16383", []float64{5, prom[`shahin_explain_tuple_ns_bucket{le="16383"}`]}},
		{"explain_tuple_ns le 1048575", []float64{6, prom[`shahin_explain_tuple_ns_bucket{le="1048575"}`]}},
		{"explain p50", []float64{float64(h.Quantile(0.50)), float64(tuple.P50NS), float64(msToDur(p.ExplainP50MS))}},
		{"explain p95", []float64{float64(h.Quantile(0.95)), float64(tuple.P95NS), float64(msToDur(p.ExplainP95MS))}},
		{"explain p99", []float64{float64(h.Quantile(0.99)), float64(tuple.P99NS), float64(msToDur(p.ExplainP99MS))}},
		{"slo window", []float64{60_000, slo.WindowMS, prom["shahin_slo_window_ms"]}},
	}
	for _, o := range slo.Objectives {
		label := fmt.Sprintf("{objective=%q}", o.Name)
		met := 0.0
		if o.Met {
			met = 1
		}
		rows = append(rows,
			row{"slo compliance " + o.Name, []float64{0.5, o.Compliance, prom["shahin_slo_compliance"+label]}},
			row{"slo burn rate " + o.Name, []float64{o.BurnRate, prom["shahin_slo_burn_rate"+label]}},
			row{"slo met " + o.Name, []float64{0, met, prom["shahin_slo_met"+label]}},
		)
	}
	// Whatever else is registered — the runtime sample's seven gauges and
	// two histograms among it — reads the same in both formats.
	for name, v := range m.Counters {
		rows = append(rows, row{name, []float64{float64(v), prom["shahin_"+name]}})
	}
	for name, v := range m.Gauges {
		rows = append(rows, row{name, []float64{float64(v), prom["shahin_"+name]}})
	}
	for name, s := range m.Histograms {
		pn := "shahin_" + name
		rows = append(rows,
			row{name + " count", []float64{float64(s.Count), prom[pn+"_count"], prom[pn+`_bucket{le="+Inf"}`]}},
			row{name + " sum", []float64{float64(s.SumNS), prom[pn+"_sum"]}},
		)
		var cum int64
		for _, b := range s.Buckets {
			cum += b.Count
			rows = append(rows, row{fmt.Sprintf("%s le %d", name, b.UpperNS), []float64{float64(cum), prom[fmt.Sprintf(`%s_bucket{le="%d"}`, pn, b.UpperNS)]}})
		}
	}
	if len(m.Gauges) != 8 || len(m.Histograms) != 3 {
		t.Errorf("registry holds %d gauges and %d histograms, want tuples_total + 7 runtime gauges and explain_tuple_ns + 2 runtime histograms", len(m.Gauges), len(m.Histograms))
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

	// One histogram update: n observations folded at once are n Observes.
	for _, fold := range []struct{ ns, n int64 }{{200, 5}, {7, 1}, {0, 3}, {-4, 2}, {1 << 40, 1000}} {
		one, bulk := newHistogram(), newHistogram()
		for _, hist := range []*Histogram{one, bulk} {
			hist.Observe(50 * time.Nanosecond) // a prior min and max to move, or not
		}
		for i := int64(0); i < fold.n; i++ {
			one.Observe(time.Duration(fold.ns))
		}
		bulk.observeBucketed(fold.ns, fold.n)
		if !reflect.DeepEqual(one, bulk) {
			t.Errorf("observeBucketed(%d, %d) = %+v, %d × Observe = %+v", fold.ns, fold.n, bulk.Snapshot(), fold.n, one.Snapshot())
		}
	}
}
