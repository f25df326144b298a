package obs

import (
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRecorder()
	c := r.Counter("c")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if r.Counter("c") != c {
		t.Fatal("second lookup returned a different counter")
	}
	g := r.Gauge("g")
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	m := r.Metrics()
	if m.Counters["c"] != 5 || m.Gauges["g"] != 5 {
		t.Fatalf("metrics snapshot %+v", m)
	}
}

func TestHistogram(t *testing.T) {
	r := NewRecorder()
	h := r.Histogram("lat")
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d", h.Count())
	}
	s := h.Snapshot()
	if want := int64(5050 * time.Microsecond); s.SumNS != want {
		t.Fatalf("sum = %d, want %d", s.SumNS, want)
	}
	if s.MinNS != int64(time.Microsecond) || s.MaxNS != int64(100*time.Microsecond) {
		t.Fatalf("min/max = %d/%d", s.MinNS, s.MaxNS)
	}
	// Quantiles are bucket-resolution: p50 must bracket the true median
	// within a factor of two, and never exceed the observed max.
	p50 := time.Duration(s.P50NS)
	if p50 < 25*time.Microsecond || p50 > 100*time.Microsecond {
		t.Fatalf("p50 = %v outside [25µs, 100µs]", p50)
	}
	if s.P99NS > s.MaxNS {
		t.Fatalf("p99 %d exceeds max %d", s.P99NS, s.MaxNS)
	}
	var total int64
	for _, b := range s.Buckets {
		total += b.Count
	}
	if total != 100 {
		t.Fatalf("bucket counts sum to %d", total)
	}
}

func TestHistogramEmptyAndNegative(t *testing.T) {
	r := NewRecorder()
	h := r.Histogram("lat")
	if h.Quantile(0.5) != 0 {
		t.Fatal("quantile of empty histogram should be 0")
	}
	if s := h.Snapshot(); s.Count != 0 || len(s.Buckets) != 0 {
		t.Fatalf("empty snapshot %+v", s)
	}
	h.Observe(-time.Second) // clamped to 0, must not panic or corrupt
	if s := h.Snapshot(); s.Count != 1 || s.SumNS != 0 {
		t.Fatalf("after negative observe: count=%d sum=%d", s.Count, s.SumNS)
	}
}

// TestHistogramQuantileEdges pins the quantile edge semantics: empty
// histograms answer 0, single-sample histograms answer that sample for
// every q, and q is clamped into [0, 1] with min/max at the ends.
func TestHistogramQuantileEdges(t *testing.T) {
	empty := newHistogram()
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty.Quantile(%v) = %v, want 0", q, got)
		}
	}

	single := newHistogram()
	single.Observe(100 * time.Nanosecond)
	for _, q := range []float64{-0.5, 0, 0.25, 0.5, 0.99, 1, 1.5} {
		if got := single.Quantile(q); got != 100*time.Nanosecond {
			t.Errorf("single.Quantile(%v) = %v, want 100ns", q, got)
		}
	}

	multi := newHistogram()
	multi.Observe(10 * time.Nanosecond)
	multi.Observe(1000 * time.Nanosecond)
	if got := multi.Quantile(0); got != 10*time.Nanosecond {
		t.Errorf("Quantile(0) = %v, want observed min", got)
	}
	if got := multi.Quantile(1); got != 1000*time.Nanosecond {
		t.Errorf("Quantile(1) = %v, want observed max", got)
	}
	// Interior quantiles stay inside [min, max] even though bucket
	// upper bounds are powers of two.
	for _, q := range []float64{0.01, 0.5, 0.99} {
		got := multi.Quantile(q)
		if got < 10*time.Nanosecond || got > 1000*time.Nanosecond {
			t.Errorf("Quantile(%v) = %v outside [10ns, 1000ns]", q, got)
		}
	}
}

// Every instrumentation method must no-op on nil receivers: that is the
// zero-overhead contract Options.Recorder == nil relies on.
func TestNilSafety(t *testing.T) {
	var r *Recorder
	r.Counter("x").Inc()
	r.Counter("x").Add(3)
	if r.Counter("x").Value() != 0 {
		t.Fatal("nil counter should read 0")
	}
	r.Gauge("g").Set(1)
	r.Histogram("h").Observe(time.Second)
	if r.Histogram("h").Count() != 0 {
		t.Fatal("nil histogram should read 0")
	}
	s := r.StartSpan("root")
	s.SetAttr("k", 1)
	c := s.Child("child")
	c.End()
	if s.End() != 0 || s.Duration() != 0 {
		t.Fatal("nil span should report zero duration")
	}
	if r.Trace() != nil {
		t.Fatal("nil recorder should trace nothing")
	}
	m := r.Metrics()
	if len(m.Counters) != 0 || len(m.Gauges) != 0 || len(m.Histograms) != 0 {
		t.Fatalf("nil metrics %+v", m)
	}
}

func TestSpanNesting(t *testing.T) {
	r := NewRecorder()
	root := r.StartSpan("batch")
	root.SetAttr("tuples", 42)
	mine := root.Child("mine")
	time.Sleep(2 * time.Millisecond)
	mine.End()
	open := root.Child("explain") // left open on purpose
	time.Sleep(time.Millisecond)

	if d := open.Duration(); d <= 0 {
		t.Fatalf("open span duration = %v", d)
	}
	dumps := r.Trace()
	if len(dumps) != 1 {
		t.Fatalf("got %d roots", len(dumps))
	}
	d := dumps[0]
	if d.Name != "batch" || !d.InFlight {
		t.Fatalf("root dump %+v", d)
	}
	if d.Attrs["tuples"] != 42 {
		t.Fatalf("attrs %+v", d.Attrs)
	}
	if len(d.Children) != 2 {
		t.Fatalf("got %d children", len(d.Children))
	}
	if d.Children[0].Name != "mine" || d.Children[0].InFlight {
		t.Fatalf("mine dump %+v", d.Children[0])
	}
	if d.Children[1].Name != "explain" || !d.Children[1].InFlight {
		t.Fatalf("explain dump %+v", d.Children[1])
	}
	if d.Children[0].StartMS < d.StartMS {
		t.Fatal("child starts before parent")
	}

	first := mine.End()
	time.Sleep(time.Millisecond)
	if again := mine.End(); again != first {
		t.Fatalf("End not idempotent: %v then %v", first, again)
	}
	root.End()
}

// TestConcurrentUse hammers one recorder from many goroutines; run under
// -race it proves counters, histograms, and spans are goroutine-safe.
func TestConcurrentUse(t *testing.T) {
	r := NewRecorder()
	root := r.StartSpan("batch")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctr := r.Counter("n")
			hist := r.Histogram("lat")
			for i := 0; i < 1000; i++ {
				ctr.Inc()
				hist.Observe(time.Duration(i))
				if i%100 == 0 {
					child := root.Child("explain")
					child.SetAttr("i", i)
					child.End()
				}
			}
			r.Metrics() // snapshot while writers are live
			r.Trace()
		}()
	}
	wg.Wait()
	root.End()
	if got := r.Counter("n").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := r.Histogram("lat").Count(); got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
	if got := len(r.Trace()[0].Children); got != 80 {
		t.Fatalf("children = %d, want 80", got)
	}
}
