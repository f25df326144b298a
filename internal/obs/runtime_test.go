package obs

import (
	"bytes"
	"runtime"
	"sync"
	"testing"
	"time"
)

// runtimeTestSink keeps test allocations live so the runtime metrics
// the sampler reads actually move.
var runtimeTestSink [][]byte

// TestRuntimeSamplerLifecycle drives the full sampler lifecycle —
// start, tick, stop — and checks the telemetry lands in gauges,
// histograms, and events. Run under -race this also verifies
// the sampler goroutine's synchronisation against concurrent readers.
func TestRuntimeSamplerLifecycle(t *testing.T) {
	r := NewRecorder()
	s := r.StartRuntimeSampling(time.Millisecond)
	if s == nil {
		t.Fatal("StartRuntimeSampling returned nil sampler")
	}
	if again := r.StartRuntimeSampling(time.Hour); again != s {
		t.Fatal("second Start returned a different sampler; want idempotence")
	}

	// Concurrent readers while the sampler ticks: the Prometheus dump,
	// the metrics snapshot, and a gauge read must all be safe.
	var wg sync.WaitGroup
	stopReaders := make(chan struct{})
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stopReaders:
					return
				default:
				}
				var buf bytes.Buffer
				_ = r.WritePrometheus(&buf)
				r.Metrics()
				r.Gauge(GaugeRuntimeHeapLive).Value()
			}
		}()
	}

	// Allocate and force GC cycles so pauses and cycle counts move.
	for i := 0; i < 8; i++ {
		runtimeTestSink = append(runtimeTestSink, make([]byte, 1<<20))
		runtime.GC()
		time.Sleep(2 * time.Millisecond)
	}
	close(stopReaders)
	wg.Wait()

	// Every reading is a registry entry: the gauges for the latest values,
	// the two histograms for the distributions.
	gauges := r.Metrics().Gauges
	if _, ok := gauges[GaugeRuntimeHeapLive]; !ok {
		t.Fatal("no runtime gauges after sampling")
	}
	if gauges[GaugeRuntimeHeapLive] == 0 || gauges[GaugeRuntimeHeapGoal] == 0 || gauges[GaugeRuntimeAllocBytes] == 0 {
		t.Errorf("heap stats empty: %+v", gauges)
	}
	if got := gauges[GaugeRuntimeGoroutines]; got < 1 {
		t.Errorf("goroutines = %d", got)
	}
	if gauges[GaugeRuntimeGCCycles] == 0 {
		t.Errorf("gc cycles = 0 after %d forced GCs", 8)
	}
	if pause := r.Histogram(HistRuntimeGCPause); pause.Quantile(1) <= 0 || pause.Quantile(0.5) <= 0 {
		t.Errorf("gc pause quantiles empty: %+v", pause.Snapshot())
	}

	if got := r.Gauge(GaugeRuntimeHeapLive).Value(); got <= 0 {
		t.Errorf("heap live gauge = %d", got)
	}
	if got := r.Gauge(GaugeRuntimeGCCycles).Value(); got <= 0 {
		t.Errorf("gc cycles gauge = %d", got)
	}
	if got := r.Histogram(HistRuntimeGCPause).Count(); got <= 0 {
		t.Errorf("gc pause histogram count = %d", got)
	}
	if got := r.Histogram(HistRuntimeSchedLatency).Count(); got <= 0 {
		t.Errorf("sched latency histogram count = %d", got)
	}

	gcEvents, heapEvents := 0, 0
	events, _ := r.Events()
	for _, e := range events {
		switch e.Type {
		case EventGCCycle:
			gcEvents++
			if e.Itemsets <= 0 || e.Bytes < 0 {
				t.Errorf("malformed gc_cycle event: %+v", e)
			}
		case EventHeapSample:
			heapEvents++
			if e.Bytes <= 0 || e.Goroutines <= 0 {
				t.Errorf("malformed heap_sample event: %+v", e)
			}
		}
	}
	if gcEvents == 0 {
		t.Error("no gc_cycle events after forced GCs")
	}
	// Every tick this early in the dense prefix leaves one heap_sample.
	if heapEvents < 2 {
		t.Errorf("heap_sample events = %d, want >= 2 samples", heapEvents)
	}

	r.StopRuntimeSampling()
	// The readings must survive Stop, and a stopped recorder accepts both
	// a second Stop and a fresh Start.
	if got := r.Metrics().Gauges[GaugeRuntimeHeapLive]; got <= 0 {
		t.Fatal("runtime readings lost after StopRuntimeSampling")
	}
	r.StopRuntimeSampling()
	s2 := r.StartRuntimeSampling(time.Millisecond)
	if s2 == nil || s2 == s {
		t.Fatal("restart after Stop did not create a fresh sampler")
	}
	r.StopRuntimeSampling()
}

// TestRuntimeSamplerNilSafety: every entry point tolerates a nil
// recorder.
func TestRuntimeSamplerNilSafety(t *testing.T) {
	var r *Recorder
	if s := r.StartRuntimeSampling(time.Millisecond); s != nil {
		t.Error("nil recorder returned a sampler")
	}
	r.StopRuntimeSampling()
	if _, ok := r.Metrics().Gauges[GaugeRuntimeHeapLive]; ok {
		t.Error("nil recorder reported runtime readings")
	}
}

// TestNowAllocs: the MemStats-delta marks must report monotonic,
// nonzero growth across a deliberate allocation burst.
func TestNowAllocs(t *testing.T) {
	mark := NowAllocs()
	if mark.Bytes == 0 || mark.Objects == 0 {
		t.Fatalf("initial mark empty: %+v", mark)
	}
	for i := 0; i < 100; i++ {
		runtimeTestSink = append(runtimeTestSink, make([]byte, 16<<10))
	}
	d := mark.Since()
	if d.Bytes <= 0 || d.Objects <= 0 {
		t.Fatalf("delta after allocating: %+v", d)
	}
	// runtime/metrics allocation counters are flushed from per-P caches
	// lazily, so the delta can run slightly behind the exact total; half
	// the deliberate burst is a safe floor.
	if d.Bytes < 100*16<<10/2 {
		t.Errorf("delta bytes %d < half the %d deliberately allocated", d.Bytes, 100*16<<10)
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

// TestObserveBucketed: folding n observations at once must match n
// individual Observes in count, sum, min/max, and quantiles.
func TestObserveBucketed(t *testing.T) {
	a := newHistogram()
	b := newHistogram()
	for i := 0; i < 5; i++ {
		a.Observe(200 * time.Nanosecond)
	}
	a.Observe(7 * time.Nanosecond)
	b.observeBucketed(200, 5)
	b.observeBucketed(7, 1)
	if a.Count() != b.Count() || a.Sum() != b.Sum() {
		t.Fatalf("count/sum mismatch: (%d, %v) vs (%d, %v)", a.Count(), a.Sum(), b.Count(), b.Sum())
	}
	for _, q := range []float64{0, 0.5, 0.95, 1} {
		if a.Quantile(q) != b.Quantile(q) {
			t.Errorf("Quantile(%v): %v vs %v", q, a.Quantile(q), b.Quantile(q))
		}
	}
	// Degenerate folds are no-ops.
	before := b.Count()
	b.observeBucketed(100, 0)
	b.observeBucketed(100, -3)
	(*Histogram)(nil).observeBucketed(100, 5)
	if b.Count() != before {
		t.Error("zero/negative-count folds changed the histogram")
	}
}
