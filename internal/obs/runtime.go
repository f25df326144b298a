package obs

import (
	"math"
	"runtime/metrics"
	"sync"
	"time"
)

// Runtime telemetry metric names, maintained by the RuntimeSampler.
// The gauges mirror runtime/metrics readings; the histograms accumulate
// the runtime's own GC-pause and scheduler-latency distributions folded
// into the recorder's power-of-two buckets, so they render on /metrics
// (Prometheus included) exactly like the pipeline's latency
// histograms.
const (
	// GaugeRuntimeHeapLive is the live heap (bytes occupied by reachable
	// plus not-yet-swept objects); GaugeRuntimeHeapGoal the heap size the
	// GC is currently aiming for.
	GaugeRuntimeHeapLive = "runtime_heap_live_bytes"
	GaugeRuntimeHeapGoal = "runtime_heap_goal_bytes"
	// GaugeRuntimeAllocBytes / GaugeRuntimeAllocObjects are cumulative
	// allocation totals since process start.
	GaugeRuntimeAllocBytes   = "runtime_alloc_bytes_total"
	GaugeRuntimeAllocObjects = "runtime_alloc_objects_total"
	// GaugeRuntimeGoroutines is the live goroutine count.
	GaugeRuntimeGoroutines = "runtime_goroutines"
	// GaugeRuntimeGCCycles counts completed GC cycles.
	GaugeRuntimeGCCycles = "runtime_gc_cycles"
	// GaugeRuntimeGCCPUPPM is the fraction of available CPU time spent
	// in the garbage collector since process start, in parts per million
	// (gauges are integers; 10000 ppm = 1 %).
	GaugeRuntimeGCCPUPPM = "runtime_gc_cpu_ppm"
	// HistRuntimeGCPause / HistRuntimeSchedLatency hold the runtime's
	// stop-the-world pause and goroutine scheduling latency
	// distributions, folded in at bucket resolution.
	HistRuntimeGCPause      = "runtime_gc_pause_ns"
	HistRuntimeSchedLatency = "runtime_sched_latency_ns"
)

// DefaultRuntimeSampleInterval is the sampler tick used when
// StartRuntimeSampling is given a non-positive interval.
const DefaultRuntimeSampleInterval = 100 * time.Millisecond

// heap_sample event decimation: the first runtimeEventDense ticks each
// emit an event (so short bench runs get full resolution), after which
// only every runtimeEventStride-th tick does — a long-running server
// sampling at 100 ms would otherwise crowd every provenance event out
// of the bounded ring.
const (
	runtimeEventDense  = 512
	runtimeEventStride = 16
)

// RuntimeSampler periodically reads runtime/metrics into a recorder:
// heap and GC gauges, GC-pause and scheduler-latency histogram deltas,
// and bounded gc_cycle / heap_sample events so Chrome traces show GC
// activity against request spans. Start it with
// Recorder.StartRuntimeSampling; it takes one sample immediately, one
// per tick, and a final one on Stop, so even sub-interval runs are
// sampled.
type RuntimeSampler struct {
	rec      *Recorder
	interval time.Duration
	stop     chan struct{}
	done     chan struct{}

	// Gauges and histograms resolved once at start.
	heapLive, heapGoal, allocBytes, allocObjs *Gauge
	goroutines, gcCycles, gcCPU               *Gauge
	pauseHist, schedHist                      *Histogram

	mu         sync.Mutex
	samples    []metrics.Sample
	prevPause  []uint64
	prevSched  []uint64
	prevCycles uint64
	ticks      int64
}

// The runtime/metrics samples the sampler reads, by read position. All
// are present since go1.20, so the go.mod floor (1.22) is safe.
const (
	idxHeapLive = iota
	idxHeapGoal
	idxAllocBytes
	idxAllocObjs
	idxGoroutines
	idxGCCycles
	idxGCPauses
	idxSchedLat
	idxGCCPU
	idxTotalCPU
)

var sampleNames = []string{
	idxHeapLive:   "/memory/classes/heap/objects:bytes",
	idxHeapGoal:   "/gc/heap/goal:bytes",
	idxAllocBytes: "/gc/heap/allocs:bytes",
	idxAllocObjs:  "/gc/heap/allocs:objects",
	idxGoroutines: "/sched/goroutines:goroutines",
	idxGCCycles:   "/gc/cycles/total:gc-cycles",
	idxGCPauses:   "/gc/pauses:seconds",
	idxSchedLat:   "/sched/latencies:seconds",
	idxGCCPU:      "/cpu/classes/gc/total:cpu-seconds",
	idxTotalCPU:   "/cpu/classes/total:cpu-seconds",
}

// StartRuntimeSampling attaches a runtime telemetry sampler to the
// recorder and starts its tick loop (interval <= 0 selects
// DefaultRuntimeSampleInterval). Idempotent: if a sampler is already
// running it is returned unchanged. Returns nil on a nil receiver.
func (r *Recorder) StartRuntimeSampling(interval time.Duration) *RuntimeSampler {
	if r == nil {
		return nil
	}
	if interval <= 0 {
		interval = DefaultRuntimeSampleInterval
	}
	// Resolved before the registry lock below: the accessors take it.
	s := &RuntimeSampler{
		rec:        r,
		interval:   interval,
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
		heapLive:   r.Gauge(GaugeRuntimeHeapLive),
		heapGoal:   r.Gauge(GaugeRuntimeHeapGoal),
		allocBytes: r.Gauge(GaugeRuntimeAllocBytes),
		allocObjs:  r.Gauge(GaugeRuntimeAllocObjects),
		goroutines: r.Gauge(GaugeRuntimeGoroutines),
		gcCycles:   r.Gauge(GaugeRuntimeGCCycles),
		gcCPU:      r.Gauge(GaugeRuntimeGCCPUPPM),
		pauseHist:  r.Histogram(HistRuntimeGCPause),
		schedHist:  r.Histogram(HistRuntimeSchedLatency),
		samples:    make([]metrics.Sample, len(sampleNames)),
	}
	for i, name := range sampleNames {
		s.samples[i].Name = name
	}
	r.mu.Lock()
	running := r.runtime
	if running == nil {
		r.runtime = s
	}
	r.mu.Unlock()
	if running != nil {
		return running
	}
	s.sampleOnce(false)
	go s.loop()
	return s
}

// StopRuntimeSampling stops the attached sampler after one final
// sample, blocking until its goroutine exits. Idempotent and nil-safe;
// the final readings stay in the registry after stopping.
func (r *Recorder) StopRuntimeSampling() {
	if r == nil {
		return
	}
	r.mu.Lock()
	s := r.runtime
	r.runtime = nil
	r.mu.Unlock()
	if s == nil {
		return
	}
	close(s.stop)
	<-s.done
}

// loop is the sampler goroutine: one sample per tick until stopped,
// then a final sample so short runs still capture their endgame.
func (s *RuntimeSampler) loop() {
	defer close(s.done)
	t := time.NewTicker(s.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.sampleOnce(false)
		case <-s.stop:
			s.sampleOnce(true)
			return
		}
	}
}

// sampleOnce reads every runtime metric, updates the gauges, folds the
// histogram deltas, and emits bounded events. final marks the closing
// sample taken by Stop.
func (s *RuntimeSampler) sampleOnce(final bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	metrics.Read(s.samples)

	heapLive := int64(sampleUint64(s.samples[idxHeapLive]))
	goroutines := int64(sampleUint64(s.samples[idxGoroutines]))
	cycles := sampleUint64(s.samples[idxGCCycles])

	s.heapLive.Set(heapLive)
	s.heapGoal.Set(int64(sampleUint64(s.samples[idxHeapGoal])))
	s.allocBytes.Set(int64(sampleUint64(s.samples[idxAllocBytes])))
	s.allocObjs.Set(int64(sampleUint64(s.samples[idxAllocObjs])))
	s.goroutines.Set(goroutines)
	s.gcCycles.Set(int64(cycles))
	s.gcCPU.Set(int64(cpuFraction(s.samples[idxGCCPU], s.samples[idxTotalCPU]) * 1e6))

	var maxPause int64
	s.prevPause, maxPause = foldFloat64Histogram(s.samples[idxGCPauses], s.prevPause, s.pauseHist)
	s.prevSched, _ = foldFloat64Histogram(s.samples[idxSchedLat], s.prevSched, s.schedHist)

	// gc_cycle fires whenever cycles completed since the last tick;
	// heap_sample is decimated after the dense prefix (see the stride
	// constants) so the bounded event ring keeps its provenance tail.
	if cycles > s.prevCycles && s.ticks > 0 {
		s.rec.Emit(Event{
			Type: EventGCCycle, Tuple: -1,
			Itemsets: int(cycles - s.prevCycles),
			Bytes:    heapLive,
			DurMS:    durToMS(time.Duration(maxPause)),
		})
	}
	s.prevCycles = cycles
	if s.ticks < runtimeEventDense || s.ticks%runtimeEventStride == 0 || final {
		s.rec.Emit(Event{
			Type: EventHeapSample, Tuple: -1,
			Bytes:      heapLive,
			Goroutines: goroutines,
		})
	}
	s.ticks++
}

// sampleUint64 reads a numeric sample defensively: the kinds here are
// all KindUint64 today, but a kind change in a future runtime must not
// panic the sampler.
func sampleUint64(s metrics.Sample) uint64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return s.Value.Uint64()
	case metrics.KindFloat64:
		if v := s.Value.Float64(); v > 0 {
			return uint64(v)
		}
	}
	return 0
}

// cpuFraction derives gc/total CPU time, clamped to [0, 1]; 0 when the
// runtime does not expose the CPU classes.
func cpuFraction(gc, total metrics.Sample) float64 {
	if gc.Value.Kind() != metrics.KindFloat64 || total.Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	t := total.Value.Float64()
	if t <= 0 {
		return 0
	}
	f := gc.Value.Float64() / t
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}

// foldFloat64Histogram folds the delta between a runtime histogram and
// its previous snapshot into a recorder histogram (each runtime bucket
// lands at its upper bound, converted seconds → ns) and returns the new
// snapshot plus the largest bucket bound that gained counts. The first
// fold takes the whole process history — deliberate, so a sampler
// started at run begin captures every pause.
func foldFloat64Histogram(s metrics.Sample, prev []uint64, dst *Histogram) ([]uint64, int64) {
	if s.Value.Kind() != metrics.KindFloat64Histogram {
		return prev, 0
	}
	h := s.Value.Float64Histogram()
	if h == nil || len(h.Counts) == 0 {
		return prev, 0
	}
	if len(prev) != len(h.Counts) {
		prev = make([]uint64, len(h.Counts))
	}
	var maxNS int64
	for i, c := range h.Counts {
		d := c - prev[i]
		prev[i] = c
		if d == 0 {
			continue
		}
		ns := runtimeBucketNS(h.Buckets, i)
		dst.observeBucketed(ns, int64(d))
		if ns > maxNS {
			maxNS = ns
		}
	}
	return prev, maxNS
}

// runtimeBucketNS converts runtime histogram bucket i (bracketed by
// Buckets[i] and Buckets[i+1], in seconds) to a representative
// nanosecond value: the upper bound, falling back to the lower bound
// for the +Inf tail bucket.
func runtimeBucketNS(bounds []float64, i int) int64 {
	if i+1 >= len(bounds) {
		return 0
	}
	v := bounds[i+1]
	if math.IsInf(v, 1) {
		v = bounds[i]
	}
	if math.IsInf(v, -1) || math.IsNaN(v) || v < 0 {
		return 0
	}
	return int64(v * 1e9)
}
