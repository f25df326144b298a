// Package obs is the observability substrate of the explanation
// pipeline: stage-scoped spans with nested timings, an atomic
// counter/gauge registry, log-scale latency histograms, a bounded event
// log and root-span forest, a slow-request exemplar ring, and an opt-in
// HTTP server (Serve) whose index at / lists what it mounts. It is
// stdlib-only and safe for concurrent use.
//
// Each fact is held once, in one encoding: a reading is its registry
// entry, a stage its span and a served request its RequestTrace;
// /metrics, the Chrome trace and a request's span tree are JSON folds
// of those.
//
// Everything is nil-receiver-safe: a nil *Recorder — and the nil
// *Counter, *Gauge, *Histogram, and *Span values it hands out — turns
// the entire instrumentation surface into no-ops, so pipeline code
// instruments unconditionally and a run without a recorder pays nothing
// beyond a nil check.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Span names the pipeline emits. Batch runs produce a "batch" root with
// "mine", "pool-build" (nesting "pre-label"), and "explain" children;
// a stream produces one "stream" root per tuple, with a "re-mine" child
// when the tuple renews its pool.
const (
	StageBatch      = "batch"
	StageStream     = "stream"
	StageSequential = "sequential"
	StageMine       = "mine"
	StagePoolBuild  = "pool-build"
	StagePreLabel   = "pre-label"
	StageExplain    = "explain"
	StageRemine     = "re-mine"
	// StageWarmFlush is one flush of the warm (serving) variant: its
	// tuples streamed against the persistent pool, nesting a
	// "re-mine" child (with "mine" and "pool-build") per renew.
	StageWarmFlush = "warm-flush"
)

// Well-known metric names. The pipeline maintains these; /metrics
// serves them.
const (
	// CounterTuplesDone counts explanations completed so far.
	CounterTuplesDone = "tuples_done"
	// CounterInvocations counts classifier Predict calls, including
	// pool pre-labelling.
	CounterInvocations = "classifier_invocations"
	// CounterPoolInvocations counts the Predict calls spent labelling
	// pooled perturbations up front.
	CounterPoolInvocations = "pool_invocations"
	// CounterReusedSamples counts pooled samples served in place of
	// fresh classifier calls.
	CounterReusedSamples = "reused_samples"
	// CounterCacheHits / Misses / Evictions mirror the perturbation
	// repository's activity.
	CounterCacheHits      = "cache_hits"
	CounterCacheMisses    = "cache_misses"
	CounterCacheEvictions = "cache_evictions"
	// CounterEventsDropped counts events the log's capacity bound
	// overwrote: nonzero means an event dump no longer reconciles with
	// the report. counterSpansDropped counts root spans overwritten the
	// same way: nonzero means the Chrome trace no longer covers the
	// whole run. Both are registered from birth, so every scrape
	// carries them.
	CounterEventsDropped = "events_dropped"
	counterSpansDropped  = "spans_dropped"
	// GaugeTuplesTotal is the batch size when known up front (0 for an
	// unbounded stream).
	GaugeTuplesTotal = "tuples_total"
	// HistPredict is the latency distribution of classifier Predict
	// calls; HistExplainTuple the per-tuple explanation times.
	HistPredict      = "predict_ns"
	HistExplainTuple = "explain_tuple_ns"

	// Fault-tolerance counters, maintained by internal/fault and the
	// core degradation ladder. CounterFaultsInjected / CounterFaultOutages
	// count injected chaos faults; CounterRetries counts backend
	// re-attempts; CounterBreakerOpens / CounterBreakerRejected track the
	// circuit breaker; CounterDegradedAnswers counts predictions served
	// from pooled labels or the label cache while the backend was
	// unavailable, and CounterFailedAnswers those with no fallback at all.
	CounterFaultsInjected  = "fault_injected_errors"
	CounterFaultOutages    = "fault_outage_errors"
	CounterRetries         = "fault_retries"
	CounterBreakerOpens    = "fault_breaker_opens"
	CounterBreakerRejected = "fault_breaker_rejected"
	CounterDegradedAnswers = "fault_degraded_answers"
	CounterFailedAnswers   = "fault_failed_answers"

	// Serving-layer metrics, maintained by internal/serve.
	// CounterServeRequests counts tuples asked of the server;
	// CounterServeStoreHits those answered straight from the warm
	// explanation store; CounterServeTimeouts computed tuples whose
	// deadline expired before they were answered; CounterServeRejected
	// tuples shed at admission because the queue was full.
	// GaugeServeQueueDepth is how many tuples wait behind the one being
	// explained. HistServeWait records time spent at the warm
	// explainer's gate; HistServeRequest end-to-end request latency.
	CounterServeRequests  = "serve_requests"
	CounterServeStoreHits = "serve_store_hits"
	CounterServeTimeouts  = "serve_timeouts"
	CounterServeRejected  = "serve_rejected"
	GaugeServeQueueDepth  = "serve_queue_depth"
	HistServeWait         = "serve_wait_ns"
	HistServeRequest      = "serve_request_ns"

	// Occupancy gauges, set by the owning layer so scrapes see current
	// state rather than having to replay the event log.
	// GaugeWarmPooledItemsets is the number of itemsets currently
	// holding materialised perturbations in a Warm explainer's pool;
	// GaugeServeStoreSize the explanations held by the serving store;
	// GaugeBreakerState the circuit breaker's state encoded 0 = closed,
	// 1 = open, 2 = half-open.
	GaugeWarmPooledItemsets = "warm_pooled_itemsets"
	GaugeServeStoreSize     = "serve_store_size"
	GaugeBreakerState       = "fault_breaker_state"

	// Router-tier metrics, maintained by internal/router.
	// CounterRouterRequests counts requests accepted by the front tier;
	// CounterRouterFailovers forwards re-routed to a fallback ring node
	// after the affinity replica failed or was open;
	// CounterRouterShed requests refused at admission with 429 because
	// the in-flight bound was reached; CounterRouterUnrouted requests
	// for which every replica in the failover sequence failed (returned
	// as 503, never dropped). HistRouterRequest is the end-to-end
	// router-side request latency. Per-replica health rides gauges named
	// GaugeReplicaUpPrefix + the replica name (1 healthy, 0 unhealthy)
	// next to the per-replica breaker-state gauges (GaugeBreakerState +
	// "_" + name).
	CounterRouterRequests  = "router_requests"
	CounterRouterFailovers = "router_failovers"
	CounterRouterShed      = "router_shed"
	CounterRouterUnrouted  = "router_unrouted"
	HistRouterRequest      = "router_request_ns"
	GaugeReplicaUpPrefix   = "router_replica_up_"
)

// Recorder collects spans, counters, gauges, and histograms from a run
// (or several runs — counters accumulate). All methods are safe for
// concurrent use and safe on a nil receiver.
type Recorder struct {
	start    time.Time
	events   *ring[Event]
	spans    *ring[*Span] // root spans; children hang off them
	requests *requestRing

	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRecorder returns an empty recorder; its uptime clock starts now.
func NewRecorder() *Recorder {
	events, spans := &Counter{}, &Counter{}
	r := &Recorder{
		start:    time.Now(),
		events:   newRing[Event](events),
		spans:    newRing[*Span](spans),
		requests: newRequestRing(0),
		counters: map[string]*Counter{CounterEventsDropped: events, counterSpansDropped: spans},
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
	r.requests.epoch = r.start
	return r
}

// uptimeMS returns milliseconds since the recorder's epoch.
func (r *Recorder) uptimeMS() float64 {
	if r == nil {
		return 0
	}
	return durToMS(time.Since(r.start))
}

// Counter is a monotonically increasing atomic counter.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n. No-op on a nil receiver.
func (c *Counter) Add(n int64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value.
type Gauge struct{ v atomic.Int64 }

// Set stores v. No-op on a nil receiver.
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the gauge by delta. No-op on a nil receiver.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// getOrCreate returns the metric registered under name in one of the
// recorder's three maps, registering mk's metric on a miss. A hit takes
// only the read lock.
func getOrCreate[T any](r *Recorder, m map[string]*T, name string, mk func() *T) *T {
	r.mu.RLock()
	v := m[name]
	r.mu.RUnlock()
	if v != nil {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v = m[name]; v == nil {
		v = mk()
		m[name] = v
	}
	return v
}

// Counter returns the named counter, creating it on first use. Returns
// nil (whose methods no-op) on a nil receiver. Resolve once outside hot
// loops: the lookup takes a read lock.
func (r *Recorder) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.counters, name, func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use. Nil-safe
// like Counter.
func (r *Recorder) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.gauges, name, func() *Gauge { return &Gauge{} })
}

// Histogram returns the named histogram, creating it on first use.
// Nil-safe like Counter.
func (r *Recorder) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.hists, name, newHistogram)
}

// Metrics is a point-in-time JSON-friendly snapshot of every registered
// counter, gauge, and histogram.
type Metrics struct {
	UptimeMS   float64                      `json:"uptime_ms"`
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]int64             `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Metrics snapshots the registry (zero value on a nil receiver).
func (r *Recorder) Metrics() Metrics {
	m := Metrics{
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return m
	}
	m.UptimeMS = r.uptimeMS()
	r.mu.RLock()
	defer r.mu.RUnlock()
	for name, c := range r.counters {
		m.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		m.Gauges[name] = g.Value()
	}
	for name, h := range r.hists {
		m.Histograms[name] = h.Snapshot()
	}
	return m
}
