package obs

import (
	"encoding/json"
	"io"
	"sync"
)

// EventType names the structured events the pipeline emits. Each run
// stage that creates or consumes reusable work reports itself, so the
// event log answers the provenance question the counters cannot:
// *which* materialised unit served *which* explanation.
type EventType string

const (
	// EventPoolBuild marks the completion of a pool-construction phase:
	// Itemsets materialised, Fresh classifier calls spent, DurMS elapsed.
	EventPoolBuild EventType = "pool_build"
	// EventPreLabel records the up-front labelling of one itemset's τ
	// perturbations (Itemset, Fresh = labels bought, DurMS).
	EventPreLabel EventType = "pre_label"
	// EventRemine marks a streaming itemset recomputation (Itemsets =
	// frequent sets after the re-mine, DurMS).
	EventRemine EventType = "re_mine"
	// EventCacheEvict records one repository eviction.
	EventCacheEvict EventType = "cache_evict"
	// EventTupleExplained is the per-explanation provenance record:
	// Tuple index, Explainer, the first matched frequent Itemset,
	// Pooled vs Fresh sample counts, CacheHits, DurMS, and — when the
	// tuple was not answered cleanly — its degradation Status.
	EventTupleExplained EventType = "tuple_explained"
	// EventExactShap is the per-explanation provenance record of the
	// exact TreeSHAP fast path, emitted in place of tuple_explained on
	// every path that takes it (a warm server's one-off answers count
	// from 0 in arrival order): Tuple index, Explainer, NodeVisits = tree
	// nodes walked by the path recursion (the exact path's unit of work,
	// replacing pooled sample counts), Fresh = the single target-class
	// invocation, DurMS, Stages.
	EventExactShap EventType = "exact_shap"
	// EventExactFallback records that a run requested the exact
	// explainer but the backend did not qualify (fault chain installed,
	// or the classifier does not unwrap to an owned tree ensemble);
	// State names the reason and the run proceeded with KernelSHAP.
	EventExactFallback EventType = "exact_fallback"
	// EventBreakerState records one circuit-breaker transition; State
	// carries the edge ("closed->open", "open->half-open", ...).
	EventBreakerState EventType = "breaker_state"
	// EventServeDrain records a graceful drain: Itemsets carries the
	// number of admitted tuples still in flight when it began.
	EventServeDrain EventType = "serve_drain"
)

// Event is one entry of the run's structured event log. Fields are a
// union across event types; unused ones marshal away. Tuple is -1 for
// events not scoped to a single explanation, so index 0 stays visible.
type Event struct {
	Seq  int64     `json:"seq"`
	TMS  float64   `json:"t_ms"`
	Type EventType `json:"type"`

	Tuple     int    `json:"tuple"`
	Explainer string `json:"explainer,omitempty"`
	// Itemset is the provenance unit: the matched frequent itemset of a
	// tuple_explained event, or the itemset being pre-labelled.
	Itemset  string `json:"itemset,omitempty"`
	Itemsets int    `json:"itemsets,omitempty"`
	// Pooled counts samples served from the repository, Fresh the
	// classifier invocations spent instead.
	Pooled    int64 `json:"pooled_samples,omitempty"`
	Fresh     int64 `json:"fresh_samples,omitempty"`
	CacheHits int64 `json:"cache_hits,omitempty"`
	// NodeVisits counts tree nodes walked by the exact TreeSHAP
	// recursion for one tuple; it rides exact_shap events as that
	// path's unit of work in place of pooled sample counts.
	NodeVisits int64   `json:"node_visits,omitempty"`
	DurMS      float64 `json:"dur_ms,omitempty"`
	// State is a breaker_state transition edge ("closed->open").
	State string `json:"state,omitempty"`
	// Name identifies which instance emitted the event when several
	// share one recorder: a breaker_state event from a router's
	// per-replica breaker carries that replica's name here ("" for the
	// classifier chain's single breaker).
	Name string `json:"name,omitempty"`
	// Status marks a tuple_explained event whose tuple was answered
	// degraded (pooled/cached labels) or failed; empty means ok.
	Status string `json:"status,omitempty"`
	// Stages is the per-tuple latency attribution stamped onto
	// tuple_explained and exact_shap events; it sums to DurMS.
	Stages *StageBreakdown `json:"stages,omitempty"`
}

// DefaultEventCapacity bounds the event log and the recorder's root
// spans alike. A full ring drops its oldest entry (the live tail is the
// useful part) and counts every drop.
const DefaultEventCapacity = 8192

// ring is a bounded log: once it holds cap entries, each push overwrites
// the oldest and counts it in dropped. Guarded by its own mutex, so
// pushing never contends with the metric registry.
type ring[T any] struct {
	mu      sync.Mutex
	buf     []T // storage, len == cap once full
	cap     int
	next    int      // write position once len(buf) == cap
	seq     int64    // entries ever pushed
	dropped *Counter // the recorder counter the overwrites land in
}

// newRing returns an empty ring of DefaultEventCapacity counting its
// overwrites in dropped.
func newRing[T any](dropped *Counter) *ring[T] {
	return &ring[T]{cap: DefaultEventCapacity, dropped: dropped}
}

// push appends v, overwriting the oldest entry when the ring is full.
func (l *ring[T]) push(v T) {
	l.mu.Lock()
	l.seq++
	if len(l.buf) < l.cap {
		l.buf = append(l.buf, v)
	} else {
		l.buf[l.next] = v
		l.next = (l.next + 1) % l.cap
		l.dropped.Inc()
	}
	l.mu.Unlock()
}

// snapshot returns the retained entries, oldest first, and the ordinal
// of the oldest among every entry ever pushed.
func (l *ring[T]) snapshot() ([]T, int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]T, 0, len(l.buf))
	out = append(out, l.buf[l.next:]...)
	return append(out, l.buf[:l.next]...), l.seq - int64(len(l.buf))
}

// Emit appends one structured event to the run's event log, stamping
// its time offset (its Seq is its place in the log). Safe for
// concurrent use; no-op on a nil receiver.
func (r *Recorder) Emit(e Event) {
	if r == nil {
		return
	}
	e.TMS = r.uptimeMS()
	r.events.push(e)
}

// Events returns the retained events in emission order, each stamped
// with its Seq; how many older events the capacity bound dropped is the
// events_dropped counter. Nil receivers report nothing.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	events, first := r.events.snapshot()
	for i := range events {
		events[i].Seq = first + int64(i)
	}
	return events
}

// WriteEvents drains the retained events as JSONL, one event per line
// in emission order; what the capacity bound dropped before them is the
// events_dropped counter. A nil recorder writes nothing.
func (r *Recorder) WriteEvents(w io.Writer) error {
	if r == nil {
		return nil
	}
	events := r.Events()
	enc := json.NewEncoder(w)
	for i := range events {
		if err := enc.Encode(&events[i]); err != nil {
			return err
		}
	}
	return nil
}
