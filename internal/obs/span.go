package obs

import (
	"sync"
	"time"
)

// Span is one timed stage of a run. Spans nest: Child starts a
// sub-stage under the receiver. A span is open until End is called;
// Duration of an open span reads the running clock. All methods are
// safe for concurrent use and no-ops on a nil receiver, so a pipeline
// stage can be instrumented whether or not a recorder is attached.
type Span struct {
	name  string
	start time.Time
	epoch time.Time // recorder start; anchors relative dump times

	mu       sync.Mutex
	dur      time.Duration
	ended    bool
	traceID  string // distributed-trace identity; children inherit traceID
	spanID   string
	parentID string // span ID of the remote parent that sent the traceparent
	attrs    map[string]any
	children []*Span
}

// newSpan opens a span now, its dump times relative to epoch.
func newSpan(name string, epoch time.Time) *Span {
	return &Span{name: name, start: time.Now(), epoch: epoch}
}

// StartSpan opens a root span. The recorder keeps the newest
// DefaultEventCapacity roots and counts older ones in spans_dropped, so
// a long-lived server's forest stays bounded. Returns nil (whose
// methods no-op) on a nil receiver.
func (r *Recorder) StartSpan(name string) *Span {
	if r == nil {
		return nil
	}
	s := newSpan(name, r.start)
	r.spans.push(s)
	return s
}

// Child opens a nested span under s, inheriting the trace ID. Nil-safe.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := newSpan(name, s.epoch)
	s.mu.Lock()
	c.traceID = s.traceID
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// SetTrace stamps the span with its distributed-trace identity: the
// trace it belongs to, its own span ID, and (optionally) the span ID of
// the remote parent that carried the incoming traceparent. Children
// created afterwards inherit the trace ID. Nil-safe.
func (s *Span) SetTrace(traceID, spanID, parentID string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.traceID = traceID
	s.spanID = spanID
	s.parentID = parentID
	s.mu.Unlock()
}

// End closes the span (idempotent) and returns its duration.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.ended {
		s.dur = time.Since(s.start)
		s.ended = true
	}
	return s.dur
}

// Duration returns the span's length: final if ended, running so far if
// still open (0 on a nil receiver).
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.dur
	}
	return time.Since(s.start)
}

// SetAttr attaches a key/value annotation (itemset counts, batch sizes)
// to the span. Nil-safe.
func (s *Span) SetAttr(key string, value any) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]any)
	}
	s.attrs[key] = value
	s.mu.Unlock()
}

// SpanDump is a snapshot of one span subtree: what Trace returns, what
// the Chrome trace folds, and a request's root on /requests?trace=.
// Times are milliseconds; StartMS is relative to the recorder's start.
type SpanDump struct {
	Name     string         `json:"name"`
	TraceID  string         `json:"trace_id,omitempty"`
	SpanID   string         `json:"span_id,omitempty"`
	ParentID string         `json:"parent_span_id,omitempty"`
	StartMS  float64        `json:"start_ms"`
	DurMS    float64        `json:"dur_ms"`
	InFlight bool           `json:"in_flight,omitempty"`
	Attrs    map[string]any `json:"attrs,omitempty"`
	Children []*SpanDump    `json:"children,omitempty"`
}

// dump snapshots the span subtree; open descendants are marked
// in-flight. Lock order is strictly parent before child, so recursion
// cannot deadlock.
func (s *Span) dump() *SpanDump {
	s.mu.Lock()
	d := &SpanDump{
		Name:     s.name,
		TraceID:  s.traceID,
		SpanID:   s.spanID,
		ParentID: s.parentID,
		StartMS:  durToMS(s.start.Sub(s.epoch)),
	}
	dur := s.dur
	if !s.ended {
		dur = time.Since(s.start)
		d.InFlight = true
	}
	d.DurMS = durToMS(dur)
	if len(s.attrs) > 0 {
		d.Attrs = make(map[string]any, len(s.attrs))
		for k, v := range s.attrs {
			d.Attrs[k] = v
		}
	}
	children := make([]*Span, len(s.children))
	copy(children, s.children)
	s.mu.Unlock()
	for _, c := range children {
		d.Children = append(d.Children, c.dump())
	}
	return d
}

// Trace snapshots every retained root span, oldest first (nil on a nil
// receiver).
func (r *Recorder) Trace() []*SpanDump {
	if r == nil {
		return nil
	}
	roots, _ := r.spans.snapshot()
	out := make([]*SpanDump, len(roots))
	for i, s := range roots {
		out[i] = s.dump()
	}
	return out
}
