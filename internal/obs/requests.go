package obs

import (
	"sort"
	"sync"
	"time"
)

// DefaultRequestCapacity bounds the slow-request exemplar ring: the
// ring keeps the top-K served requests by duration, so a long-lived
// server holds at most this many exemplars.
const DefaultRequestCapacity = 512

// RequestTrace is one served request's exemplar, and the only record of
// it: trace identity, outcome, start and stage attribution. Its span
// tree is a view of those fields, built when a reader asks.
type RequestTrace struct {
	// TraceID keys the exemplar; /requests?trace=<id> resolves it.
	TraceID string `json:"trace_id"`
	// SpanID is the server-side root span's ID within the trace.
	SpanID string `json:"span_id,omitempty"`
	// ParentID is the remote caller's span ID when the request carried
	// a traceparent header.
	ParentID string `json:"parent_span_id,omitempty"`
	// Name labels the root span ("request").
	Name string `json:"name"`
	// Source mirrors the HTTP response: "store", "computed", or
	// "rejected".
	Source string `json:"source,omitempty"`
	// Status is the explanation status ("ok", "degraded", "failed").
	Status string `json:"status,omitempty"`
	// Flush is the warm-flush sequence number that served the request
	// (0 for store hits); it joins the request to the shared flush span
	// in the recorder's trace.
	Flush int `json:"flush,omitempty"`
	// DurMS is the request's wall latency in milliseconds.
	DurMS float64 `json:"dur_ms"`
	// Stages is the request's latency attribution.
	Stages StageBreakdown `json:"stages"`
	// Start is when the request arrived; on the wire it is the root's
	// start_ms.
	Start time.Time `json:"-"`
	// Root is the request's span dump: the ring fills it in for
	// RequestByTrace and Requests, and ignores it on OfferRequest.
	Root *SpanDump `json:"root,omitempty"`
}

// root renders the exemplar as the span tree a traced request would have
// left: a root carrying the identity and, as attrs, the outcome, over
// one child per non-zero stage. The children inherit the trace ID and
// lie end to end from the request's start — the real work interleaves
// with the shared flush — so they never outlast the root. Times are
// relative to epoch.
func (rt RequestTrace) root(epoch time.Time) *SpanDump {
	d := &SpanDump{
		Name:     rt.Name,
		TraceID:  rt.TraceID,
		SpanID:   rt.SpanID,
		ParentID: rt.ParentID,
		StartMS:  durToMS(rt.Start.Sub(epoch)),
		DurMS:    rt.DurMS,
		Attrs:    map[string]any{"source": rt.Source, "status": rt.Status},
	}
	if rt.Flush > 0 {
		d.Attrs["flush"] = rt.Flush
	}
	at := d.StartMS
	for _, st := range rt.Stages.each() {
		if st.d > 0 {
			d.Children = append(d.Children, &SpanDump{Name: st.name, TraceID: rt.TraceID, StartMS: at, DurMS: durToMS(st.d)})
			at += durToMS(st.d)
		}
	}
	return d
}

// requestRing keeps the top-K slowest requests seen so far, retrievable
// by trace ID. When two entries share a trace ID (a batch call fans one
// trace into several per-tuple requests) the slowest wins.
type requestRing struct {
	mu      sync.Mutex
	cap     int
	epoch   time.Time      // the recorder's start, which span dumps count from
	entries []RequestTrace // stored without Root
	byID    map[string]int // trace ID -> index in entries
}

// newRequestRing builds a ring holding at most capacity entries
// (DefaultRequestCapacity when capacity <= 0).
func newRequestRing(capacity int) *requestRing {
	if capacity <= 0 {
		capacity = DefaultRequestCapacity
	}
	return &requestRing{cap: capacity, byID: make(map[string]int)}
}

// offer inserts rt if it ranks among the top-K by duration. The scan
// for the current minimum is O(cap); with the default capacity that is
// a few hundred comparisons per served request, well below the cost of
// the request itself.
func (g *requestRing) offer(rt RequestTrace) {
	if g == nil || rt.TraceID == "" {
		return
	}
	rt.Root = nil
	g.mu.Lock()
	defer g.mu.Unlock()
	if i, ok := g.byID[rt.TraceID]; ok {
		if rt.DurMS >= g.entries[i].DurMS {
			g.entries[i] = rt
		}
		return
	}
	if len(g.entries) < g.cap {
		g.byID[rt.TraceID] = len(g.entries)
		g.entries = append(g.entries, rt)
		return
	}
	min := 0
	for i := 1; i < len(g.entries); i++ {
		if g.entries[i].DurMS < g.entries[min].DurMS {
			min = i
		}
	}
	if rt.DurMS <= g.entries[min].DurMS {
		return
	}
	delete(g.byID, g.entries[min].TraceID)
	g.entries[min] = rt
	g.byID[rt.TraceID] = min
}

// byTrace returns the entry for a trace ID, span dump included.
func (g *requestRing) byTrace(traceID string) (RequestTrace, bool) {
	if g == nil {
		return RequestTrace{}, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	i, ok := g.byID[traceID]
	if !ok {
		return RequestTrace{}, false
	}
	rt := g.entries[i]
	rt.Root = rt.root(g.epoch)
	return rt, true
}

// snapshot returns the ring's entries sorted slowest-first, with their
// span dumps when withRoots asks; listings go without.
func (g *requestRing) snapshot(withRoots bool) []RequestTrace {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	out := make([]RequestTrace, len(g.entries))
	copy(out, g.entries)
	g.mu.Unlock()
	if withRoots {
		for i := range out {
			out[i].Root = out[i].root(g.epoch)
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].DurMS > out[j].DurMS })
	return out
}

// OfferRequest submits a served request to the slow-request exemplar
// ring; it is kept if it ranks among the top-K by latency. Nil-safe.
func (r *Recorder) OfferRequest(rt RequestTrace) {
	if r == nil {
		return
	}
	r.requests.offer(rt)
}

// RequestByTrace resolves a trace ID to its ring entry, full span dump
// included. Nil-safe.
func (r *Recorder) RequestByTrace(traceID string) (RequestTrace, bool) {
	if r == nil {
		return RequestTrace{}, false
	}
	return r.requests.byTrace(traceID)
}

// Requests lists the ring's exemplars slowest-first, span dumps
// included. Nil-safe.
func (r *Recorder) Requests() []RequestTrace {
	if r == nil {
		return nil
	}
	return r.requests.snapshot(true)
}

// RequestsSummary is the /requests listing: ring occupancy plus the
// exemplars slowest-first, span dumps stripped (resolve an individual
// trace ID for the full dump).
type RequestsSummary struct {
	// Capacity is the ring's bound.
	Capacity int `json:"capacity"`
	// Count is the current number of exemplars.
	Count int `json:"count"`
	// Requests holds the exemplars, slowest first, without Root.
	Requests []RequestTrace `json:"requests"`
}

// RequestsSummary snapshots the ring for the /requests listing.
// Nil-safe.
func (r *Recorder) RequestsSummary() RequestsSummary {
	if r == nil {
		return RequestsSummary{Requests: []RequestTrace{}}
	}
	entries := r.requests.snapshot(false)
	if entries == nil {
		entries = []RequestTrace{}
	}
	return RequestsSummary{Capacity: r.requests.cap, Count: len(entries), Requests: entries}
}
