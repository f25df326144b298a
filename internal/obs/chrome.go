package obs

import (
	"encoding/json"
	"io"
	"sort"
)

// ChromeEvent is one entry of the Chrome trace-event format (the JSON
// array flavour): complete events (`ph:"X"`) with microsecond
// timestamps, plus flow events (`ph:"s"`/`ph:"f"`) tying a request's
// track to the shared flush that served it, loadable in Perfetto /
// chrome://tracing.
type ChromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`  // start, microseconds from recorder epoch
	Dur  float64 `json:"dur"` // duration, microseconds
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
	// ID binds a flow's start and finish events; trace-ID-keyed.
	ID string `json:"id,omitempty"`
	// BP is the flow binding point ("e" = enclosing slice).
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// ChromeTrace converts the recorded span forest into Chrome trace
// events: each root span and its descendants share one tid (so nested
// stages render as a flame on that track), events are sorted by start
// time within each tid, and span attributes ride along as args. The
// slow-request exemplar ring follows on additional tracks, one per
// request, and each request that went through a flush is tied to that
// flush's span with a trace-ID-keyed flow arrow, so a request's journey
// across queue, batch, and pool renders as one connected story. Nil
// recorders return an empty slice.
func (r *Recorder) ChromeTrace() []ChromeEvent {
	if r == nil {
		return []ChromeEvent{}
	}
	events := []ChromeEvent{}
	// flushTracks maps a warm-flush sequence number to the track and
	// start of its root span, so request flow arrows can land on it.
	type flushMark struct {
		tid int
		ts  float64
	}
	flushTracks := map[int]flushMark{}
	var walk func(d *SpanDump, tid int)
	walk = func(d *SpanDump, tid int) {
		ev := ChromeEvent{
			Name: d.Name,
			Cat:  "shahin",
			Ph:   "X",
			TS:   d.StartMS * 1000,
			Dur:  d.DurMS * 1000,
			PID:  1,
			TID:  tid,
		}
		if len(d.Attrs) > 0 || d.InFlight || d.TraceID != "" {
			ev.Args = make(map[string]any, len(d.Attrs)+2)
			for k, v := range d.Attrs {
				ev.Args[k] = v
			}
			if d.InFlight {
				ev.Args["in_flight"] = true
			}
			if d.TraceID != "" {
				ev.Args["trace_id"] = d.TraceID
			}
		}
		events = append(events, ev)
		for _, c := range d.Children {
			walk(c, tid)
		}
	}
	tid := 0
	for _, root := range r.Trace() {
		tid++
		if root.Name == StageWarmFlush {
			if n, ok := root.Attrs["flush"].(int); ok {
				flushTracks[n] = flushMark{tid: tid, ts: root.StartMS * 1000}
			}
		}
		walk(root, tid)
	}
	flows := []ChromeEvent{}
	for _, rt := range r.Requests() {
		tid++
		walk(rt.Root, tid)
		mark, ok := flushTracks[rt.Flush]
		if rt.Flush == 0 || !ok {
			continue
		}
		flows = append(flows,
			ChromeEvent{
				Name: "request-flush", Cat: "shahin-flow", Ph: "s",
				TS: rt.Root.StartMS * 1000, PID: 1, TID: tid, ID: rt.TraceID,
			},
			ChromeEvent{
				Name: "request-flush", Cat: "shahin-flow", Ph: "f", BP: "e",
				TS: mark.ts, PID: 1, TID: mark.tid, ID: rt.TraceID,
			},
		)
	}
	// The trace viewer expects monotone timestamps per track; sibling
	// spans are recorded in start order but clock rounding can tie, so
	// sort explicitly (stable: preserves parent-before-child on ties).
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].TID != events[j].TID {
			return events[i].TID < events[j].TID
		}
		return events[i].TS < events[j].TS
	})
	// Flow pairs ride at the end, start before finish, so binding order
	// survives the per-track sort above.
	return append(events, flows...)
}

// WriteChromeTrace writes the span forest in the Chrome trace-event
// JSON array format. A nil recorder writes an empty array.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	enc := json.NewEncoder(w)
	return enc.Encode(r.ChromeTrace())
}
