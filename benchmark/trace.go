package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one traced interval, recorded from the benchmark's own files
// only: run → setup | op[i] | replayed layer call. Start and End are
// nanoseconds since the run began.
type span struct {
	ID     int                `json:"id"`
	Parent int                `json:"parent"` // -1 for the run span
	Run    string             `json:"run"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

// rootSpan is the run span's ID, the parent of every other span.
const rootSpan = 0

// tracer keeps a run's spans in memory until the run ends. A nil tracer
// records nothing, which is how an untraced run pays nothing.
type tracer struct {
	mu    sync.Mutex
	run   string
	t0    time.Time
	spans []span
}

// newTracer opens the run span.
func newTracer(run string) *tracer {
	t := &tracer{run: run, t0: now()}
	t.spans = append(t.spans, span{ID: rootSpan, Parent: -1, Run: run, Name: "run"})
	return t
}

// start opens a span and returns its ID.
func (t *tracer) start(name string, parent int) int {
	if t == nil {
		return -1
	}
	at := now().Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Run: t.run, Name: name, Start: at})
	return id
}

// end closes a span, attaching the counts measured at its boundary.
func (t *tracer) end(id int, attrs map[string]float64) {
	if t == nil {
		return
	}
	at := now().Sub(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id].End = at
	t.spans[id].Attrs = attrs
}

// selfTimes returns, per span name, the summed span time minus the part
// of each span's interval that its child spans cover (children may
// overlap: serve_fleet's two clients run operations side by side).
func (t *tracer) selfTimes() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make([][]span, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range t.spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, upTo := int64(0), s.Start
		for _, k := range kids {
			if lo := max(k.Start, upTo); k.End > lo {
				covered += k.End - lo
				upTo = k.End
			}
		}
		out[s.Name] += time.Duration(s.End - s.Start - covered)
	}
	return out
}

// finish closes the run span, prints the self-time table and, when path
// is set, writes every span there as JSON.
func (t *tracer) finish(path string) error {
	t.end(rootSpan, nil)
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for name := range self {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("trace %s: %d spans, self time by name\n", t.run, len(t.spans))
	for _, name := range names {
		fmt.Printf("  %-28s %10.1f ms\n", name, ms(self[name]))
	}
	if path == "" {
		return nil
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}
