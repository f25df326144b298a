// Package spanend exercises the span-lifecycle analyzer with a
// self-contained tracer (fixtures cannot import internal/obs; the
// analyzer matches StartSpan by method name).
package spanend

// Span is a stand-in for the obs span type.
type Span struct{}

// End closes the span.
func (s *Span) End() {}

// SetAttr is a non-escaping receiver use.
func (s *Span) SetAttr(k, v string) {}

// Tracer is a stand-in for the obs recorder.
type Tracer struct{}

// StartSpan opens a span.
func (t *Tracer) StartSpan(name string) *Span { return &Span{} }

func work() {}

// leakOnBranch ends the span on the fall-through path but not on the
// early return: a finding at the start site.
func leakOnBranch(t *Tracer, cond bool) {
	s := t.StartSpan("work") // want "spanend: span s started here is not ended on every path"
	if cond {
		return
	}
	s.End()
}

// endedEverywhere closes the span on both paths: no finding.
func endedEverywhere(t *Tracer, cond bool) {
	s := t.StartSpan("ok")
	s.SetAttr("k", "v")
	if cond {
		s.End()
		return
	}
	s.End()
}

// deferredEnd discharges the obligation at the defer statement, which
// covers every later exit: no finding.
func deferredEnd(t *Tracer, cond bool) {
	s := t.StartSpan("d")
	defer s.End()
	if cond {
		return
	}
	work()
}

// handsOff returns the span: ownership transfers to the caller, so the
// missing End here is not a finding.
func handsOff(t *Tracer) *Span {
	s := t.StartSpan("handoff")
	return s
}

// loopLeak starts a fresh span each iteration and only ends the last
// one after the loop on some paths; the early continue leaks.
func loopLeak(t *Tracer, items []int) {
	for range items {
		s := t.StartSpan("iter") // want "spanend: span s started here is not ended on every path"
		if len(items) > 3 {
			continue
		}
		s.End()
	}
}
