package core

import (
	"time"

	"shahin/internal/dataset"
	"shahin/internal/obs"
)

// stage measures one stretch of a run, once: its wall time always and,
// with a recorder, a span and the heap allocated meanwhile. Every timed
// thing in core — a run, its mine, pool-build and explain phases, one
// tuple, one itemset, one retrieval, one prediction — is a stage, so
// the nil-recorder rule and the clock read live here and nowhere else.
type stage struct {
	span   *obs.Span
	start  time.Time
	mark   obs.AllocMark
	marked bool
}

// beginStage opens a stage named name under parent, or as a root span of
// rec when parent is nil. Without a recorder it is a stopwatch.
func beginStage(rec *obs.Recorder, parent *obs.Span, name string) stage {
	var s stage
	if rec != nil {
		s.mark, s.marked = obs.NowAllocs(), true
		if parent != nil {
			s.span = parent.Child(name)
		} else {
			s.span = rec.StartSpan(name)
		}
	}
	s.start = time.Now() //shahinvet:allow walltime — core's one clock read: every duration in a Report, a Cost or an event is a stage
	return s
}

// stopwatch is a stage with no span and no allocation mark: the units
// too small or too many to trace (a tuple, an itemset, a retrieval, a
// prediction).
func stopwatch() stage { return beginStage(nil, nil, "") }

// end closes the stage and reports what it cost. The process-wide
// allocation counters attribute whatever else allocated meanwhile too,
// which on the gate-serialised paths is little.
func (s stage) end() (time.Duration, obs.AllocDelta) {
	d := time.Since(s.start)
	s.span.End()
	if !s.marked {
		return d, obs.AllocDelta{}
	}
	return d, s.mark.Since()
}

// Cost is what one unit of work cost — a tuple's explanation, or an
// itemset's pre-labelling — written down once, while the unit runs: the
// engine's meter charges it every prediction, the pool every retrieval,
// the step its duration and status. Report totals, recorder counters and
// histograms, the unit's event and Result.Costs are each a fold of this
// record, so they agree by construction.
type Cost struct {
	// Duration is the unit's wall time. Stages splits it exactly:
	// PoolSample + Classify + Solve == Duration, Solve being the
	// remainder; Classify is measured only with a recorder attached, and
	// the serving-only stages stay zero.
	Duration time.Duration
	Stages   obs.StageBreakdown
	// Fresh counts classifier calls, Pooled the labelled samples the pool
	// served in their place, CacheHits the repository entries that served
	// them (for Anchor, its shared repository's hits).
	Fresh     int64
	Pooled    int64
	CacheHits int64
	// NodeVisits counts the tree nodes the exact path walked.
	NodeVisits int64
	// Itemset is the first pooled itemset that served the tuple (nil for
	// none), or the itemset pre-labelled.
	Itemset dataset.Itemset
	Status  Status

	// aside is wall time inside the unit spent on units of their own (the
	// pooled itemsets filled while the tuple was explained);
	// the step takes it off Duration.
	aside time.Duration
}

// served charges one pool retrieval of n samples, timed by sw, of which
// aside went to fills.
func (c *Cost) served(n int, sw stage, aside time.Duration) {
	d, _ := sw.end()
	c.Stages.PoolSample += d - aside
	c.Pooled += int64(n)
	c.aside += aside
}

// charge folds one explained tuple's cost into the report.
func (r *Report) charge(c Cost) {
	r.Invocations += c.Fresh
	r.ReusedSamples += c.Pooled
	r.NodeVisits += c.NodeVisits
	r.OverheadTime += c.Stages.PoolSample
	switch c.Status {
	case StatusDegraded:
		r.Degraded++
	case StatusFailed:
		r.Failed++
	}
}

// markFailed marks explanations that were never attempted, and counts
// them.
func markFailed(out []Explanation, rep *Report) {
	for i := range out {
		out[i].Status = StatusFailed
	}
	rep.Failed += len(out)
}
