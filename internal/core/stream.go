package core

import (
	"context"
	"math/rand"

	"shahin/internal/dataset"
	"shahin/internal/fim"
	"shahin/internal/obs"
	"shahin/internal/perturb"
	"shahin/internal/rf"
)

// Stream is Shahin's streaming variant (paper §3.5): requests arrive one
// at a time, the repository lives under a byte budget with LRU eviction,
// frequent itemsets are re-mined every StreamRecompute tuples over the
// tuples seen since (before the first, also at 16, 32, 64… tuples), and
// the negative border is tracked so that a border itemset whose running
// frequency crosses the support threshold is promoted before the next
// re-mine. An itemset is labelled when it is first read, not when it is
// mined or promoted.
type Stream struct {
	runner
	// eng is the stream's for life; each call points its bridge at the
	// frame the call runs under (see enter).
	eng  *engine
	gen  *perturb.Generator
	ps   *poolState
	step *tupleStep

	tracked []*trackedSet // frequent itemsets + negative border

	// rep accumulates every cost as it is charged; Report adds the pool's
	// and the chain's current state.
	rep Report
}

// trackedSet is one itemset whose running frequency the stream maintains
// between re-mines.
type trackedSet struct {
	set      dataset.Itemset
	count    int  // occurrences in the current window
	frequent bool // currently pooled
}

// NewStream creates a streaming explainer. Anchor measures rule coverage
// against the stream itself: the window last mined, or before the first
// re-mine the tuples seen so far.
func NewStream(st *dataset.Stats, cls rf.Classifier, opts Options) (*Stream, error) {
	return newStream("NewStream", st, cls, opts)
}

// newStream is NewStream for an entry point named who.
func newStream(who string, st *dataset.Stats, cls rf.Classifier, opts Options) (*Stream, error) {
	r, err := newRunner(who, st, cls, opts)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.opts.Seed))
	s := &Stream{
		runner: r,
		rep:    Report{ExactFallback: r.exactFallback},
		eng:    newEngine(r.opts, st, rng, buildBridge(context.Background(), r.opts, st, cls), r.proto),
	}
	s.gen = perturb.NewGenerator(st, rng)
	s.ps = newPoolState(r.opts, cls.NumClasses(), r.opts.StreamRecompute)
	s.ps.fillOnMatch(s.eng, s.gen, &s.rep)
	s.step = s.ps.step(s.eng)
	return s, nil
}

// Explain processes one arriving tuple and returns its explanation.
func (s *Stream) Explain(t []float64) (Explanation, error) {
	return s.ExplainCtx(context.Background(), t)
}

// ExplainCtx is Explain under a context, in a "stream" root span of its
// own. A tuple of the wrong width is an error, and a context already
// cancelled on entry returns a StatusFailed explanation and ctx.Err(),
// both without touching the stream's state; cancellation mid-tuple
// finishes the tuple quickly on fallback labels (marked StatusFailed)
// so the stream and its Report stay consistent. Explain calls must not
// overlap — the stream is a serial consumer by contract.
func (s *Stream) ExplainCtx(ctx context.Context, t []float64) (Explanation, error) {
	if err := s.admit([][]float64{t}); err != nil {
		return Explanation{}, err
	}
	if err := ctx.Err(); err != nil {
		return Explanation{Status: StatusFailed}, err
	}
	f := s.enter(ctx, obs.StageStream)
	exp, _, err := s.explain(&f, t)
	s.leave(&f)
	return exp, err
}

// enter opens a root named name for a run of the stream's steps and
// points the engine's bridge at it, so the fault chain's spans (retries,
// breaker transitions, degradation rungs) land under it, adopting the
// caller's trace identity when ctx has one.
func (s *Stream) enter(ctx context.Context, name string) frame {
	f := s.open(ctx, name)
	s.eng.fb.ctx = f.ctx
	return f
}

// leave closes a frame enter opened, charging its time and allocations.
func (s *Stream) leave(f *frame) {
	fb := s.eng.fb
	fb.ctx = fb.base
	d, a := f.end()
	s.rep.WallTime += d
	s.rep.AllocBytes += a.Bytes
	s.rep.AllocObjects += a.Objects
}

// explain is the stream's step for one tuple under the frame enter
// opened: track it, renew the pool when due (a re-mine span under f),
// and explain it.
func (s *Stream) explain(f *frame, t []float64) (Explanation, Cost, error) {
	// The exact path never mines, pools, or tracks the border; its only
	// per-tuple bookkeeping is the walk itself.
	if s.eng.exact == nil {
		s.track(t)
		warmUp := s.ps.warmUp(s.opts.StreamRecompute)
		if warmUp || len(s.ps.window) >= s.opts.StreamRecompute {
			span := f.span.Child(obs.StageRemine)
			span.SetAttr("rows", len(s.ps.window))
			border, err := s.ps.renew(warmUp, span, &s.rep)
			span.End()
			if err == nil && !warmUp {
				s.retrack(border)
			}
		}
	}
	s.ps.attach(s.eng)
	exp, c, err := s.step.run(s.rep.Tuples, t)
	if err != nil {
		return Explanation{}, Cost{}, err
	}
	s.rep.charge(c)
	s.rep.ExplainTime += c.Duration
	s.rep.Tuples++
	return exp, c, nil
}

// track adds the tuple to the window and to the running counts of the
// tracked itemsets, and promotes border itemsets between re-mines: one
// whose running window frequency clears the threshold is pooled
// immediately. The window must be large enough (and the count high
// enough in absolute terms) that small-sample variance does not promote
// marginal itemsets, and the pool size cap still applies.
func (s *Stream) track(t []float64) {
	sw := stopwatch()
	defer func() {
		d, _ := sw.end()
		s.rep.OverheadTime += d
	}()
	items := s.ps.observe(s.st, t)
	for _, ts := range s.tracked {
		if ts.set.ContainsAll(items) {
			ts.count++
		}
	}
	if len(s.ps.window) < 50 {
		return
	}
	// The count the next re-mine will ask of this window; at least 5.
	minCount := fim.MinCount(minSupport, len(s.ps.window))
	for _, ts := range s.tracked {
		if ts.frequent || ts.count < minCount {
			continue
		}
		if !s.ps.promote(ts.set) {
			break
		}
		ts.frequent = true
	}
}

// retrack rebuilds the tracked list after a refresh: the pooled
// itemsets, and the border refresh mined, which is only its most
// promising MaxItemsets (sorted by support within each length; an
// unbounded border would make per-tuple count maintenance expensive).
func (s *Stream) retrack(border []fim.Mined) {
	s.tracked = s.tracked[:0]
	for _, set := range s.ps.sets {
		s.tracked = append(s.tracked, &trackedSet{set: set, frequent: true})
	}
	for _, m := range border {
		s.tracked = append(s.tracked, &trackedSet{set: m.Set})
	}
}

// Report returns a snapshot of the stream's accumulated cost accounting.
func (s *Stream) Report() Report {
	rep := s.rep
	rep.Cache = s.ps.repo.Stats()
	rep.FrequentItemsets = len(s.ps.sets)
	rep.Retries = s.eng.fb.chain.Retries()
	return rep
}

// Mines reports how many window renews have run, warm-up
// mines not included (diagnostics and tests).
func (s *Stream) Mines() int { return int(s.ps.renews.Load()) }
