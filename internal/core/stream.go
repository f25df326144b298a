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
// re-mine. The pool is lazy: an itemset is labelled when a tuple first
// matches it, not when it is mined or promoted.
type Stream struct {
	runner
	// f is the stream's one long run: its root span stays open for the
	// stream's lifetime (trace dumps report it in-flight), and each
	// ExplainCtx points its engine's bridge at that call's context.
	f    *frame
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
	r, err := newRunner("NewStream", st, cls, opts)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.opts.Seed))
	s := &Stream{
		runner: r,
		rep:    Report{ExactFallback: r.exactFallback},
		f:      r.begin(context.Background(), rng, obs.StageStream, 0),
	}
	s.gen = perturb.NewGenerator(st, rng)
	s.ps = newPoolState(r.opts, cls.NumClasses(), r.opts.StreamRecompute)
	s.ps.fillOnMatch(s.f.eng, s.gen, &s.rep)
	s.step = s.ps.step(s.f.eng)
	return s, nil
}

// Explain processes one arriving tuple and returns its explanation.
func (s *Stream) Explain(t []float64) (Explanation, error) {
	return s.ExplainCtx(context.Background(), t)
}

// ExplainCtx is Explain under a context. A tuple of the wrong width is
// an error, and a context already cancelled on entry returns a
// StatusFailed explanation and ctx.Err(), both without touching the
// stream's state; cancellation mid-tuple finishes the
// tuple quickly on fallback labels (marked StatusFailed) so the stream
// and its Report stay consistent. Explain calls must not overlap —
// the stream is a serial consumer by contract.
func (s *Stream) ExplainCtx(ctx context.Context, t []float64) (Explanation, error) {
	if err := s.admit([][]float64{t}); err != nil {
		return Explanation{}, err
	}
	if err := ctx.Err(); err != nil {
		return Explanation{Status: StatusFailed}, err
	}
	// Carry the stream root span on the bridge's context so fault-chain
	// children (degrade markers, retry spans) attach under it, and adopt
	// the caller's trace identity when one is present (last caller wins —
	// the root is shared across the stream's lifetime).
	eng, fb := s.f.eng, s.f.eng.fb
	fb.ctx = s.f.enter(ctx)
	defer func() { fb.ctx = fb.base }()
	sw := stopwatch()
	defer func() {
		d, _ := sw.end()
		s.rep.WallTime += d
	}()

	// The exact path never mines, pools, or tracks the border; its only
	// per-tuple bookkeeping is the walk itself.
	if eng.exact == nil {
		s.track(t)
		warmUp := s.ps.warmUp(s.opts.StreamRecompute)
		if warmUp || len(s.ps.window) >= s.opts.StreamRecompute {
			span := s.f.span.Child(obs.StageRemine)
			span.SetAttr("rows", len(s.ps.window))
			border, err := s.ps.renew(ctx, eng, s.gen, func() []dataset.Itemset { return s.ps.window }, !warmUp, warmUp, span, &s.rep)
			span.End()
			if err == nil && !warmUp {
				s.retrack(border)
			}
		}
	}
	s.ps.attach(eng)
	exp, c, err := s.step.run(s.rep.Tuples, t)
	if err != nil {
		return Explanation{}, err
	}
	s.rep.charge(c)
	s.rep.ExplainTime += c.Duration
	s.rep.Tuples++
	return exp, nil
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
		if !s.ps.promote(s.f.eng, s.gen, ts.set, &s.rep) {
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
	rep.Retries = s.f.eng.fb.chain.Retries()
	return rep
}

// Mines reports how many window renews have run to their end, warm-up
// mines not included (diagnostics and tests).
func (s *Stream) Mines() int { return int(s.ps.renews.Load()) }
