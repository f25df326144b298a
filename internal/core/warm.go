package core

import (
	"context"
	"errors"
	"sync"

	"shahin/internal/dataset"
	"shahin/internal/obs"
	"shahin/internal/rf"
)

// Warm is the serving variant of Shahin: one Stream (§3.5 of the paper)
// behind a flush gate. A flush streams its tuples through the stream's
// per-tuple step in order, so its pool, window, negative border, cache,
// RNG and explainer workspaces persist across ExplainAllCtx calls, and a
// tuple arriving in flush 40 reuses samples labelled for flush 1. The
// pool warms up and renews as the stream's does: staleAfter is its renew
// period. Answers depend on the order of the tuples only, not on how
// they were grouped into flushes.
//
// ExplainAllCtx is safe for concurrent use; flushes serialise on the
// gate, a channel rather than a mutex so a caller waiting for the flush
// slot honours cancellation, and so the cheap accessors (Report,
// Flushes, Remines) never block behind a running flush — the first two
// share a separate short-hold mutex with the counters, and Remines reads
// the pool's own count of renews.
type Warm struct {
	// s is owned by the gate holder (a capacity-1 channel; send to
	// acquire, receive to release).
	s    *Stream
	gate chan struct{}

	// mu guards only the cross-flush counters, held for nanoseconds at
	// a time so accessors stay responsive mid-flush. cum is the stream's
	// Report as of the last flush, with ExplainExact's tuples folded in.
	mu      sync.Mutex
	flushes int
	cum     Report

	// exactMu guards the per-request exact step serving layers use
	// through ExplainExact (separate from the flush gate so single-tuple
	// exact answers never queue behind a flush); nil step: unavailable.
	exactMu   sync.Mutex
	exact     *tupleStep
	exactDone int // tuples ExplainExact has answered: the next one's index
}

// DefaultStaleAfter is the renew period (in explained tuples) a Warm
// explainer's stream uses when the caller passes staleAfter <= 0.
const DefaultStaleAfter = 2048

// NewWarm creates a warm explainer over the training statistics and a
// black-box classifier: a Stream with StreamRecompute = staleAfter
// (<= 0 selects DefaultStaleAfter) behind a flush gate.
func NewWarm(st *dataset.Stats, cls rf.Classifier, opts Options, staleAfter int) (*Warm, error) {
	if staleAfter <= 0 {
		staleAfter = DefaultStaleAfter
	}
	opts.StreamRecompute = staleAfter
	s, err := newStream("NewWarm", st, cls, opts)
	if err != nil {
		return nil, err
	}
	w := &Warm{s: s, gate: make(chan struct{}, 1), cum: s.Report()}
	// ExplainExact is open whatever the kind; with no request to
	// downgrade, a refusal is silent.
	proto := s.proto
	if proto == nil && !s.exactFallback {
		proto, _ = buildExact(s.opts, st, cls)
	}
	if proto != nil {
		opts := s.opts
		opts.Explainer = ExactSHAP
		w.exact = &tupleStep{eng: newEngine(opts, st, nil, buildBridge(context.Background(), opts, st, cls), proto)}
	}
	return w, nil
}

// ExplainAll explains one flush of tuples against the warm pool.
func (w *Warm) ExplainAll(tuples [][]float64) (*Result, error) {
	return w.ExplainAllCtx(context.Background(), tuples)
}

// ExplainAllCtx explains one flush of tuples, in order, as the stream's
// next tuples, under one warm-flush root span. Cancellation semantics
// match Batch.ExplainAllCtx: a cancelled ctx stops the flush between
// predictions, unattempted tuples carry StatusFailed, and the partial
// Result is returned alongside ctx.Err(). The returned Report and Costs
// cover this flush only; Report() accumulates across flushes.
func (w *Warm) ExplainAllCtx(ctx context.Context, tuples [][]float64) (*Result, error) {
	s := w.s
	if err := s.admit(tuples); err != nil {
		return nil, err
	}
	// A caller cancelled before it acquired the flush slot leaves
	// without touching any state — it does not count as a flush — but
	// still gets every tuple back StatusFailed alongside ctx.Err().
	if err := ctx.Err(); err != nil {
		return w.unadmittedResult(tuples), err
	}
	select {
	case w.gate <- struct{}{}:
	case <-ctx.Done():
		return w.unadmittedResult(tuples), ctx.Err()
	}
	defer func() { <-w.gate }()

	w.mu.Lock()
	w.flushes++
	res := &Result{Explanations: make([]Explanation, len(tuples)), Flush: w.flushes}
	w.mu.Unlock()
	if s.opts.Recorder != nil {
		res.Costs = make([]Cost, len(tuples))
	}
	f := s.enter(ctx, obs.StageWarmFlush)
	f.span.SetAttr("tuples", len(tuples))
	f.span.SetAttr("flush", res.Flush)

	// The flush is charged to a report of its own, folded back into the
	// stream's when it ends.
	cum, retries := s.rep, s.eng.fb.chain.Retries()
	s.rep = Report{ExactFallback: s.exactFallback}
	var err error
	for i, t := range tuples {
		if ctx.Err() != nil {
			markFailed(res.Explanations[i:], &s.rep)
			s.rep.Tuples += len(tuples) - i
			break
		}
		var c Cost
		if res.Explanations[i], c, err = s.explain(&f, t); err != nil {
			break
		}
		if res.Costs != nil {
			res.Costs[i] = c
		}
	}
	s.leave(&f)
	res.Report = s.Report()
	res.Report.Retries -= retries
	cum.add(res.Report)
	s.rep = cum
	// Pool occupancy is owned by the gate holder, so the flush publishes
	// it: a scrape reads the gauge and never waits on the gate.
	s.opts.Recorder.Gauge(obs.GaugeWarmPooledItemsets).Set(int64(s.ps.repo.Len()))
	w.mu.Lock()
	w.cum.add(res.Report)
	w.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return res, ctx.Err()
}

// unadmittedResult is the partial result for a flush cancelled before
// it acquired the flush slot: nothing was attempted, so every tuple is
// StatusFailed and no warm state was touched.
func (w *Warm) unadmittedResult(tuples [][]float64) *Result {
	res := &Result{Explanations: make([]Explanation, len(tuples)), Report: Report{Tuples: len(tuples), ExactFallback: w.s.exactFallback}}
	markFailed(res.Explanations, &res.Report)
	return res
}

// Report returns the cost accounting accumulated across every flush and
// ExplainExact call.
func (w *Warm) Report() Report {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.cum
}

// Flushes reports how many ExplainAllCtx calls have run.
func (w *Warm) Flushes() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.flushes
}

// Remines reports how many renews the stream has run, warm-up
// mines not included.
func (w *Warm) Remines() int { return w.s.Mines() }

// NumAttrs reports the tuple width the explainer expects — the number
// of attributes of the training statistics it was built over.
func (w *Warm) NumAttrs() int { return w.s.st.NumAttrs() }

// Kind reports the explainer kind this warm explainer was built with
// (after any construction-time exact fallback).
func (w *Warm) Kind() Kind { return w.s.opts.Explainer }

// ErrExactUnavailable is what ExplainExact answers when the exact
// TreeSHAP path is not legal for the explainer's backend: a fault chain,
// or a classifier exact.New refused at construction.
var ErrExactUnavailable = errors.New("core: exact path unavailable for this classifier")

// ExplainExact answers one tuple with the exact TreeSHAP fast path,
// bypassing the flush gate, the batching queue, and the perturbation
// pool entirely: the same per-tuple step every runner uses, over an
// exact engine of its own, built at construction whatever the
// explainer's kind and used under its own lock. It returns the
// explanation and what it cost (one classifier invocation, and the tree
// nodes the recursion visited — the exact path's provenance unit); the
// tuple is folded into the cumulative Report and, with a recorder, into
// the counters, histograms and exact_shap events like any other.
func (w *Warm) ExplainExact(t []float64) (Explanation, Cost, error) {
	if w.exact == nil {
		return Explanation{}, Cost{}, ErrExactUnavailable
	}
	w.exactMu.Lock()
	defer w.exactMu.Unlock()
	exp, c, err := w.exact.run(w.exactDone, t)
	if err != nil {
		return Explanation{}, Cost{}, err
	}
	w.exactDone++
	w.mu.Lock()
	w.cum.Tuples++
	w.cum.WallTime += c.Duration
	w.cum.ExplainTime += c.Duration
	w.cum.charge(c)
	w.mu.Unlock()
	return exp, c, nil
}
