package core

import (
	"context"
	"errors"
	"math/rand"
	"sort"
	"sync"

	"shahin/internal/dataset"
	"shahin/internal/fim"
	"shahin/internal/obs"
	"shahin/internal/perturb"
	"shahin/internal/rf"
)

// Warm is the serving variant of Shahin: a long-lived explainer whose
// frequent-itemset pool, pre-labelled perturbations, cache, RNG and
// explainer workspaces persist across ExplainAllCtx calls. Where Batch
// mines and materialises a pool per call and Stream pays per-tuple
// bookkeeping, Warm amortises one pool across flushes of any size, down
// to one tuple, so a tuple arriving in flush 40 reuses samples labelled
// for flush 1; a flush costs what its tuples cost.
//
// The pool is re-mined when stale: after StaleAfter tuples have been
// explained since the last mine, the next flush re-mines over the
// window of recently seen tuples, materialises newly frequent itemsets,
// and evicts ones that fell out of fashion (same policy as the
// streaming variant, §3.5 of the paper).
//
// ExplainAllCtx is safe for concurrent use; flushes serialise on an
// internal admission gate so they never interleave and the same
// sequence of flush compositions reproduces byte-identical
// explanations. The gate is a channel rather than a mutex so a caller
// waiting for the flush slot honours cancellation, and so the cheap
// accessors (Report, Flushes, Remines) never block behind a running
// flush — the first two share a separate short-hold mutex with the
// counters, and Remines reads the pool's own count of complete renews.
type Warm struct {
	// proto is also what ExplainExact's step forks: built whatever the
	// kind (buildExact, when no ExactSHAP request had resolveExact do it).
	runner
	staleAfter int

	// gate admits one flush at a time (capacity-1 channel; send to
	// acquire, receive to release). Everything the flush path mutates —
	// the pool and the mining state below — is owned by the gate holder.
	gate  chan struct{}
	ps    *poolState
	since int // tuples explained since the last re-mine
	// rng and eng are every flush's: keep re-seeds the one and rebinds
	// the other per flush, so the explainers' workspaces outlive it.
	rng *rand.Rand
	eng *engine

	// mu guards only the cross-flush counters, held for nanoseconds at
	// a time so accessors stay responsive mid-flush.
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

// DefaultStaleAfter is the re-mine staleness threshold (in explained
// tuples) a Warm explainer uses when the caller passes staleAfter <= 0.
const DefaultStaleAfter = 2048

// NewWarm creates a warm explainer over the training statistics and a
// black-box classifier. staleAfter is the number of tuples explained
// between pool re-mines (<= 0 selects DefaultStaleAfter).
func NewWarm(st *dataset.Stats, cls rf.Classifier, opts Options, staleAfter int) (*Warm, error) {
	r, err := newRunner("NewWarm", st, cls, opts)
	if err != nil {
		return nil, err
	}
	if r.proto == nil && !r.exactFallback {
		// ExplainExact is open whatever the kind; with no request to
		// downgrade, a refusal is silent.
		r.proto, _ = buildExact(r.opts, st, cls)
	}
	if staleAfter <= 0 {
		staleAfter = DefaultStaleAfter
	}
	rng := rand.New(rand.NewSource(r.opts.Seed))
	w := &Warm{
		runner:     r,
		staleAfter: staleAfter,
		gate:       make(chan struct{}, 1),
		ps:         newPoolState(r.opts, cls.NumClasses(), staleAfter),
		rng:        rng,
		eng:        newEngine(r.opts, st, rng, buildBridge(context.Background(), r.opts, st, cls), r.proto),
	}
	if r.proto != nil {
		opts := r.opts
		opts.Explainer = ExactSHAP
		w.exact = &tupleStep{eng: newEngine(opts, st, nil, buildBridge(context.Background(), opts, st, cls), r.proto)}
	}
	return w, nil
}

// ExplainAll explains one flush of tuples against the warm pool.
func (w *Warm) ExplainAll(tuples [][]float64) (*Result, error) {
	return w.ExplainAllCtx(context.Background(), tuples)
}

// ExplainAllCtx explains one flush of tuples, reusing the pool
// materialised by earlier flushes and re-mining it first if stale.
// Cancellation semantics match Batch.ExplainAllCtx: a cancelled ctx
// stops the flush between predictions, unattempted tuples carry
// StatusFailed, and the partial Result is returned alongside ctx.Err().
// The returned Report covers this flush only; Report() accumulates
// across flushes.
func (w *Warm) ExplainAllCtx(ctx context.Context, tuples [][]float64) (*Result, error) {
	return w.flush(ctx, tuples, w.keep)
}

// keep readies the kept RNG and engine for flush number n over its
// bridge. Every flush draws from Seed + 104729·n, so the same sequence of
// flush compositions reproduces byte-identical explanations regardless
// of wall-clock timing; re-seeding gives the stream a fresh source
// would, and the rebound engine answers as a fresh one would.
func (w *Warm) keep(n int, fb *fallibleBridge) (*rand.Rand, *engine) {
	w.rng.Seed(w.opts.Seed + 104729*int64(n))
	w.eng.rebind(fb)
	return w.rng, w.eng
}

// recent is what a re-mine samples: the window's last 4·staleAfter rows.
func (w *Warm) recent() []dataset.Itemset {
	return w.ps.window[max(0, len(w.ps.window)-4*w.staleAfter):]
}

// flush is ExplainAllCtx over the RNG and engine ready hands it for the
// flush's number and bridge.
func (w *Warm) flush(ctx context.Context, tuples [][]float64, ready func(int, *fallibleBridge) (*rand.Rand, *engine)) (*Result, error) {
	if err := w.admit(tuples); err != nil {
		return nil, err
	}
	// Acquire the flush slot; a caller cancelled before admission
	// leaves without touching any state — it does not count as a flush
	// — but still honours the partial-result contract: every tuple
	// comes back StatusFailed alongside ctx.Err().
	if err := ctx.Err(); err != nil {
		return w.unadmittedResult(tuples), err
	}
	select {
	case w.gate <- struct{}{}:
	case <-ctx.Done():
		return w.unadmittedResult(tuples), ctx.Err()
	}
	defer func() { <-w.gate }()

	opts := w.opts
	w.mu.Lock()
	w.flushes++
	flush := w.flushes
	w.mu.Unlock()
	f := w.open(ctx, obs.StageWarmFlush, 0)
	defer f.span.End()
	rng, eng := ready(flush, buildBridge(f.ctx, opts, w.st, w.cls))
	f.eng = eng
	f.span.SetAttr("tuples", len(tuples))
	f.span.SetAttr("flush", flush)
	rec := opts.Recorder

	// Track the incoming tuples for the next re-mine window. The exact
	// path never mines or pools, so it skips the window bookkeeping too.
	// A re-mine reads only the recent rows; the window is cut back to
	// them once it holds twice as many, so the copy is paid once per
	// 4·staleAfter tuples rather than once per flush.
	if opts.Explainer != ExactSHAP {
		for _, t := range tuples {
			w.ps.observe(w.st, t)
		}
		if keep := 4 * w.staleAfter; len(w.ps.window) >= 2*keep {
			w.ps.window = append(w.ps.window[:0:0], w.recent()...)
		}
	}

	// Refresh the pool when it is stale: mine a sample of the recent
	// window, labelling through eng so pool labels count toward this
	// flush's invocation ledger.
	rep := Report{Tuples: len(tuples), ExactFallback: w.exactFallback}
	if opts.Explainer != ExactSHAP && (!w.ps.complete || w.since >= w.staleAfter) {
		_, err := w.ps.renew(f.ctx, eng, perturb.NewGenerator(w.st, rng), func() []dataset.Itemset {
			rows := w.recent()
			n := fim.SampleSize(len(rows))
			if n >= len(rows) {
				return rows
			}
			idx := rng.Perm(len(rows))[:n]
			sort.Ints(idx)
			sampled := make([]dataset.Itemset, n)
			for i, j := range idx {
				sampled[i] = rows[j]
			}
			return sampled
		}, false, false, f.span, &rep)
		// A refresh cut short stays stale: the next flush renews again.
		if err == nil && w.ps.complete {
			w.since = 0
		}
	}
	w.ps.attach(eng)

	// Explain the flush against the (now fresh enough) warm pool.
	out, costs, err := w.ps.step(eng).explainAll(f, w.ps, tuples, &rep)
	if err != nil {
		return nil, err
	}
	w.since += len(tuples)
	var a obs.AllocDelta
	rep.WallTime, a = f.end()
	rep.AllocBytes, rep.AllocObjects = a.Bytes, a.Objects
	// Pool occupancy is owned by the gate holder, so the flush publishes
	// it: a scrape reads the gauge and never waits on the gate.
	rec.Gauge(obs.GaugeWarmPooledItemsets).Set(int64(w.ps.repo.Len()))
	w.mu.Lock()
	w.cum.add(rep)
	w.mu.Unlock()
	return &Result{Explanations: out, Report: rep, Costs: costs, Flush: flush}, ctx.Err()
}

// unadmittedResult is the partial result for a flush cancelled before
// it acquired the flush slot: nothing was attempted, so every tuple is
// StatusFailed and no warm state was touched.
func (w *Warm) unadmittedResult(tuples [][]float64) *Result {
	res := &Result{Explanations: make([]Explanation, len(tuples)), Report: Report{Tuples: len(tuples), ExactFallback: w.exactFallback}}
	markFailed(res.Explanations, &res.Report)
	return res
}

// Report returns the cost accounting accumulated across every flush.
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

// Remines reports how many staleness-triggered pool re-mines have run.
func (w *Warm) Remines() int { return int(w.ps.renews.Load()) }

// NumAttrs reports the tuple width the explainer expects — the number
// of attributes of the training statistics it was built over.
func (w *Warm) NumAttrs() int { return w.st.NumAttrs() }

// Kind reports the explainer kind this warm explainer was built with
// (after any construction-time exact fallback).
func (w *Warm) Kind() Kind { return w.opts.Explainer }

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
