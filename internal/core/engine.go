package core

import (
	"fmt"
	"math/rand"
	"time"

	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/explain/anchor"
	"shahin/internal/explain/exact"
	"shahin/internal/explain/lime"
	"shahin/internal/explain/shap"
	"shahin/internal/explain/sshap"
	"shahin/internal/obs"
	"shahin/internal/rf"
)

// engine bundles one configured explainer of the selected kind together
// with the classifier instrumentation every run needs.
type engine struct {
	kind Kind
	opts Options
	st   *dataset.Stats
	raw  rf.Classifier // the caller's classifier, below the bridge and the counter
	cls  *rf.Counting
	fb   *fallibleBridge // nil on the infallible fast path

	// classify accumulates in-classifier time via the predict hook.
	// The counting wrapper sits at the top of the chain, so the hook
	// fires on the explainer's own goroutine — no lock needed (each
	// parallel worker owns its engine).
	classify time.Duration
	// tupleHist and doneCtr are the per-explanation latency histogram
	// and progress counter (nil — and no-ops — without a recorder).
	tupleHist *obs.Histogram
	doneCtr   *obs.Counter

	lime   *lime.Explainer
	anchor *anchor.Explainer
	shap   *shap.Explainer
	sshap  *sshap.Explainer
	exact  *exact.Explainer
}

// newEngineBridge wires up the explainer of the requested kind over
// cls, with an optional fallible bridge between the counting wrapper and
// the classifier. The counting wrapper sits *above* the bridge so every
// logical prediction — including ones the degradation ladder answers —
// counts toward the invocation ledger, keeping the event-reconciliation
// identity intact under faults. When a recorder is attached, every
// Predict through this engine also feeds the recorder's invocation
// counter and latency histogram. The constructors draw nothing from rng.
func newEngineBridge(opts Options, st *dataset.Stats, cls rf.Classifier, rng *rand.Rand, fb *fallibleBridge) *engine {
	base := cls
	if fb != nil {
		base = fb
	}
	counting := rf.NewCounting(base)
	e := &engine{kind: opts.Explainer, opts: opts, st: st, raw: cls, cls: counting, fb: fb}
	if rec := opts.Recorder; rec != nil {
		invocations := rec.Counter(obs.CounterInvocations)
		latency := rec.Histogram(obs.HistPredict)
		counting.SetPredictHook(func(d time.Duration) {
			invocations.Inc()
			latency.Observe(d)
			e.classify += d
		})
		e.tupleHist = rec.Histogram(obs.HistExplainTuple)
		e.doneCtr = rec.Counter(obs.CounterTuplesDone)
	}
	switch opts.Explainer {
	case LIME:
		e.lime = lime.New(st, counting, opts.LIME, rng)
	case Anchor:
		e.anchor = anchor.New(st, counting, nil, opts.Anchor, rng)
	case SHAP:
		e.shap = shap.New(st, counting, opts.SHAP, rng)
	case SampleSHAP:
		e.sshap = sshap.New(st, counting, opts.SSHAP, rng)
	case ExactSHAP:
		ex, err := exact.New(st, counting, opts.Exact)
		if err != nil {
			// Eligibility is decided at the run entry points (see
			// exactEligible); an unchecked caller degrades to KernelSHAP
			// rather than crashing mid-run. The marker event keeps even
			// this defensive degrade visible in provenance.
			if rec := opts.Recorder; rec != nil {
				rec.Emit(obs.Event{
					Type: obs.EventExactFallback, Tuple: -1,
					Explainer: ExactSHAP.String(), State: "unsupported_classifier",
				})
			}
			e.kind = SHAP
			e.shap = shap.New(st, counting, opts.SHAP, rng)
			break
		}
		e.exact = ex
	}
	return e
}

// worker builds the engine of parallel worker w: its own seed, RNG and
// invocation counter, and — when the run is fallible — its own fork of
// the bridge (the fault chain underneath is shared and internally
// locked).
func (e *engine) worker(w int) *engine {
	opts := e.opts
	opts.Seed += 7919 * int64(w+1)
	var fb *fallibleBridge
	if e.fb != nil {
		fb = e.fb.fork()
	}
	return newEngineBridge(opts, e.st, e.raw, rand.New(rand.NewSource(opts.Seed)), fb)
}

// setCoverage hands Anchor the itemised rows rule coverage is measured
// against (no-op for the other kinds).
func (e *engine) setCoverage(rows []dataset.Itemset) {
	if e.anchor != nil {
		e.anchor.SetCoverageRows(rows)
	}
}

// explain runs one explanation. pool may be nil (sequential); sh is the
// Anchor shared state — nil makes Anchor run with fresh per-tuple caches.
func (e *engine) explain(t []float64, pool explain.Pool, sh *anchor.Shared) (Explanation, error) {
	switch e.kind {
	case LIME:
		att, err := e.lime.ExplainWithPool(t, pool)
		if err != nil {
			return Explanation{}, err
		}
		return Explanation{Attribution: att}, nil
	case Anchor:
		rule, err := e.anchor.ExplainShared(t, sh)
		if err != nil {
			return Explanation{}, err
		}
		return Explanation{Rule: rule}, nil
	case SHAP:
		att, err := e.shap.ExplainWithPool(t, pool)
		if err != nil {
			return Explanation{}, err
		}
		return Explanation{Attribution: att}, nil
	case SampleSHAP:
		att, err := e.sshap.ExplainWithPool(t, pool)
		if err != nil {
			return Explanation{}, err
		}
		return Explanation{Attribution: att}, nil
	case ExactSHAP:
		att, err := e.exact.Explain(t)
		if err != nil {
			return Explanation{}, err
		}
		return Explanation{Attribution: att}, nil
	default:
		return Explanation{}, fmt.Errorf("core: unknown explainer kind %d", e.kind)
	}
}

// invocations reports the classifier calls made through this engine.
func (e *engine) invocations() int64 { return e.cls.Invocations() }

// nodeVisits reports the cumulative tree nodes walked by the exact
// explainer (0 for sampled kinds); per-tuple deltas ride exact_shap
// provenance events.
func (e *engine) nodeVisits() int64 {
	if e.exact == nil {
		return 0
	}
	return e.exact.NodeVisits()
}

// classifyTime reports cumulative in-classifier time through this
// engine (0 without a recorder — the predict hook is where timing is
// measured). Per-tuple deltas feed the classify stage of latency
// attribution.
func (e *engine) classifyTime() time.Duration { return e.classify }

// beginTuple resets the bridge's outcome flags before a unit of
// labelling — one tuple's explanation, or one itemset's pre-labelling
// (no-op on the infallible fast path).
func (e *engine) beginTuple() {
	if e.fb != nil {
		e.fb.beginTuple()
	}
}

// canceled reports whether any prediction since beginTuple found the
// context dead and was answered by a guess.
func (e *engine) canceled() bool { return e.fb != nil && e.fb.tupleCanceled }

// tupleStatus reports how the current tuple's predictions were answered.
func (e *engine) tupleStatus() Status {
	if e.fb == nil {
		return StatusOK
	}
	return e.fb.status()
}
