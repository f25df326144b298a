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
	"shahin/internal/obs"
	"shahin/internal/rf"
)

// engine bundles one configured explainer of the selected kind together
// with the classifier instrumentation every run needs.
type engine struct {
	opts Options
	st   *dataset.Stats
	raw  rf.Classifier // the caller's classifier, below the bridge and the meter
	cls  *meter
	fb   *fallibleBridge // nil on the infallible fast path

	lime   *lime.Explainer
	anchor *anchor.Explainer
	shap   *shap.Explainer
	exact  *exact.Explainer
}

// meter tops an engine's classifier chain and charges every Predict to
// the cost record of the unit in progress: counted always, timed — into
// the record's classify stage and the predict-latency histogram — only
// with a recorder. It sits *above* the bridge, so predictions the
// degradation ladder answers are charged too and the reconciliation
// identity holds under faults. The explainer calls it on its own
// goroutine and each parallel worker owns its engine: no lock.
type meter struct {
	rf.Classifier
	cost    Cost
	latency *obs.Histogram // nil without a recorder
}

// Predict implements rf.Classifier.
func (m *meter) Predict(x []float64) int {
	m.cost.Fresh++
	if m.latency == nil {
		return m.Classifier.Predict(x)
	}
	sw := stopwatch()
	y := m.Classifier.Predict(x)
	d, _ := sw.end()
	m.latency.Observe(d)
	m.cost.Stages.Classify += d
	return y
}

// newEngine wires up the explainer of the requested kind over cls, with
// an optional fallible bridge between the meter and the classifier. The
// constructors draw nothing from rng. proto is what buildExact built;
// an ExactSHAP engine walks a fork of it that predicts through the meter.
func newEngine(opts Options, st *dataset.Stats, cls rf.Classifier, rng *rand.Rand, fb *fallibleBridge, proto *exact.Explainer) *engine {
	m := &meter{latency: opts.Recorder.Histogram(obs.HistPredict)}
	e := &engine{opts: opts, st: st, raw: cls, cls: m}
	e.rebind(fb)
	switch opts.Explainer {
	case LIME:
		e.lime = lime.New(st, m, opts.LIME, rng)
	case Anchor:
		e.anchor = anchor.New(st, m, nil, opts.Anchor, rng)
	case SHAP:
		e.shap = shap.New(st, m, opts.SHAP, rng)
	case ExactSHAP:
		e.exact = proto.Fork(m)
	}
	return e
}

// rebind readies the engine for a run over fb, as newEngine would have
// built it: the meter predicts through fb (nil: straight to the
// classifier), its record starts empty, and per-run explainer state —
// KernelSHAP's base rates — is forgotten. The explainers' workspaces and
// the RNG they draw from stay; re-seeding that is the caller's.
func (e *engine) rebind(fb *fallibleBridge) {
	e.fb = fb
	e.cls.Classifier = e.raw
	if fb != nil {
		e.cls.Classifier = fb
	}
	e.cls.cost = Cost{}
	if e.shap != nil {
		e.shap.Reset()
	}
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
	return newEngine(opts, e.st, e.raw, rand.New(rand.NewSource(opts.Seed)), fb, e.exact)
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
// The two explainers that report their work only as a lifetime counter
// are converted to the unit's record here, at the call.
func (e *engine) explain(t []float64, pool explain.Pool, sh *anchor.Shared) (Explanation, error) {
	var (
		exp Explanation
		err error
	)
	switch e.opts.Explainer {
	case LIME:
		exp.Attribution, err = e.lime.ExplainWithPool(t, pool)
	case Anchor:
		var hits int64
		if sh != nil {
			hits = sh.Repo.Stats().Hits
		}
		exp.Rule, err = e.anchor.ExplainShared(t, sh)
		if sh != nil {
			e.cls.cost.CacheHits = sh.Repo.Stats().Hits - hits
		}
	case SHAP:
		exp.Attribution, err = e.shap.ExplainWithPool(t, pool)
	case ExactSHAP:
		visits := e.exact.NodeVisits()
		exp.Attribution, err = e.exact.Explain(t)
		e.cls.cost.NodeVisits = e.exact.NodeVisits() - visits
	default:
		err = fmt.Errorf("core: unknown explainer kind %d", e.opts.Explainer)
	}
	return exp, err
}

// begin opens a unit of labelling — one tuple's explanation, or one
// itemset's pre-labelling — and returns the record it is charged to,
// zeroed; the bridge's outcome flags start over with it.
func (e *engine) begin() *Cost {
	e.cls.cost = Cost{}
	if e.fb != nil {
		e.fb.beginTuple()
	}
	return &e.cls.cost
}

// aside runs fn — a unit of its own, opened with begin — in the middle of
// the current one and returns how long it took. The current unit's record
// and the bridge's outcome flags are put back afterwards, so the unit
// reads as if fn had not run.
func (e *engine) aside(fn func()) time.Duration {
	cost := e.cls.cost
	var flags outcome
	if e.fb != nil {
		flags = e.fb.tuple
	}
	sw := stopwatch()
	fn()
	d, _ := sw.end()
	e.cls.cost = cost
	if e.fb != nil {
		e.fb.tuple = flags
	}
	return d
}

// canceled reports whether any prediction since begin found the context
// dead and was answered by a guess.
func (e *engine) canceled() bool { return e.fb != nil && e.fb.tuple.canceled }

// dead reports whether the context the engine predicts under is done.
func (e *engine) dead() bool { return e.fb != nil && e.fb.ctx.Err() != nil }

// tupleStatus reports how the current tuple's predictions were answered.
func (e *engine) tupleStatus() Status {
	if e.fb == nil {
		return StatusOK
	}
	return e.fb.status()
}
