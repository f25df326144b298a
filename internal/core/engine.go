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
	cls  *meter
	fb   *fallibleBridge // pass-through when the run has no Options.Fault

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

// Guesses is how many labels the bridge below has guessed: Anchor stores
// a pull's samples only if this did not move while they were labelled.
func (m *meter) Guesses() int64 { return m.Classifier.(*fallibleBridge).guesses }

// newEngine wires up the explainer of the requested kind over the meter
// and, below it, the bridge fb. The constructors draw nothing from rng.
// proto is what buildExact built; an ExactSHAP engine walks a fork of it
// that predicts through the meter.
func newEngine(opts Options, st *dataset.Stats, rng *rand.Rand, fb *fallibleBridge, proto *exact.Explainer) *engine {
	m := &meter{Classifier: fb, latency: opts.Recorder.Histogram(obs.HistPredict)}
	e := &engine{opts: opts, st: st, cls: m, fb: fb}
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

// worker builds the engine of parallel worker w: its own seed, RNG,
// invocation counter and fork of the bridge (the fault chain underneath
// is shared and internally locked).
func (e *engine) worker(w int) *engine {
	opts := e.opts
	opts.Seed += 7919 * int64(w+1)
	return newEngine(opts, e.st, rand.New(rand.NewSource(opts.Seed)), e.fb.fork(), e.exact)
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
	e.fb.beginTuple()
	return &e.cls.cost
}

// aside runs fn — a unit of its own, opened with begin — in the middle of
// the current one and returns how long it took. The current unit's record
// and the bridge's outcome flags are put back afterwards, so the unit
// reads as if fn had not run.
func (e *engine) aside(fn func()) time.Duration {
	cost, flags := e.cls.cost, e.fb.tuple
	sw := stopwatch()
	fn()
	d, _ := sw.end()
	e.cls.cost, e.fb.tuple = cost, flags
	return d
}

// dead reports whether the context the engine predicts under is done.
func (e *engine) dead() bool { return e.fb.ctx.Err() != nil }

// tupleStatus reports how the current tuple's predictions were answered.
func (e *engine) tupleStatus() Status { return e.fb.status() }
