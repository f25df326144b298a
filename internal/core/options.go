// Package core implements Shahin itself: four entry points, each a
// runner, an admission and a window policy over one pool.
//
// The pool (poolState, kernel.go) is the paper's algorithm: a repository
// of labelled perturbations, the itemsets it is keyed by, the window of
// tuples it is next mined from, and Anchor's coverage sample. Refresh
// brings it in line with a set of rows: mine their frequent itemsets,
// cap them and evict what fell infrequent. An itemset's τ perturbations
// are labelled when it is first read (fillOnMatch). The step explains a
// tuple against it and keeps the books.
//
// A runner is options defaulted, inputs checked and ExactSHAP decided,
// once; admit refuses an empty or wrong-width call before any state
// moves. An entry point adds which rows are mined and when. Batch
// (Algorithms 1–3) refreshes once over a uniform sample of the batch,
// then steps through every tuple, on Options.Workers goroutines if asked.
// Stream (§3.5) renews its pool every StreamRecompute tuples over its
// window, border included (before the first, also at each power of two
// from 16), and promotes border itemsets in between. Warm is a Stream
// behind a flush gate.
// Sequential, the baseline, is the step up front with no pool.
package core

import (
	"fmt"
	"strings"

	"shahin/internal/cache"
	"shahin/internal/explain/anchor"
	"shahin/internal/explain/exact"
	"shahin/internal/explain/lime"
	"shahin/internal/explain/shap"
	"shahin/internal/fault"
	"shahin/internal/obs"
)

// Kind selects which explanation algorithm a run uses.
type Kind uint8

const (
	// LIME produces feature-weight attributions via a local surrogate.
	LIME Kind = iota
	// Anchor produces IF-THEN rules with precision/coverage guarantees.
	Anchor
	// SHAP produces Shapley-value attributions.
	SHAP
	// ExactSHAP produces exact Shapley-value attributions by walking the
	// owned tree ensemble directly (TreeSHAP): polynomial time, zero
	// perturbation sampling, one classifier invocation per tuple. Only
	// legal on a local tree backend — runs whose classifier exact.New
	// refuses, or with a fault chain installed, fall back to (Kernel)SHAP
	// and record an exact_fallback event.
	ExactSHAP
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case LIME:
		return "LIME"
	case Anchor:
		return "Anchor"
	case SHAP:
		return "SHAP"
	case ExactSHAP:
		return "ExactSHAP"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Kinds lists the paper's three explainer kinds in display order (the
// tables and figures of the evaluation iterate these).
func Kinds() []Kind { return []Kind{LIME, Anchor, SHAP} }

// AllKinds additionally includes the exact TreeSHAP explainer.
func AllKinds() []Kind { return []Kind{LIME, Anchor, SHAP, ExactSHAP} }

// ParseKind converts a name ("lime", "anchor", "shap", "exactshap", any
// case) to a Kind.
func ParseKind(s string) (Kind, error) {
	switch strings.ToLower(s) {
	case "lime":
		return LIME, nil
	case "anchor":
		return Anchor, nil
	case "shap", "kernelshap":
		return SHAP, nil
	case "exact", "exactshap", "treeshap":
		return ExactSHAP, nil
	default:
		return 0, fmt.Errorf("core: unknown explainer %q (want lime, anchor, shap, or exactshap)", s)
	}
}

// Options configures a Shahin run. Zero values select the noted defaults.
type Options struct {
	// Explainer picks the algorithm (default LIME).
	Explainer Kind
	// LIME / Anchor / SHAP / Exact configure the underlying explainers.
	LIME   lime.Config
	Anchor anchor.Config
	SHAP   shap.Config
	Exact  exact.Config

	// MaxItemsets caps how many frequent itemsets get pooled
	// perturbations, taken in mining order — shortest first, then highest
	// support (default 200).
	MaxItemsets int
	// Tau is the number of perturbations materialised per frequent
	// itemset (default 100, the paper's τ).
	Tau int
	// CacheBytes is the perturbation repository budget (default 128 MiB,
	// the knee of the paper's Figure 7; <= 0 keeps the default — use
	// Figure 7's sweep to vary it).
	CacheBytes int64
	// Seed drives every random choice (sampling, perturbation, bandits).
	Seed int64
	// Workers runs Batch's per-tuple explanation on this many goroutines
	// over a frozen pool snapshot (default 1 — the paper measures
	// single-core to isolate algorithmic gains). Anchor ignores Workers:
	// its shared caches are mutated during explanation.
	Workers int

	// Recorder receives live observability data from the run:
	// stage-scoped spans (mine, pool-build, pre-label, explain), atomic
	// progress counters, latency histograms for classifier Predict
	// calls and per-tuple explain times, and one provenance event per
	// explanation. nil — the default — disables all instrumentation; the
	// pipeline's hot paths then pay only nil checks. The same recorder
	// may be shared across runs (counters accumulate) and served over
	// HTTP with obs.Serve, whose index lists the views of it.
	Recorder *obs.Recorder

	// Fault configures the failure model of the classifier backend:
	// deterministic fault injection for chaos runs, per-call deadlines,
	// retry with capped exponential backoff, and a circuit breaker.
	// nil — the default — assumes an infallible in-process classifier:
	// every call passes straight through to it, and only a cancelled
	// context changes an answer.
	Fault *fault.Config

	// StreamRecompute is the streaming variant's re-mining period in
	// tuples (default 100, the paper's threshold).
	StreamRecompute int
}

// withDefaults returns a copy with defaults filled in.
func (o Options) withDefaults() Options {
	if o.MaxItemsets <= 0 {
		o.MaxItemsets = 200
	}
	if o.Tau <= 0 {
		o.Tau = 100
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 128 << 20
	}
	if o.StreamRecompute <= 0 {
		o.StreamRecompute = 100
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.Explainer == ExactSHAP && o.Exact.Seed == 0 {
		// The background is drawn once per runner (buildExact); the
		// derivation stays Seed+31 so the ExactSHAP golden rows keep
		// their bytes.
		o.Exact.Seed = o.Seed + 31
	}
	return o
}

// cacheHooks builds repository event hooks feeding the recorder's cache
// counters (zero Hooks — all callbacks nil — when rec is nil). Evictions
// additionally land in the structured event log: under a tight byte
// budget they explain where reuse went.
func cacheHooks(rec *obs.Recorder) cache.Hooks {
	if rec == nil {
		return cache.Hooks{}
	}
	evictions := rec.Counter(obs.CounterCacheEvictions)
	return cache.Hooks{
		Hit:  rec.Counter(obs.CounterCacheHits).Inc,
		Miss: rec.Counter(obs.CounterCacheMisses).Inc,
		Evict: func() {
			evictions.Inc()
			rec.Emit(obs.Event{Type: obs.EventCacheEvict, Tuple: -1})
		},
	}
}
