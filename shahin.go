// Package shahin is a Go implementation of Shahin (Hasani et al., SIGMOD
// 2021): fast generation of explanations for multiple predictions.
//
// Perturbation-based explainers — LIME, Anchor, and KernelSHAP — spend
// almost all of their time invoking the black-box classifier on perturbed
// tuples. When many predictions must be explained at once, much of that
// work is redundant. Shahin mines frequent itemsets over the batch,
// materialises labelled perturbations frozen on those itemsets, and
// reuses them across every explanation, typically cutting classifier
// invocations by an order of magnitude without changing the explanations.
//
// A model trained in-process (the built-in random forest) additionally
// unlocks ExactSHAP: a polynomial-time TreeSHAP walk over the owned
// trees that produces exact Shapley values with no perturbation
// sampling at all.
//
// # Quick start
//
//	train, test := data.Split(1.0/3, rng)
//	stats, _ := shahin.ComputeStats(train)
//	model, _ := shahin.TrainForest(train, shahin.ForestConfig{})
//	batch, _ := shahin.NewBatch(stats, model, shahin.Options{Explainer: shahin.LIME})
//	res, _ := batch.ExplainAll(test.Rows(0, 1000))
//	for _, e := range res.Explanations { fmt.Println(e.Attribution.TopK(5)) }
//
// Three entry points cover the paper's deployment modes:
//
//   - NewBatch: all tuples known up front (Algorithms 1–3).
//   - NewStream: requests arrive one at a time under a memory budget
//     (§3.5); its pool changes only when it re-mines, periodically.
//   - Sequential: the no-reuse baseline the paper evaluates against,
//     useful for measuring speedups on your own workload.
//
// Any model implementing the two-method Classifier interface can be
// explained; the built-in random forest (TrainForest) matches the paper's
// experimental setup.
package shahin

import (
	"context"
	"io"
	"math/rand"

	"shahin/internal/core"
	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/explain/anchor"
	"shahin/internal/explain/exact"
	"shahin/internal/explain/lime"
	"shahin/internal/explain/shap"
	"shahin/internal/fault"
	"shahin/internal/obs"
	"shahin/internal/rf"
	"shahin/internal/store"
)

// Core data types.
type (
	// Dataset is a column-major table of tuples with optional labels.
	Dataset = dataset.Dataset
	// Schema describes attributes (categorical or numeric) and classes.
	Schema = dataset.Schema
	// Attr is one attribute of a schema.
	Attr = dataset.Attr
	// Stats holds the training-distribution statistics explainers sample
	// from; compute once per training set with ComputeStats.
	Stats = dataset.Stats
	// Item is a packed (attribute, bin) pair.
	Item = dataset.Item
	// Itemset is a canonically ordered set of items.
	Itemset = dataset.Itemset
)

// Attribute kinds.
const (
	// Categorical attributes take one of a fixed set of values.
	Categorical = dataset.Categorical
	// Numeric attributes take real values (quartile-discretised for
	// itemisation).
	Numeric = dataset.Numeric
)

// Classifier is the black-box model interface: NumClasses and Predict.
type Classifier = rf.Classifier

// Forest is the built-in random forest classifier.
type Forest = rf.Forest

// ForestConfig controls TrainForest.
type ForestConfig = rf.Config

// ClassifierFunc adapts a plain function to the Classifier interface.
type ClassifierFunc = rf.Func

// Explanation outputs.
type (
	// Attribution is a per-attribute importance vector (LIME, SHAP).
	Attribution = explain.Attribution
	// Rule is an IF-THEN explanation with precision and coverage (Anchor).
	Rule = explain.Rule
	// Explanation is the per-tuple result: Attribution or Rule.
	Explanation = core.Explanation
)

// Run configuration and results.
type (
	// Options configures a Shahin run (explainer kind, itemset mining,
	// perturbation budget τ, cache size, seed).
	Options = core.Options
	// Result holds explanations plus the run's cost report.
	Result = core.Result
	// Report is the cost accounting of one run.
	Report = core.Report
	// Batch is the batch variant of Shahin.
	Batch = core.Batch
	// Stream is the streaming variant of Shahin.
	Stream = core.Stream
	// Warm is the serving variant of Shahin: a Stream behind a flush
	// gate, its pool kept across ExplainAll flushes (shahin-serve's engine).
	Warm = core.Warm
)

// Per-explainer tuning knobs (the matching fields of Options).
type (
	// LIMEConfig tunes the LIME explainer (sample budget, reuse cap).
	LIMEConfig = lime.Config
	// AnchorConfig tunes the Anchor explainer's budgets (perturbations
	// per pull, pulls per selection, perturbations kept per rule).
	AnchorConfig = anchor.Config
	// SHAPConfig tunes the KernelSHAP explainer (coalition budget,
	// base-rate samples, uniform coalition sizes).
	SHAPConfig = shap.Config
	// ExactConfig tunes the exact TreeSHAP fast path (background
	// sample size for the cover weights, seed).
	ExactConfig = exact.Config
)

// Observability: set Options.Recorder to collect stage-scoped spans,
// counters and latency histograms from a run, and optionally serve
// them over HTTP while the run is in flight.
type (
	// Recorder collects spans, counters, and histograms; nil disables
	// all instrumentation at zero cost.
	Recorder = obs.Recorder
	// MetricsServer serves a Recorder's live endpoints; GET / on it
	// lists them.
	MetricsServer = obs.Server
	// RecorderMetrics is the /metrics JSON snapshot shape.
	RecorderMetrics = obs.Metrics
)

// NewRecorder returns an empty observability recorder; pass it via
// Options.Recorder (it may be shared across runs — counters accumulate).
func NewRecorder() *Recorder { return obs.NewRecorder() }

// ServeMetrics serves rec on addr (":0" picks a free port; see
// MetricsServer.Addr) until the returned server is closed.
func ServeMetrics(addr string, rec *Recorder) (*MetricsServer, error) {
	return obs.Serve(addr, rec)
}

// Robustness: set Options.Fault to run against a fallible classifier
// backend (injected faults, per-call deadlines, retry/backoff, circuit
// breaking), and use the Ctx entry points for cancellable runs that
// return partial results.
type (
	// FaultConfig configures the fault-tolerance chain around the
	// classifier: injection rates, per-call deadline, retry/backoff, and
	// circuit-breaker knobs. The zero value disables everything.
	FaultConfig = fault.Config
	// Status reports how an explanation was produced: ok, degraded
	// (classifier failures papered over by fallback labels), or failed.
	Status = core.Status
)

// Explanation status values.
const (
	// StatusOK: every classifier call behind the explanation succeeded.
	StatusOK = core.StatusOK
	// StatusDegraded: some calls failed and fallback labels were used.
	StatusDegraded = core.StatusDegraded
	// StatusFailed: the tuple was not explained (cancelled or exhausted).
	StatusFailed = core.StatusFailed
)

// Kind selects the explanation algorithm.
type Kind = core.Kind

// Explainer kinds.
const (
	// LIME trains a local surrogate and reports feature weights.
	LIME = core.LIME
	// Anchor finds high-precision IF-THEN rules.
	Anchor = core.Anchor
	// SHAP estimates Shapley values with the SHAP kernel.
	SHAP = core.SHAP
	// ExactSHAP computes exact Shapley values with a polynomial-time
	// TreeSHAP walk over the owned tree ensemble — no perturbation
	// sampling at all. Legal only against a local tree-backed
	// classifier without fault injection; other runs silently fall
	// back to KernelSHAP with a provenance marker.
	ExactSHAP = core.ExactSHAP
)

// ParseKind converts "lime", "anchor", "shap" or "exactshap" to a Kind.
func ParseKind(s string) (Kind, error) { return core.ParseKind(s) }

// ComputeStats derives the training-distribution statistics every
// explainer needs from a (training) dataset.
func ComputeStats(d *Dataset) (*Stats, error) { return dataset.Compute(d) }

// TrainForest fits the built-in random forest on a labelled dataset.
func TrainForest(d *Dataset, cfg ForestConfig) (*Forest, error) { return rf.Train(d, cfg) }

// NewBatch creates Shahin's batch explainer: call ExplainAll with every
// tuple to explain.
func NewBatch(st *Stats, cls Classifier, opts Options) (*Batch, error) {
	return core.NewBatch(st, cls, opts)
}

// NewStream creates Shahin's streaming explainer: call Explain as each
// request arrives. Nil statistics or a nil classifier is an error here;
// a tuple not as wide as the schema is Explain's error, and leaves the
// stream as it was.
func NewStream(st *Stats, cls Classifier, opts Options) (*Stream, error) {
	return core.NewStream(st, cls, opts)
}

// NewWarm creates Shahin's warm serving explainer: each ExplainAll call
// is a flush that streams its tuples in order; the pool is
// renewed every staleAfter tuples (<= 0 selects
// core.DefaultStaleAfter).
func NewWarm(st *Stats, cls Classifier, opts Options, staleAfter int) (*Warm, error) {
	return core.NewWarm(st, cls, opts, staleAfter)
}

// Sequential explains the batch one tuple at a time with no reuse — the
// baseline all speedup ratios are measured against. A malformed call —
// nil statistics or classifier, no tuples, a tuple not as wide as the
// schema (named by its index) — returns an error before anything runs.
func Sequential(st *Stats, cls Classifier, opts Options, tuples [][]float64) (*Result, error) {
	return core.SequentialCtx(context.Background(), st, cls, opts, tuples)
}

// SequentialCtx is Sequential under a context: cancellation stops the
// loop between tuples and returns the finished explanations as a
// partial Result alongside ctx.Err(); unattempted tuples carry
// StatusFailed.
func SequentialCtx(ctx context.Context, st *Stats, cls Classifier, opts Options, tuples [][]float64) (*Result, error) {
	return core.SequentialCtx(ctx, st, cls, opts, tuples)
}

// DatasetNames lists the built-in synthetic dataset families, shaped
// after the paper's five benchmarks (census, recidivism, lending,
// kddcup99, covertype).
func DatasetNames() []string { return datagen.Names() }

// GenerateDataset produces rows tuples of a built-in synthetic family
// (rows <= 0 uses the paper-scale size — up to 4 M rows; prefer an
// explicit size).
func GenerateDataset(name string, rows int, seed int64) (*Dataset, error) {
	cfg, err := datagen.Spec(name)
	if err != nil {
		return nil, err
	}
	return cfg.Generate(rows, seed)
}

// SplitDataset shuffles and splits a dataset into train and test parts
// with the given training fraction, matching the paper's 1/3 train, 2/3
// explain protocol when frac = 1/3.
func SplitDataset(d *Dataset, frac float64, seed int64) (train, test *Dataset) {
	return d.Split(frac, rand.New(rand.NewSource(seed)))
}

// ReadCSV parses a dataset in the format WriteCSV produces, validating
// the header against the schema.
func ReadCSV(r io.Reader, schema *Schema) (*Dataset, error) { return dataset.ReadCSV(r, schema) }

// InferOptions tunes InferCSV's schema inference.
type InferOptions = dataset.InferOptions

// InferCSV reads a headered CSV without a schema, inferring attribute
// kinds (numeric vs categorical) and the class column; see InferOptions.
func InferCSV(r io.Reader, opts InferOptions) (*Dataset, error) {
	return dataset.InferSchema(r, opts)
}

// WriteCSV writes the dataset with a header row; labels (when present)
// become a trailing "class" column.
func WriteCSV(w io.Writer, d *Dataset) error { return dataset.WriteCSV(w, d) }

// ExplanationStore maps tuples to pre-computed explanations with exact
// lookup and gob persistence: pre-compute overnight with a Batch run,
// serve during the day.
type ExplanationStore = store.Store

// BuildExplanationStore indexes a Batch run's output.
func BuildExplanationStore(tuples [][]float64, exps []Explanation) (*ExplanationStore, error) {
	return store.Build(tuples, exps)
}

// LoadExplanationStore reads a store written by (*ExplanationStore).Save.
func LoadExplanationStore(r io.Reader) (*ExplanationStore, error) { return store.Load(r) }
