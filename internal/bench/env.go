// Package bench is the experiment harness: for every table and figure in
// the paper's evaluation section it provides a runner that regenerates
// the same rows/series on the synthetic dataset twins, plus the ablation
// studies DESIGN.md calls out.
//
// Absolute numbers differ from the paper (different hardware, language,
// and scaled workloads) but the harness is built so the paper's *shape*
// reproduces: classifier invocations dominate cost (a calibrated per-call
// delay restores the Python cost profile), speedups are measured against
// the same sequential baseline, and every knob the paper sweeps (batch
// size, τ, cache size) is swept here.
package bench

import (
	"fmt"
	"math/rand"
	"time"

	"shahin/internal/core"
	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/explain/anchor"
	"shahin/internal/explain/lime"
	"shahin/internal/explain/shap"
	"shahin/internal/obs"
	"shahin/internal/rf"
)

// Config scales the whole experiment suite. The zero value (via fill)
// runs laptop-sized workloads; cmd/shahin-bench -full approaches paper
// scale.
type Config struct {
	Rows    int           `json:"rows"`     // dataset rows generated per dataset (default 6000)
	Batch   int           `json:"batch"`    // default batch size for single-batch experiments (default 200)
	Batches []int         `json:"batches"`  // batch-size sweep for Figures 2-4 (default 50, 200, 500)
	Trees   int           `json:"trees"`    // random forest size (default 50)
	Delay   time.Duration `json:"delay_ns"` // artificial per-invocation latency (default 50µs)
	Seed    int64         `json:"seed"`     // master seed (default 1)

	LIMESamples int `json:"lime_samples"` // LIME perturbation budget N (default 400)
	SHAPSamples int `json:"shap_samples"` // SHAP coalition budget M (default 256)
	Tau         int `json:"tau"`          // perturbations per frequent itemset (default 100)

	// Recorder, when non-nil, instruments every run of the suite: spans
	// per stage, live counters, and latency histograms, servable over
	// HTTP while experiments are in flight. nil keeps runs uninstrumented
	// (the zero-overhead default the package's tests run with).
	Recorder *obs.Recorder `json:"-"`
}

// Fill returns the config with defaults applied.
func (c Config) Fill() Config {
	if c.Rows <= 0 {
		c.Rows = 6000
	}
	if c.Batch <= 0 {
		c.Batch = 200
	}
	if len(c.Batches) == 0 {
		c.Batches = []int{50, 200, 500}
	}
	if c.Trees <= 0 {
		c.Trees = 50
	}
	if c.Delay == 0 {
		// Calibrated so the classifier accounts for ~90 % of a sequential
		// explanation's wall time, matching the paper's profiling (88-95 %).
		c.Delay = 50 * time.Microsecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.LIMESamples <= 0 {
		c.LIMESamples = 400
	}
	if c.SHAPSamples <= 0 {
		c.SHAPSamples = 256
	}
	if c.Tau <= 0 {
		c.Tau = 100
	}
	return c
}

// Options builds the core.Options for an explainer kind under this
// config. Anchor's per-rule pull budget is capped so that tuples whose
// best rule hovers at the precision threshold cannot dominate a run.
func (c Config) Options(kind core.Kind) core.Options {
	return core.Options{
		Explainer: kind,
		LIME:      lime.Config{NumSamples: c.LIMESamples},
		SHAP:      shap.Config{NumSamples: c.SHAPSamples, BaseSamples: 50},
		Anchor:    anchor.Config{MaxPulls: 2000, BatchPulls: 25},
		Tau:       c.Tau,
		Seed:      c.Seed + 100,
		Recorder:  c.Recorder,
	}
}

// Env is a prepared benchmark environment: synthetic dataset, trained
// forest, training statistics, and the batch of tuples to explain.
type Env struct {
	Name   string
	Spec   *datagen.Config
	Train  *dataset.Dataset
	Test   *dataset.Dataset
	Stats  *dataset.Stats
	Forest *rf.Forest
	delay  time.Duration
}

// NewEnv generates a dataset twin, splits 1/3 train : 2/3 explain
// (the paper's protocol), trains the forest, and computes stats.
func NewEnv(name string, cfg Config) (*Env, error) {
	cfg = cfg.Fill()
	spec, err := datagen.Spec(name)
	if err != nil {
		return nil, err
	}
	data, err := spec.Generate(cfg.Rows, cfg.Seed)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	train, test := data.Split(1.0/3, rng)
	st, err := dataset.Compute(train)
	if err != nil {
		return nil, err
	}
	forest, err := rf.Train(train, rf.Config{NumTrees: cfg.Trees, MaxDepth: 10, Seed: cfg.Seed + 2})
	if err != nil {
		return nil, err
	}
	return &Env{Name: name, Spec: spec, Train: train, Test: test, Stats: st, Forest: forest, delay: cfg.Delay}, nil
}

// Classifier returns the black box under test: the forest wrapped with
// the calibrated per-invocation delay that restores the paper's cost
// profile (classifier ≈ 90 % of explanation time).
func (e *Env) Classifier() rf.Classifier {
	if e.delay <= 0 {
		return e.Forest
	}
	return rf.NewDelayed(e.Forest, e.delay)
}

// Tuples returns the first n test tuples (clamped to availability).
func (e *Env) Tuples(n int) ([][]float64, error) {
	if n > e.Test.NumRows() {
		return nil, fmt.Errorf("bench: need %d tuples but %s test split has %d (raise -rows)",
			n, e.Name, e.Test.NumRows())
	}
	return e.Test.Rows(0, n), nil
}

// DatasetNames returns the benchmark datasets in Table 1 order.
func DatasetNames() []string {
	return []string{"census", "recidivism", "lending", "kddcup99", "covertype"}
}
