package core

import (
	"context"
	"math/rand"
	"strings"
	"testing"

	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/explain/lime"
	"shahin/internal/explain/shap"
	"shahin/internal/rf"
)

// testEnv bundles the fixtures the integration tests share.
type testEnv struct {
	st     *dataset.Stats
	cls    rf.Classifier
	tuples [][]float64
}

// newEnv builds a skewed categorical dataset, a deterministic classifier
// driven by attribute 0, and a batch of tuples to explain.
func newEnv(t *testing.T, seed int64, batch int) *testEnv {
	t.Helper()
	cfg := &datagen.Config{
		Name: "ct",
		Cat: []datagen.CatSpec{
			{Card: 4, Skew: 1.2}, {Card: 3, Skew: 1.0}, {Card: 5, Skew: 1.2},
			{Card: 4, Skew: 1.0}, {Card: 6, Skew: 1.4},
		},
		Num: []datagen.NumSpec{{Mean: 0, Std: 1}},
	}
	d, err := cfg.Generate(4000, seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	cls := rf.Func{Classes: 2, F: func(x []float64) int {
		if int(x[0]) == 0 { // the most frequent value under the Zipf skew
			return 1
		}
		return 0
	}}
	tuples := d.Rows(0, batch)
	return &testEnv{st: st, cls: cls, tuples: tuples}
}

// smallOpts keeps explainer budgets modest so tests stay fast.
func smallOpts(kind Kind, seed int64) Options {
	return Options{
		Explainer: kind,
		LIME:      lime.Config{NumSamples: 300},
		SHAP:      shap.Config{NumSamples: 256, BaseSamples: 40},
		Tau:       50,
		Seed:      seed,
	}
}

func TestParseKind(t *testing.T) {
	for s, want := range map[string]Kind{
		"lime": LIME, "LIME": LIME, "Anchor": Anchor, "shap": SHAP, "KernelSHAP": SHAP,
	} {
		got, err := ParseKind(s)
		if err != nil || got != want {
			t.Errorf("ParseKind(%q)=(%v,%v) want %v", s, got, err, want)
		}
	}
	// sshap (Sampling-Shapley) is not a kind: its refusal, like any
	// other, must name the kinds there are.
	for _, s := range []string{"nope", "sshap"} {
		_, err := ParseKind(s)
		if err == nil {
			t.Fatalf("ParseKind(%q) should fail", s)
		}
		for _, name := range []string{"lime", "anchor", "shap", "exactshap"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("ParseKind(%q) error %q does not name %s", s, err, name)
			}
		}
	}
	if len(AllKinds()) != 4 || len(Kinds()) != 3 {
		t.Fatalf("AllKinds=%v Kinds=%v", AllKinds(), Kinds())
	}
	for _, k := range AllKinds() {
		if k.String() == "" {
			t.Error("empty kind name")
		}
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.Tau != 100 || o.MaxItemsets != 200 {
		t.Fatalf("defaults %+v", o)
	}
	if o.CacheBytes != 128<<20 || o.StreamRecompute != 100 {
		t.Fatalf("defaults %+v", o)
	}
}

func TestBatchEmpty(t *testing.T) {
	env := newEnv(t, 1, 10)
	b, err := NewBatch(env.st, env.cls, smallOpts(LIME, 2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ExplainAll(nil); err == nil {
		t.Fatal("empty batch accepted")
	}
}

// Shahin-Batch must explain every tuple and use substantially fewer
// classifier invocations per tuple than the sequential baseline.
func TestBatchLIMESavesInvocations(t *testing.T) {
	env := newEnv(t, 3, 60)
	opts := smallOpts(LIME, 4)

	seq, err := SequentialCtx(context.Background(), env.st, env.cls, opts, env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewBatch(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAll(env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explanations) != len(env.tuples) {
		t.Fatalf("explained %d of %d", len(res.Explanations), len(env.tuples))
	}
	for i, e := range res.Explanations {
		if e.Attribution == nil {
			t.Fatalf("tuple %d has no attribution", i)
		}
	}
	if res.Report.ReusedSamples == 0 {
		t.Fatal("no samples reused")
	}
	// With τ=50 over a 60-tuple batch the pool build is amortised poorly,
	// but marginal cost must still drop well below sequential.
	if res.Report.Invocations >= seq.Report.Invocations {
		t.Fatalf("Shahin used %d invocations, sequential %d", res.Report.Invocations, seq.Report.Invocations)
	}
	if res.Report.FrequentItemsets == 0 {
		t.Fatal("no frequent itemsets mined on skewed data")
	}
	// Explanations agree with the baseline on the decisive feature for
	// positively-predicted tuples.
	for i, e := range res.Explanations {
		if e.Attribution.Class != seq.Explanations[i].Attribution.Class {
			t.Fatalf("tuple %d class mismatch", i)
		}
	}
}

func TestBatchSHAP(t *testing.T) {
	env := newEnv(t, 5, 40)
	opts := smallOpts(SHAP, 6)
	b, err := NewBatch(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAll(env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SequentialCtx(context.Background(), env.st, env.cls, opts, env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Invocations >= seq.Report.Invocations {
		t.Fatalf("Shahin-SHAP %d invocations vs sequential %d", res.Report.Invocations, seq.Report.Invocations)
	}
	if res.Report.ReusedSamples == 0 {
		t.Fatal("no SHAP reuse")
	}
	// Attribution sanity: additivity per tuple.
	for i, e := range res.Explanations {
		sum := e.Attribution.Intercept
		for _, w := range e.Attribution.Weights {
			sum += w
		}
		if sum < 0.99 || sum > 1.01 {
			t.Fatalf("tuple %d additivity %g", i, sum)
		}
	}
}

func TestBatchAnchor(t *testing.T) {
	env := newEnv(t, 7, 40)
	opts := smallOpts(Anchor, 8)
	b, err := NewBatch(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAll(env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SequentialCtx(context.Background(), env.st, env.cls, opts, env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Invocations >= seq.Report.Invocations/2 {
		t.Fatalf("Shahin-Anchor %d invocations vs sequential %d: shared caches ineffective",
			res.Report.Invocations, seq.Report.Invocations)
	}
	for i, e := range res.Explanations {
		if e.Rule == nil {
			t.Fatalf("tuple %d has no rule", i)
		}
		if e.Rule.Precision < 0.8 {
			t.Fatalf("tuple %d rule precision %.2f", i, e.Rule.Precision)
		}
		// The concept is decided by attribute 0: every rule must pin it.
		found := false
		for _, it := range e.Rule.Items {
			if it.Attr() == 0 {
				found = true
			}
		}
		if !found {
			t.Fatalf("tuple %d rule %v does not pin attr 0", i, e.Rule.Items)
		}
	}
}

func TestStreamWarmupAndReuse(t *testing.T) {
	env := newEnv(t, 17, 150)
	opts := smallOpts(LIME, 18)
	opts.StreamRecompute = 50
	s, err := NewStream(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, tup := range env.tuples {
		exp, err := s.Explain(tup)
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if exp.Attribution == nil {
			t.Fatalf("tuple %d: no attribution", i)
		}
	}
	if s.Mines() < 2 {
		t.Fatalf("expected >= 2 re-mines, got %d", s.Mines())
	}
	rep := s.Report()
	if rep.Tuples != 150 {
		t.Fatalf("Tuples=%d", rep.Tuples)
	}
	if rep.ReusedSamples == 0 {
		t.Fatal("stream never reused after warmup")
	}
	if rep.FrequentItemsets == 0 {
		t.Fatal("stream tracked no frequent itemsets")
	}
}

func TestStreamAnchor(t *testing.T) {
	env := newEnv(t, 19, 80)
	opts := smallOpts(Anchor, 20)
	opts.StreamRecompute = 40
	s, err := NewStream(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, tup := range env.tuples {
		exp, err := s.Explain(tup)
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if exp.Rule == nil {
			t.Fatalf("tuple %d: no rule", i)
		}
	}
	rep := s.Report()
	// Late-stream tuples must be cheaper than a cold sequential run of the
	// same size would be; just require that invocations/tuple is below the
	// cold per-tuple cost.
	seq, err := SequentialCtx(context.Background(), env.st, env.cls, opts, env.tuples[:20])
	if err != nil {
		t.Fatal(err)
	}
	coldPer := seq.Report.Invocations / 20
	streamPer := rep.Invocations / int64(rep.Tuples)
	if streamPer >= coldPer {
		t.Fatalf("stream per-tuple %d not below cold %d", streamPer, coldPer)
	}
}

// The streaming variant must stay within its cache budget.
func TestStreamRespectsBudget(t *testing.T) {
	env := newEnv(t, 21, 120)
	opts := smallOpts(LIME, 22)
	opts.StreamRecompute = 40
	opts.CacheBytes = 32 << 10
	s, err := NewStream(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tup := range env.tuples {
		if _, err := s.Explain(tup); err != nil {
			t.Fatal(err)
		}
	}
	if c := s.Report().Cache; c.BytesUsed > 32<<10 || c.Evictions == 0 {
		t.Fatalf("cache used %d bytes of a 32KiB budget after %d evictions; want within it, and churn", c.BytesUsed, c.Evictions)
	}
}

// Reports: overhead fraction must be sane and small relative to wall time.
func TestReportAccounting(t *testing.T) {
	env := newEnv(t, 23, 50)
	b, err := NewBatch(env.st, env.cls, smallOpts(LIME, 24))
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAll(env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	f := res.Report.OverheadFraction()
	if f < 0 || f > 0.9 {
		t.Fatalf("overhead fraction %g out of sane range", f)
	}
	if res.Report.PerTuple() <= 0 {
		t.Fatal("PerTuple not positive")
	}
	if res.Report.PoolInvocations <= 0 || res.Report.PoolInvocations > res.Report.Invocations {
		t.Fatalf("PoolInvocations=%d of %d", res.Report.PoolInvocations, res.Report.Invocations)
	}
	var empty Report
	if empty.OverheadFraction() != 0 || empty.PerTuple() != 0 {
		t.Fatal("empty report accounting")
	}
}

// End-to-end with a real random forest (slower; keeps the full pipeline
// honest).
func TestBatchWithRandomForest(t *testing.T) {
	cfg, err := datagen.Spec("recidivism")
	if err != nil {
		t.Fatal(err)
	}
	d, err := cfg.Generate(2500, 25)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(26))
	trainD, testD := d.Split(1.0/3, rng)
	st, err := dataset.Compute(trainD)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := rf.Train(trainD, rf.Config{NumTrees: 30, MaxDepth: 8, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	tuples := testD.Rows(0, 25)
	opts := smallOpts(LIME, 28)
	b, err := NewBatch(st, forest, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAll(tuples)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explanations) != 25 {
		t.Fatalf("explained %d", len(res.Explanations))
	}
	seq, err := SequentialCtx(context.Background(), st, forest, opts, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Invocations >= seq.Report.Invocations {
		t.Fatalf("no invocation savings on RF: %d vs %d", res.Report.Invocations, seq.Report.Invocations)
	}
}

func TestBatchParallelWorkers(t *testing.T) {
	env := newEnv(t, 40, 80)
	opts := smallOpts(LIME, 41)
	opts.Workers = 4
	b, err := NewBatch(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAll(env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explanations) != len(env.tuples) {
		t.Fatalf("explained %d of %d", len(res.Explanations), len(env.tuples))
	}
	for i, e := range res.Explanations {
		if e.Attribution == nil {
			t.Fatalf("tuple %d missing (worker assignment hole)", i)
		}
	}
	if res.Report.ReusedSamples == 0 {
		t.Fatal("parallel run reused nothing")
	}
	// Classes must agree with the single-worker run tuple by tuple (the
	// prediction is deterministic; only perturbation RNG differs).
	single, err := NewBatch(env.st, env.cls, smallOpts(LIME, 41))
	if err != nil {
		t.Fatal(err)
	}
	sres, err := single.ExplainAll(env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	for i := range env.tuples {
		if res.Explanations[i].Attribution.Class != sres.Explanations[i].Attribution.Class {
			t.Fatalf("tuple %d class mismatch across worker counts", i)
		}
	}
}

func TestBatchParallelRace(t *testing.T) {
	// Exercised under -race in CI; many workers over a small batch
	// maximises interleaving on the shared snapshot.
	env := newEnv(t, 42, 24)
	opts := smallOpts(SHAP, 43)
	opts.Workers = 8
	b, err := NewBatch(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b.ExplainAll(env.tuples); err != nil {
		t.Fatal(err)
	}
}
