package lime

import (
	"math"
	"math/rand"
	"testing"

	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/linmodel"
	"shahin/internal/perturb"
	"shahin/internal/rf"
)

// env builds stats over a 3-categorical + 1-numeric dataset.
func env(t *testing.T, seed int64) *dataset.Stats {
	t.Helper()
	cfg := &datagen.Config{
		Name: "lt",
		Cat:  []datagen.CatSpec{{Card: 4, Skew: 1}, {Card: 3, Skew: 0.5}, {Card: 5, Skew: 1.2}},
		Num:  []datagen.NumSpec{{Mean: 0, Std: 1}},
	}
	d, err := cfg.Generate(3000, seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// censusEnv builds stats over the 42-attribute census twin and returns
// them with the twin's first n rows as tuples to explain.
func censusEnv(t *testing.T, rows int, seed int64, n int) (*dataset.Stats, [][]float64) {
	t.Helper()
	return twinEnv(t, "census", rows, seed, n)
}

// twinEnv is censusEnv for the named twin.
func twinEnv(t *testing.T, name string, rows int, seed int64, n int) (*dataset.Stats, [][]float64) {
	t.Helper()
	spec, err := datagen.Spec(name)
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(rows, seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	return st, d.Rows(0, n)
}

// attr0Classifier predicts 1 iff categorical attribute 0 equals v.
func attr0Classifier(v int) rf.Classifier {
	return rf.Func{Classes: 2, F: func(x []float64) int {
		if int(x[0]) == v {
			return 1
		}
		return 0
	}}
}

func TestExplainWrongArity(t *testing.T) {
	st := env(t, 1)
	e := New(st, attr0Classifier(0), Config{}, rand.New(rand.NewSource(2)))
	if _, err := e.Explain([]float64{1, 2}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

func TestExplainShape(t *testing.T) {
	st := env(t, 3)
	e := New(st, attr0Classifier(1), Config{NumSamples: 200}, rand.New(rand.NewSource(4)))
	att, err := e.Explain([]float64{1, 0, 2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(att.Weights) != 4 {
		t.Fatalf("weights len=%d want 4", len(att.Weights))
	}
	if att.Class != 1 {
		t.Fatalf("explained class=%d want 1", att.Class)
	}
}

// The single decisive attribute must dominate the attribution.
func TestExplainFindsDecisiveFeature(t *testing.T) {
	st := env(t, 5)
	e := New(st, attr0Classifier(2), Config{NumSamples: 1500}, rand.New(rand.NewSource(6)))
	att, err := e.Explain([]float64{2, 1, 3, -0.2})
	if err != nil {
		t.Fatal(err)
	}
	if top := att.Ranking()[0]; top != 0 {
		t.Fatalf("top feature=%d want 0 (weights %v)", top, att.Weights)
	}
	if att.Weights[0] <= 0 {
		t.Fatalf("decisive feature weight %g should be positive", att.Weights[0])
	}
	// The other attributes should carry much smaller weight.
	for a := 1; a < 4; a++ {
		if math.Abs(att.Weights[a]) > 0.5*att.Weights[0] {
			t.Fatalf("irrelevant attr %d weight %g vs decisive %g", a, att.Weights[a], att.Weights[0])
		}
	}
}

// A negated decisive feature (tuple lacks the winning value) must get the
// dominant weight too, still positive toward the predicted (0) class.
func TestExplainNegativeClass(t *testing.T) {
	st := env(t, 7)
	e := New(st, attr0Classifier(2), Config{NumSamples: 1500}, rand.New(rand.NewSource(8)))
	att, err := e.Explain([]float64{0, 1, 3, 0.1}) // predicted class 0
	if err != nil {
		t.Fatal(err)
	}
	if att.Class != 0 {
		t.Fatalf("class=%d want 0", att.Class)
	}
	if top := att.Ranking()[0]; top != 0 {
		t.Fatalf("top feature=%d want 0", top)
	}
}

func TestExplainDeterministic(t *testing.T) {
	st := env(t, 9)
	tup := []float64{1, 0, 2, 0.3}
	a, err := New(st, attr0Classifier(1), Config{NumSamples: 300}, rand.New(rand.NewSource(10))).Explain(tup)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(st, attr0Classifier(1), Config{NumSamples: 300}, rand.New(rand.NewSource(10))).Explain(tup)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Weights {
		if a.Weights[i] != b.Weights[i] {
			t.Fatal("same-seed explanations differ")
		}
	}
}

// fakePool serves pre-labelled samples frozen on a fixed itemset.
type fakePool struct {
	samples  []perturb.Pooled
	tupleReq int // ForTuple calls seen
}

func (p *fakePool) ForTuple(tupleItems []dataset.Item, max int) []perturb.Pooled {
	p.tupleReq++
	if max > len(p.samples) {
		max = len(p.samples)
	}
	return p.samples[:max]
}

func (p *fakePool) ForItemset(required dataset.Itemset, max int) []perturb.Pooled {
	return nil
}

func TestExplainWithPoolSavesInvocations(t *testing.T) {
	st := env(t, 11)
	tup := []float64{2, 1, 0, 0.0}

	// Build pooled samples frozen on attr0=bin2 (the tuple's bin), already
	// labelled by the classifier.
	cls := attr0Classifier(2)
	gen := perturb.NewGenerator(st, rand.New(rand.NewSource(12)))
	frozen := dataset.Itemset{dataset.MakeItem(0, 2)}
	pooled := make([]perturb.Pooled, 400)
	for i := range pooled {
		s := gen.ForItemset(frozen)
		s.Label = cls.Predict(s.Row)
		pooled[i] = s.Pooled()
	}
	pool := &fakePool{samples: pooled}

	counting := rf.NewCounting(cls)
	e := New(st, counting, Config{NumSamples: 800, MaxReuse: 0.5}, rand.New(rand.NewSource(13)))
	att, err := e.ExplainWithPool(tup, pool)
	if err != nil {
		t.Fatal(err)
	}
	if pool.tupleReq != 1 {
		t.Fatalf("pool queried %d times", pool.tupleReq)
	}
	// 1 call for the tuple itself + (800-400) fresh samples. The instance
	// anchor costs one extra call.
	wantMax := int64(1 + 800 - 400 + 1)
	if got := counting.Invocations(); got > wantMax {
		t.Fatalf("invocations=%d want <= %d (reuse failed)", got, wantMax)
	}
	// Explanation must still surface the decisive feature.
	if top := att.Ranking()[0]; top != 0 {
		t.Fatalf("top feature with pool=%d want 0", top)
	}
}

// Pooled vs sequential explanations must agree on the feature ordering
// (the paper's quality claim for LIME: same ranking, tiny deviations).
func TestPoolPreservesRanking(t *testing.T) {
	st := env(t, 14)
	tup := []float64{2, 1, 0, 0.0}
	cls := attr0Classifier(2)

	seq, err := New(st, cls, Config{NumSamples: 2000}, rand.New(rand.NewSource(15))).Explain(tup)
	if err != nil {
		t.Fatal(err)
	}

	gen := perturb.NewGenerator(st, rand.New(rand.NewSource(16)))
	frozen := dataset.Itemset{dataset.MakeItem(0, 2)}
	pooled := make([]perturb.Pooled, 500)
	for i := range pooled {
		s := gen.ForItemset(frozen)
		s.Label = cls.Predict(s.Row)
		pooled[i] = s.Pooled()
	}
	withPool, err := New(st, cls, Config{NumSamples: 2000}, rand.New(rand.NewSource(17))).
		ExplainWithPool(tup, &fakePool{samples: pooled})
	if err != nil {
		t.Fatal(err)
	}
	if seq.Ranking()[0] != withPool.Ranking()[0] {
		t.Fatalf("top feature differs: seq=%d pool=%d", seq.Ranking()[0], withPool.Ranking()[0])
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.fill()
	if c.NumSamples != 1000 || c.MaxReuse != 0.9 {
		t.Fatalf("defaults %+v", c)
	}
	e := New(env(t, 10), attr0Classifier(2), c, rand.New(rand.NewSource(10)))
	if k, want := e.kernel(1), math.Exp(-1/(1.5*1.5)); math.Abs(k-want) > 1e-12 { // width 0.75*sqrt(4)
		t.Fatalf("kernel(1) %g want %g (width 1.5)", k, want)
	}
}

var _ explain.Pool = (*fakePool)(nil)

func BenchmarkExplainSequential(b *testing.B) {
	cfg := &datagen.Config{
		Name: "lb",
		Cat:  []datagen.CatSpec{{Card: 4, Skew: 1}, {Card: 3, Skew: 0.5}},
		Num:  []datagen.NumSpec{{Mean: 0, Std: 1}},
	}
	d, err := cfg.Generate(2000, 18)
	if err != nil {
		b.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		b.Fatal(err)
	}
	e := New(st, attr0Classifier(1), Config{NumSamples: 500}, rand.New(rand.NewSource(19)))
	tup := []float64{1, 0, 0.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Explain(tup); err != nil {
			b.Fatal(err)
		}
	}
}

// benchKernel defeats dead-code elimination in the kernel's benchmark
// and allocation row.
var benchKernel float64

func BenchmarkKernel(b *testing.B) {
	const p = 40
	e := &Explainer{prox: proximity(p)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchKernel = e.kernel(i % p)
	}
}

// referenceExplain is LIME as it was before the surrogate fit became a
// one-pass accumulator, kept as the oracle: encode every sample into a
// dense row of the design matrix and fit linmodel.Ridge on it. It draws
// from rng what ExplainWithPool draws from its own generator, in the
// same order.
func referenceExplain(t *testing.T, st *dataset.Stats, cls rf.Classifier, cfg Config, rng *rand.Rand, tup []float64, pool explain.Pool) *explain.Attribution {
	t.Helper()
	p := st.Schema.NumAttrs()
	cfg = cfg.fill()
	width := kernelScale * math.Sqrt(float64(p))
	gen := perturb.NewGenerator(st, rng)
	target := cls.Predict(tup)
	tItems := st.ItemizeRow(tup, nil)
	var X [][]float64
	var y, w []float64
	add := func(items []dataset.Item, label int) {
		z := perturb.BinaryEncode(tItems, items, nil)
		d2 := 0.0
		for _, v := range z {
			d2 += 1 - v
		}
		X = append(X, z)
		y = append(y, map[bool]float64{true: 1}[label == target])
		w = append(w, math.Exp(-d2/(width*width)))
	}
	add(tItems, target)
	if pool != nil {
		for _, s := range pool.ForTuple(tItems, int(cfg.MaxReuse*float64(cfg.NumSamples))) {
			add(itemsOf(s.Bins), s.Label)
		}
	}
	for len(X) < cfg.NumSamples+1 {
		s := gen.ForTuple(tup, make([]bool, p))
		add(s.Items, cls.Predict(s.Row))
	}
	m, err := linmodel.Ridge(X, y, w, lambda)
	if err != nil {
		t.Fatal(err)
	}
	return &explain.Attribution{Weights: m.Coef, Intercept: m.Intercept, Class: target}
}

// TestLIMEMatchesReferenceFit bounds how far the accumulator moved LIME's
// answers: on the 42-attribute census twin, the same seeded samples
// through ExplainWithPool and through BinaryEncode + dense Ridge give
// weights and intercept equal to 1e-9 — pooled (serving all it offers
// or half the budget) and unpooled, and on an Explainer that has fitted
// before.
func TestLIMEMatchesReferenceFit(t *testing.T) {
	st, tuples := censusEnv(t, 1500, 23, 3)
	// A classifier of three attributes' bins, so the weights have a few
	// large entries and many near zero.
	ref := st.ItemizeRow(tuples[0], nil)
	cls := rf.Func{Classes: 2, F: func(x []float64) int {
		it := st.ItemizeRow(x, nil)
		if it[1] == ref[1] || (it[7] == ref[7] && it[20] != ref[20]) {
			return 1
		}
		return 0
	}}
	for _, tc := range []struct {
		name   string
		cfg    Config
		pooled bool
	}{
		{"full", Config{NumSamples: 600}, false},
		{"full/pooled", Config{NumSamples: 600}, true},
		{"half/pooled", Config{NumSamples: 600, MaxReuse: 0.5}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(st, cls, tc.cfg, rand.New(rand.NewSource(24)))
			refRng := rand.New(rand.NewSource(24))
			for _, tup := range tuples {
				var pool, refPool explain.Pool
				if tc.pooled {
					gen := perturb.NewGenerator(st, rand.New(rand.NewSource(25)))
					frozen := dataset.Itemset{st.ItemizeRow(tup, nil)[1]}
					pooled := make([]perturb.Pooled, 250)
					for i := range pooled {
						s := gen.ForItemset(frozen)
						s.Label = cls.Predict(s.Row)
						pooled[i] = s.Pooled()
					}
					pool, refPool = &fakePool{samples: pooled}, &fakePool{samples: pooled}
				}
				got, err := e.ExplainWithPool(tup, pool)
				if err != nil {
					t.Fatal(err)
				}
				want := referenceExplain(t, st, cls, tc.cfg, refRng, tup, refPool)
				if got.Class != want.Class || math.Abs(got.Intercept-want.Intercept) > 1e-9 {
					t.Fatalf("class %d intercept %.15g, reference class %d intercept %.15g", got.Class, got.Intercept, want.Class, want.Intercept)
				}
				for a := range want.Weights {
					if math.Abs(got.Weights[a]-want.Weights[a]) > 1e-9 {
						t.Errorf("attribute %d: weight %.15g, reference %.15g", a, got.Weights[a], want.Weights[a])
					}
				}
			}
		})
	}
}
