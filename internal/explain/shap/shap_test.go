package shap

import (
	"math"
	"math/rand"
	"testing"

	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/perturb"
	"shahin/internal/rf"
)

func env(t *testing.T, seed int64) *dataset.Stats {
	t.Helper()
	cfg := &datagen.Config{
		Name: "st",
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

func attr0Classifier(v int) rf.Classifier {
	return rf.Func{Classes: 2, F: func(x []float64) int {
		if int(x[0]) == v {
			return 1
		}
		return 0
	}}
}

func TestKernelWeight(t *testing.T) {
	// Symmetric in s <-> m-s and larger at the extremes.
	m := 10
	for s := 1; s < m; s++ {
		if math.Abs(KernelWeight(m, s)-KernelWeight(m, m-s)) > 1e-12 {
			t.Fatalf("kernel not symmetric at s=%d", s)
		}
	}
	if KernelWeight(m, 1) <= KernelWeight(m, 5) {
		t.Fatal("kernel should prefer extreme subset sizes")
	}
	if KernelWeight(m, 0) != 0 || KernelWeight(m, m) != 0 {
		t.Fatal("kernel must be 0 at s=0 and s=m")
	}
}

func TestExplainErrors(t *testing.T) {
	st := env(t, 1)
	e := New(st, attr0Classifier(0), Config{NumSamples: 50, BaseSamples: 20}, rand.New(rand.NewSource(2)))
	if _, err := e.Explain([]float64{1}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

// Efficiency: phi0 + sum(phi) must equal f(t) = 1 exactly (the constraint
// is enforced algebraically).
func TestAdditivity(t *testing.T) {
	st := env(t, 3)
	e := New(st, attr0Classifier(1), Config{NumSamples: 300, BaseSamples: 50}, rand.New(rand.NewSource(4)))
	att, err := e.Explain([]float64{1, 0, 2, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	sum := att.Intercept
	for _, w := range att.Weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("phi0 + sum(phi) = %g want 1", sum)
	}
}

func TestDecisiveFeatureDominates(t *testing.T) {
	st := env(t, 5)
	e := New(st, attr0Classifier(2), Config{NumSamples: 2000, BaseSamples: 200}, rand.New(rand.NewSource(6)))
	att, err := e.Explain([]float64{2, 1, 3, -0.2})
	if err != nil {
		t.Fatal(err)
	}
	if top := att.Ranking()[0]; top != 0 {
		t.Fatalf("top feature=%d want 0 (phi=%v)", top, att.Weights)
	}
	if att.Weights[0] <= 0 {
		t.Fatalf("decisive phi=%g should be positive", att.Weights[0])
	}
	// phi_0 should approximate 1 - baseRate (all credit to attr 0).
	want := 1 - att.Intercept
	if math.Abs(att.Weights[0]-want) > 0.15 {
		t.Fatalf("phi[0]=%g want ~%g", att.Weights[0], want)
	}
}

func TestBaseRateCachedAcrossExplanations(t *testing.T) {
	st := env(t, 7)
	counting := rf.NewCounting(attr0Classifier(1))
	e := New(st, counting, Config{NumSamples: 100, BaseSamples: 50}, rand.New(rand.NewSource(8)))
	tup := []float64{1, 0, 2, 0.5}
	if _, err := e.Explain(tup); err != nil {
		t.Fatal(err)
	}
	first := counting.Invocations()
	if _, err := e.Explain(tup); err != nil {
		t.Fatal(err)
	}
	second := counting.Invocations() - first
	// The second explanation must not pay the BaseSamples cost again.
	if second > first-int64(40) {
		t.Fatalf("base rate not cached: first=%d second=%d", first, second)
	}
	if e.BaseInvocations() != 50 {
		t.Fatalf("BaseInvocations=%d want 50", e.BaseInvocations())
	}
}

// subsetPool answers ForItemset with a pre-labelled sample when the
// required items match a stocked itemset exactly or as a subset.
type subsetPool struct {
	st     *dataset.Stats
	cls    rf.Classifier
	gen    *perturb.Generator
	stock  [][]perturb.Pooled // ordered, so serving order is deterministic
	serves int
}

func (p *subsetPool) ForTuple(tupleItems []dataset.Item, max int) []perturb.Pooled { return nil }

func (p *subsetPool) ForItemset(required dataset.Itemset, max int) []perturb.Pooled {
	var out []perturb.Pooled
	for _, samples := range p.stock {
		for i := range samples {
			if len(out) >= max {
				return out
			}
			if perturb.MatchesBins(required, samples[i].Bins) {
				out = append(out, samples[i])
				p.serves++
			}
		}
	}
	return out
}

func TestExplainWithPoolSavesInvocations(t *testing.T) {
	st := env(t, 9)
	cls := attr0Classifier(2)
	tup := []float64{2, 1, 0, 0.0}
	tItems := st.ItemizeRow(tup, nil)

	// Stock the pool with many samples frozen on the tuple's attr-0 item:
	// single-attribute coalitions {0} will hit them, and larger coalitions
	// may match by chance.
	gen := perturb.NewGenerator(st, rand.New(rand.NewSource(10)))
	frozen := dataset.Itemset{tItems[0]}
	samples := make([]perturb.Pooled, 2000)
	for i := range samples {
		s := gen.ForItemset(frozen)
		s.Label = cls.Predict(s.Row)
		samples[i] = s.Pooled()
	}
	pool := &subsetPool{
		st:    st,
		cls:   cls,
		stock: [][]perturb.Pooled{samples},
	}

	counting := rf.NewCounting(cls)
	e := New(st, counting, Config{NumSamples: 600, BaseSamples: 50}, rand.New(rand.NewSource(11)))
	att, err := e.ExplainWithPool(tup, pool)
	if err != nil {
		t.Fatal(err)
	}
	if pool.serves == 0 {
		t.Fatal("pool never served a sample")
	}
	// Invocations = 1 (tuple) + 50 (base) + fresh coalitions < 600.
	if got := counting.Invocations(); got >= 600+51 {
		t.Fatalf("invocations=%d; reuse saved nothing", got)
	}
	if top := att.Ranking()[0]; top != 0 {
		t.Fatalf("top feature with pool=%d want 0", top)
	}
	// Additivity must survive reuse.
	sum := att.Intercept
	for _, w := range att.Weights {
		sum += w
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("additivity broken with pool: %g", sum)
	}
}

func TestExplainDeterministic(t *testing.T) {
	st := env(t, 12)
	tup := []float64{1, 0, 2, 0.3}
	a, err := New(st, attr0Classifier(1), Config{NumSamples: 200, BaseSamples: 30}, rand.New(rand.NewSource(13))).Explain(tup)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(st, attr0Classifier(1), Config{NumSamples: 200, BaseSamples: 30}, rand.New(rand.NewSource(13))).Explain(tup)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Weights {
		if a.Weights[i] != b.Weights[i] {
			t.Fatal("same-seed SHAP explanations differ")
		}
	}
}

func BenchmarkExplainSequential(b *testing.B) {
	cfg := &datagen.Config{
		Name: "sb",
		Cat:  []datagen.CatSpec{{Card: 4, Skew: 1}, {Card: 3, Skew: 0.5}},
		Num:  []datagen.NumSpec{{Mean: 0, Std: 1}},
	}
	d, err := cfg.Generate(2000, 14)
	if err != nil {
		b.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		b.Fatal(err)
	}
	e := New(st, attr0Classifier(1), Config{NumSamples: 500, BaseSamples: 50}, rand.New(rand.NewSource(15)))
	tup := []float64{1, 0, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Explain(tup); err != nil {
			b.Fatal(err)
		}
	}
}
