package lime

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/perturb"
	"shahin/internal/rf"
)

// referenceExplainWithPool is ExplainWithPool as it stood before fresh
// draws moved into the explainer's scratch: every fresh perturbation is
// a Sample of its own from ForTuple, labelled, folded into the fit and
// handed to an observer.
func (e *Explainer) referenceExplainWithPool(t []float64, pool explain.Pool) (*explain.Attribution, error) {
	p := e.st.Schema.NumAttrs()
	target := e.cls.Predict(t)
	tItems := e.st.ItemizeRow(t, nil)
	e.fit.Reset()
	e.add(tItems, tItems, true)
	n := e.cfg.NumSamples
	if pool != nil {
		for _, s := range pool.ForTuple(tItems, int(e.cfg.MaxReuse*float64(n))) {
			e.add(tItems, s.Items, s.Label == target)
			n--
		}
	}
	obs, _ := pool.(explain.Observer)
	for ; n > 0; n-- {
		s := e.gen.ForTuple(t, e.noFreeze)
		s.Label = e.cls.Predict(s.Row)
		e.add(tItems, s.Items, s.Label == target)
		if obs != nil {
			obs.Observe(s)
		}
	}
	weights := make([]float64, p)
	intercept, err := e.fit.Solve(lambda, weights)
	if err != nil {
		return nil, err
	}
	return &explain.Attribution{Weights: weights, Intercept: intercept, Class: target}, nil
}

// frozenPool serves labelled perturbations frozen on single items, the
// way core's itemsetPool serves mined itemsets: each sample at most once
// per explanation, through a window the next call overwrites.
type frozenPool struct {
	sets    []dataset.Item // ascending; samples[i] is frozen on sets[i]
	samples [][]perturb.Sample
	window  []perturb.Sample
	served  int
}

// newFrozenPool pools per labelled samples on every sixth attribute's
// item of each tuple.
func newFrozenPool(st *dataset.Stats, cls rf.Classifier, tuples [][]float64, per int, seed int64) *frozenPool {
	gen := perturb.NewGenerator(st, rand.New(rand.NewSource(seed)))
	p := &frozenPool{}
	for _, t := range tuples {
		for a, it := range st.ItemizeRow(t, nil) {
			if a%6 == 0 && !slices.Contains(p.sets, it) {
				p.sets = append(p.sets, it)
			}
		}
	}
	slices.Sort(p.sets)
	for _, it := range p.sets {
		samples := make([]perturb.Sample, per)
		for i := range samples {
			samples[i] = gen.ForItemset(dataset.Itemset{it})
			samples[i].Label = cls.Predict(samples[i].Row)
		}
		p.samples = append(p.samples, samples)
	}
	return p
}

func (p *frozenPool) ForTuple(tupleItems []dataset.Item, max int) []perturb.Sample {
	out := p.window[:0]
	for i, it := range p.sets {
		if tupleItems[it.Attr()] == it {
			out = append(out, p.samples[i][:min(len(p.samples[i]), max-len(out))]...)
		}
	}
	p.window = out
	p.served += len(out)
	return out
}

func (p *frozenPool) ForItemset(dataset.Itemset, int) []perturb.Sample { return nil }

// observingStore keeps a copy of every fresh sample it observes, as
// core's greedyStore does, and serves them back newest first to a tuple
// whose bins one shares on half the attributes.
type observingStore struct {
	kept   []perturb.Sample
	window []perturb.Sample
	served int
}

func (o *observingStore) Observe(s perturb.Sample) {
	s.Row, s.Items = slices.Clone(s.Row), slices.Clone(s.Items)
	o.kept = append(o.kept, s)
}

func (o *observingStore) ForTuple(tupleItems []dataset.Item, max int) []perturb.Sample {
	out := o.window[:0]
	for i := len(o.kept) - 1; i >= 0 && len(out) < max; i-- {
		n := 0
		for a, it := range tupleItems {
			if o.kept[i].Items[a] == it {
				n++
			}
		}
		if 2*n >= len(tupleItems) {
			out = append(out, o.kept[i])
		}
	}
	o.window = out
	o.served += len(out)
	return out
}

func (o *observingStore) ForItemset(dataset.Itemset, int) []perturb.Sample { return nil }

var (
	_ explain.Pool     = (*frozenPool)(nil)
	_ explain.Observer = (*observingStore)(nil)
)

// TestExplainMatchesReferenceLoop: drawing fresh perturbations into
// scratch changes no answer. Over seeds, on the census twin, one
// explainer after another explanation gives the reference loop's
// attribution bit for bit — with no pool, with a pool of frozen samples
// and with a store that observes what the explainer draws and serves it
// back.
func TestExplainMatchesReferenceLoop(t *testing.T) {
	st, tuples := censusEnv(t, 1500, 31, 6)
	ref := st.ItemizeRow(tuples[0], nil)
	cls := rf.Func{Classes: 2, F: func(x []float64) int {
		it := st.ItemizeRow(x, nil)
		if it[1] == ref[1] || (it[7] == ref[7] && it[20] != ref[20]) {
			return 1
		}
		return 0
	}}
	pools := []struct {
		name string
		make func() explain.Pool
	}{
		{"none", func() explain.Pool { return nil }},
		{"frozen", func() explain.Pool { return newFrozenPool(st, cls, tuples, 30, 32) }},
		{"observing", func() explain.Pool { return &observingStore{} }},
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, pc := range pools {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, pc.name), func(t *testing.T) {
				cfg := Config{NumSamples: 300, MaxReuse: 0.5}
				e := New(st, cls, cfg, rand.New(rand.NewSource(seed)))
				r := New(st, cls, cfg, rand.New(rand.NewSource(seed)))
				pool, refPool := pc.make(), pc.make()
				for i, tup := range tuples {
					got, err := e.ExplainWithPool(tup, pool)
					if err != nil {
						t.Fatal(err)
					}
					want, err := r.referenceExplainWithPool(tup, refPool)
					if err != nil {
						t.Fatal(err)
					}
					if got.Class != want.Class || math.Float64bits(got.Intercept) != math.Float64bits(want.Intercept) {
						t.Fatalf("tuple %d: class %d intercept %v, reference class %d intercept %v", i, got.Class, got.Intercept, want.Class, want.Intercept)
					}
					for a := range want.Weights {
						if math.Float64bits(got.Weights[a]) != math.Float64bits(want.Weights[a]) {
							t.Fatalf("tuple %d: attribute %d weighs %v, reference %v", i, a, got.Weights[a], want.Weights[a])
						}
					}
				}
				switch p := pool.(type) {
				case *frozenPool:
					if p.served == 0 {
						t.Fatal("the frozen pool served nothing")
					}
				case *observingStore:
					if p.served == 0 {
						t.Fatal("the store served nothing back")
					}
				}
			})
		}
	}
}
