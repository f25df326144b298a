package lime

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/perturb"
	"shahin/internal/rf"
)

// referenceExplainWithPool is ExplainWithPool as it stood before fresh
// draws moved into the explainer's scratch and samples became bins: every
// fresh perturbation is a Sample of its own from ForTuple, labelled,
// folded into the fit over its items and handed to an observer; pooled
// samples are folded over the items their bins stand for.
func (e *Explainer) referenceExplainWithPool(t []float64, pool explain.Pool) (*explain.Attribution, error) {
	p := e.st.Schema.NumAttrs()
	target := e.cls.Predict(t)
	tItems := e.st.ItemizeRow(t, nil)
	e.fit.Reset()
	e.addItems(tItems, tItems, true)
	n := e.cfg.NumSamples
	if pool != nil {
		for _, s := range pool.ForTuple(tItems, int(e.cfg.MaxReuse*float64(n))) {
			e.addItems(tItems, itemsOf(s.Bins), s.Label == target)
			n--
		}
	}
	obs, _ := pool.(explain.Observer)
	for ; n > 0; n-- {
		s := e.gen.ForTuple(t, e.noFreeze)
		s.Label = e.cls.Predict(s.Row)
		e.addItems(tItems, s.Items, s.Label == target)
		if obs != nil {
			obs.Observe(s.Pooled())
		}
	}
	weights := make([]float64, p)
	intercept, err := e.fit.Solve(lambda, weights)
	if err != nil {
		return nil, err
	}
	return &explain.Attribution{Weights: weights, Intercept: intercept, Class: target}, nil
}

// addItems is add as it stood while a sample was its items: the tuple's
// and the sample's items compared whole, the kernel computed by math.Exp
// for each sample. It is the oracle TestAddMatchesItemsReference and
// TestExplainMatchesReferenceLoop hold add and the kernel table to.
func (e *Explainer) addItems(tItems, items []dataset.Item, sameClass bool) {
	on, q := e.on[:len(tItems)], 0
	for a, it := range tItems {
		on[q] = a
		var match int
		if items[a] == it {
			match = 1
		}
		q += match
	}
	y := 0.0
	if sameClass {
		y = 1
	}
	width := kernelScale * math.Sqrt(float64(len(tItems)))
	e.fit.Add(on[:q], y, math.Exp(-float64(len(tItems)-q)/(width*width)))
}

// itemsOf is the items a sample's bins stand for.
func itemsOf(bins []uint16) []dataset.Item {
	items := make([]dataset.Item, len(bins))
	for a, b := range bins {
		items[a] = dataset.MakeItem(a, int(b))
	}
	return items
}

// frozenPool serves labelled perturbations frozen on single items, the
// way core's itemsetPool serves mined itemsets: each sample at most once
// per explanation, through a window the next call overwrites.
type frozenPool struct {
	sets    []dataset.Item // ascending; samples[i] is frozen on sets[i]
	samples [][]perturb.Pooled
	window  []perturb.Pooled
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
		samples := make([]perturb.Pooled, per)
		for i := range samples {
			s := gen.ForItemset(dataset.Itemset{it})
			s.Label = cls.Predict(s.Row)
			samples[i] = s.Pooled()
		}
		p.samples = append(p.samples, samples)
	}
	return p
}

func (p *frozenPool) ForTuple(tupleItems []dataset.Item, max int) []perturb.Pooled {
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

func (p *frozenPool) ForItemset(dataset.Itemset, int) []perturb.Pooled { return nil }

// observingStore keeps a copy of every fresh sample it observes, as
// bench's greedyStore does, and serves them back newest first to a tuple
// whose bins one shares on half the attributes.
type observingStore struct {
	kept   []perturb.Pooled
	window []perturb.Pooled
	served int
}

func (o *observingStore) Observe(s perturb.Pooled) {
	s.Bins = slices.Clone(s.Bins)
	o.kept = append(o.kept, s)
}

func (o *observingStore) ForTuple(tupleItems []dataset.Item, max int) []perturb.Pooled {
	out := o.window[:0]
	for i := len(o.kept) - 1; i >= 0 && len(out) < max; i-- {
		n := 0
		for a, it := range tupleItems {
			if int(o.kept[i].Bins[a]) == it.Bin() {
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

func (o *observingStore) ForItemset(dataset.Itemset, int) []perturb.Pooled { return nil }

var (
	_ explain.Pool     = (*frozenPool)(nil)
	_ explain.Observer = (*observingStore)(nil)
)

// TestExplainMatchesReferenceLoop: drawing fresh perturbations into
// scratch, and folding bins rather than items, changes no answer. Over seeds, on the census twin, one
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

// TestKernelTableBits: the table kernel reads gives, at every d = 0…p,
// the bits math.Exp gave per sample, at the width of every twin.
func TestKernelTableBits(t *testing.T) {
	for _, name := range datagen.Names() {
		st, _ := twinEnv(t, name, 300, 41, 1)
		p := st.NumAttrs()
		e := New(st, attr0Classifier(0), Config{}, rand.New(rand.NewSource(42)))
		width := kernelScale * math.Sqrt(float64(p))
		for d := 0; d <= p; d++ {
			if got, want := e.kernel(d), math.Exp(-float64(d)/(width*width)); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: kernel(%d) = %v, math.Exp gives %v", name, d, got, want)
			}
		}
	}
}

// TestAddMatchesItemsReference: add over bins leaves the fit addItems
// leaves over the items those bins stand for, bit for bit. Samples are
// fresh draws under random freeze masks, pooled draws frozen on the
// tuple's items, and draws with a bin moved by 256 (equal to the
// tuple's in its low byte only), labelled at random. Mutants this kills:
// the compare made on a bin's low byte, the attribute index off by one.
func TestAddMatchesItemsReference(t *testing.T) {
	st, tuples := censusEnv(t, 1500, 43, 8)
	cls := attr0Classifier(0)
	e := New(st, cls, Config{}, rand.New(rand.NewSource(44)))
	r := New(st, cls, Config{}, rand.New(rand.NewSource(44)))
	gen := perturb.NewGenerator(st, rand.New(rand.NewSource(45)))
	pick := rand.New(rand.NewSource(46))
	p := st.NumAttrs()
	row, bins, freeze := make([]float64, p), make([]uint16, p), make([]bool, p)
	tBins := make([]uint16, p)
	for _, tup := range tuples {
		tItems := st.ItemizeRow(tup, nil)
		perturb.BinsOf(tItems, tBins)
		e.fit.Reset()
		r.fit.Reset()
		for i := 0; i < 600; i++ {
			switch i % 3 {
			case 0:
				for a := range freeze {
					freeze[a] = pick.Intn(3) == 0
				}
				gen.FillTuple(tup, freeze, row, bins)
			case 1:
				gen.FillItemset(dataset.Itemset{tItems[pick.Intn(p)]}, row, bins)
			default:
				copy(bins, tBins)
				bins[pick.Intn(p)] += 256
			}
			same := pick.Intn(2) == 0
			e.add(tBins, bins, same)
			r.addItems(tItems, itemsOf(bins), same)
		}
		got, want := make([]float64, p), make([]float64, p)
		gi, err := e.fit.Solve(lambda, got)
		if err != nil {
			t.Fatal(err)
		}
		wi, err := r.fit.Solve(lambda, want)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(gi) != math.Float64bits(wi) {
			t.Fatalf("intercept %v, reference %v", gi, wi)
		}
		for a := range want {
			if math.Float64bits(got[a]) != math.Float64bits(want[a]) {
				t.Fatalf("attribute %d weighs %v, reference %v", a, got[a], want[a])
			}
		}
	}
}
