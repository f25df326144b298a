package shap

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
// handed to an observer and folded into the fit over its items; pooled
// samples are folded over the items their bins stand for.
func (e *Explainer) referenceExplainWithPool(t []float64, pool explain.Pool) (*explain.Attribution, error) {
	m := e.st.Schema.NumAttrs()
	target := e.cls.Predict(t)
	tItems := e.st.ItemizeRow(t, nil)
	phi0 := e.base(target)
	e.fit.begin(phi0, 1)
	if pool != nil {
		for _, s := range pool.ForTuple(tItems, int(maxReuse*float64(e.cfg.NumSamples))) {
			e.fit.addItems(tItems, itemsOf(s.Bins), s.Label == target)
		}
	}
	obs, _ := pool.(explain.Observer)
	for e.fit.n < e.cfg.NumSamples {
		required := e.drawCoalition(tItems, 1+e.sizeSampler.Draw(e.rng))
		if pool != nil {
			if got := pool.ForItemset(required, 1); len(got) == 1 {
				e.fit.addItems(tItems, itemsOf(got[0].Bins), got[0].Label == target)
				continue
			}
		}
		s := e.gen.ForTuple(t, e.freeze)
		s.Label = e.cls.Predict(s.Row)
		if obs != nil {
			obs.Observe(s.Pooled())
		}
		e.fit.addItems(tItems, s.Items, s.Label == target)
	}
	phi := make([]float64, m)
	if err := e.fit.solve(ridge, phi); err != nil {
		return nil, err
	}
	return &explain.Attribution{Weights: phi, Intercept: phi0, Class: target}, nil
}

// addItems is fit.add as it stood while a sample was its items: the
// tuple's and the sample's items compared whole. It is the oracle
// TestAddMatchesItemsReference and TestExplainMatchesReferenceLoop hold
// add to.
func (f *fit) addItems(tItems, items []dataset.Item, sameClass bool) {
	p := f.p
	y, zm := 0.0, 0.0
	if sameClass {
		y = 1
	}
	last := items[p] == tItems[p]
	if last {
		zm = 1
	}
	target := y - f.phi0 - zm*(f.fx-f.phi0)
	if last {
		target = -target
	}
	f.target[f.n] = target
	at, bit := f.n>>6, uint(f.n&63)
	for j := 0; j < p; j++ {
		var differs uint64
		if (items[j] == tItems[j]) != last {
			differs = 1
		}
		f.nz[at] |= differs << bit
		at += f.words
	}
	f.n++
}

// itemsOf is the items a sample's bins stand for.
func itemsOf(bins []uint16) []dataset.Item {
	items := make([]dataset.Item, len(bins))
	for a, b := range bins {
		items[a] = dataset.MakeItem(a, int(b))
	}
	return items
}

// matchesItems is the bin match of the test pools, over items: the
// sample's items contain every required one.
func matchesItems(required dataset.Itemset, bins []uint16) bool {
	return required.ContainsAll(itemsOf(bins))
}

// frozenPool serves labelled perturbations frozen on single items, the
// way core's itemsetPool serves mined itemsets: each sample at most once
// per explanation, through a window the next call overwrites.
type frozenPool struct {
	sets    []dataset.Item // ascending; samples[i] is frozen on sets[i]
	samples [][]perturb.Pooled
	used    [][]bool
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
		p.used = append(p.used, make([]bool, per))
	}
	return p
}

// serve hands out up to max unused samples that ok accepts, from the
// sets that want admits. ForTuple opens an explanation, so it frees
// every sample first.
func (p *frozenPool) serve(max int, want func(dataset.Item) bool, ok func([]uint16) bool) []perturb.Pooled {
	out := p.window[:0]
	for i, it := range p.sets {
		if !want(it) {
			continue
		}
		for j, s := range p.samples[i] {
			if len(out) < max && !p.used[i][j] && ok(s.Bins) {
				out = append(out, s)
				p.used[i][j] = true
			}
		}
	}
	p.window = out
	p.served += len(out)
	return out
}

func (p *frozenPool) ForTuple(tupleItems []dataset.Item, max int) []perturb.Pooled {
	for _, u := range p.used {
		clear(u)
	}
	return p.serve(max, func(it dataset.Item) bool { return tupleItems[it.Attr()] == it },
		func([]uint16) bool { return true })
}

func (p *frozenPool) ForItemset(required dataset.Itemset, max int) []perturb.Pooled {
	return p.serve(max, func(it dataset.Item) bool { return slices.Contains(required, it) },
		func(bins []uint16) bool { return matchesItems(required, bins) })
}

// observingStore keeps a copy of every fresh sample it observes, as
// bench's greedyStore does, and serves them back newest first: to a
// tuple whose bins one shares on half the attributes, to a coalition of
// at most three items whose bins one carries.
type observingStore struct {
	kept   []perturb.Pooled
	used   []bool
	window []perturb.Pooled
	served int
}

func (o *observingStore) Observe(s perturb.Pooled) {
	s.Bins = slices.Clone(s.Bins)
	o.kept = append(o.kept, s)
	o.used = append(o.used, false)
}

func (o *observingStore) serve(max int, ok func([]uint16) bool) []perturb.Pooled {
	out := o.window[:0]
	for i := len(o.kept) - 1; i >= 0 && len(out) < max; i-- {
		if !o.used[i] && ok(o.kept[i].Bins) {
			out = append(out, o.kept[i])
			o.used[i] = true
		}
	}
	o.window = out
	o.served += len(out)
	return out
}

func (o *observingStore) ForTuple(tupleItems []dataset.Item, max int) []perturb.Pooled {
	clear(o.used)
	return o.serve(max, func(bins []uint16) bool {
		n := 0
		for a, it := range tupleItems {
			if int(bins[a]) == it.Bin() {
				n++
			}
		}
		return 2*n >= len(tupleItems)
	})
}

func (o *observingStore) ForItemset(required dataset.Itemset, max int) []perturb.Pooled {
	if len(required) > 3 {
		return nil
	}
	return o.serve(max, func(bins []uint16) bool { return matchesItems(required, bins) })
}

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
	spec, err := datagen.Spec("census")
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(1500, 31)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	tuples := d.Rows(0, 6)
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
				cfg := Config{NumSamples: 300, BaseSamples: 40}
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
					assertSameAttribution(t, i, got, want)
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

// assertSameAttribution demands equal bits in every weight and in the
// intercept, and the same class.
func assertSameAttribution(t *testing.T, i int, got, want *explain.Attribution) {
	t.Helper()
	if got.Class != want.Class || math.Float64bits(got.Intercept) != math.Float64bits(want.Intercept) {
		t.Fatalf("tuple %d: class %d intercept %v, reference class %d intercept %v", i, got.Class, got.Intercept, want.Class, want.Intercept)
	}
	for a := range want.Weights {
		if math.Float64bits(got.Weights[a]) != math.Float64bits(want.Weights[a]) {
			t.Fatalf("tuple %d: attribute %d weighs %v, reference %v", i, a, got.Weights[a], want.Weights[a])
		}
	}
}

// TestAddMatchesItemsReference: add over bins sets the bits and targets
// addItems sets over the items those bins stand for, word for word.
// Samples are fresh draws under random freeze masks, pooled draws frozen
// on the tuple's items, and draws with a bin moved by 256 (equal to the
// tuple's in its low byte only), labelled at random. Mutants this kills:
// the compare made on a bin's low byte, the attribute index off by one.
func TestAddMatchesItemsReference(t *testing.T) {
	spec, err := datagen.Spec("census")
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(1500, 51)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	m := st.NumAttrs()
	const n = 600
	got, want := newFit(m, n), newFit(m, n)
	gen := perturb.NewGenerator(st, rand.New(rand.NewSource(52)))
	pick := rand.New(rand.NewSource(53))
	row, bins, freeze, tBins := make([]float64, m), make([]uint16, m), make([]bool, m), make([]uint16, m)
	for _, tup := range d.Rows(0, 8) {
		tItems := st.ItemizeRow(tup, nil)
		perturb.BinsOf(tItems, tBins)
		got.begin(0.3, 1)
		want.begin(0.3, 1)
		for i := 0; i < n; i++ {
			switch i % 3 {
			case 0:
				for a := range freeze {
					freeze[a] = pick.Intn(3) == 0
				}
				gen.FillTuple(tup, freeze, row, bins)
			case 1:
				gen.FillItemset(dataset.Itemset{tItems[pick.Intn(m)]}, row, bins)
			default:
				copy(bins, tBins)
				bins[pick.Intn(m)] += 256
			}
			same := pick.Intn(2) == 0
			got.add(tBins, bins, same)
			want.addItems(tItems, itemsOf(bins), same)
		}
		if got.n != want.n || !slices.Equal(got.nz, want.nz) {
			t.Fatalf("the fits' bits differ after %d samples", n)
		}
		for i := range want.target {
			if math.Float64bits(got.target[i]) != math.Float64bits(want.target[i]) {
				t.Fatalf("sample %d: target %v, reference %v", i, got.target[i], want.target[i])
			}
		}
	}
}
