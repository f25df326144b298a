package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"

	"shahin/internal/alloctest"
	"shahin/internal/cache"
	"shahin/internal/dataset"
	"shahin/internal/obs"
	"shahin/internal/perturb"
	"shahin/internal/rf"
)

// mk builds a labelled sample over 4 attributes with the given bins.
func mk(label int, bins ...uint16) perturb.Pooled {
	return perturb.Pooled{Bins: bins, Label: label}
}

func poolWith(t *testing.T) (*itemsetPool, dataset.Itemset, dataset.Itemset) {
	t.Helper()
	f1 := dataset.Itemset{dataset.MakeItem(0, 1)}                         // singleton
	f2 := dataset.Itemset{dataset.MakeItem(0, 1), dataset.MakeItem(1, 2)} // pair
	repo := cache.NewRepo(0)
	repo.Append(f1.Key(), []perturb.Pooled{mk(1, 1, 0, 0, 0), mk(0, 1, 2, 3, 0)})
	repo.Append(f2.Key(), []perturb.Pooled{mk(1, 1, 2, 0, 1), mk(1, 1, 2, 2, 2)})
	return newItemsetPool(repo, []dataset.Itemset{f1, f2}), f1, f2
}

func TestPoolForTupleServesContainedItemsets(t *testing.T) {
	p, _, _ := poolWith(t)
	p.beginTuple(new(Cost))
	// Tuple contains both f1 and f2.
	tuple := []dataset.Item{
		dataset.MakeItem(0, 1), dataset.MakeItem(1, 2),
		dataset.MakeItem(2, 9), dataset.MakeItem(3, 9),
	}
	got := p.ForTuple(tuple, 10)
	if len(got) != 4 {
		t.Fatalf("served %d samples want 4", len(got))
	}
	// Tuple containing only f1.
	p.beginTuple(new(Cost))
	tuple2 := []dataset.Item{
		dataset.MakeItem(0, 1), dataset.MakeItem(1, 9),
		dataset.MakeItem(2, 9), dataset.MakeItem(3, 9),
	}
	if got := p.ForTuple(tuple2, 10); len(got) != 2 {
		t.Fatalf("served %d samples want 2 (only f1)", len(got))
	}
	// Tuple containing neither.
	p.beginTuple(new(Cost))
	tuple3 := []dataset.Item{
		dataset.MakeItem(0, 0), dataset.MakeItem(1, 0),
		dataset.MakeItem(2, 0), dataset.MakeItem(3, 0),
	}
	if got := p.ForTuple(tuple3, 10); len(got) != 0 {
		t.Fatalf("served %d samples want 0", len(got))
	}
}

// TestPoolWindowAllocs: once its window has grown to what a tuple is
// served, the pool hands samples out without allocating.
func TestPoolWindowAllocs(t *testing.T) {
	p, _, _ := poolWith(t)
	tuple := []dataset.Item{
		dataset.MakeItem(0, 1), dataset.MakeItem(1, 2),
		dataset.MakeItem(2, 9), dataset.MakeItem(3, 9),
	}
	cost := new(Cost)
	p.beginTuple(cost)
	p.ForTuple(tuple, 10)
	allocs, bytes := alloctest.PerCall(func() {
		p.beginTuple(cost)
		if got := p.ForTuple(tuple, 10); len(got) != 4 {
			t.Fatalf("served %d samples want 4", len(got))
		}
	})
	if allocs != 0 || bytes != 0 {
		t.Errorf("core.(*itemsetPool).ForTuple: %d allocs, %d B per call once warm, want 0 allocs, 0 B", allocs, bytes)
	}
}

func TestPoolForTupleConsumption(t *testing.T) {
	p, f1, _ := poolWith(t)
	var c1, c2 Cost
	p.beginTuple(&c1)
	tuple := []dataset.Item{
		dataset.MakeItem(0, 1), dataset.MakeItem(1, 2),
		dataset.MakeItem(2, 9), dataset.MakeItem(3, 9),
	}
	first := p.ForTuple(tuple, 3)
	second := p.ForTuple(tuple, 3)
	if len(first) != 3 || len(second) != 1 {
		t.Fatalf("consumption wrong: %d then %d", len(first), len(second))
	}
	// A new tuple resets the allowance, and is charged to its own record.
	p.beginTuple(&c2)
	if got := p.ForTuple(tuple, 10); len(got) != 4 {
		t.Fatalf("after reset served %d want 4", len(got))
	}
	if c1.Pooled != 3+1 || c2.Pooled != 4 {
		t.Fatalf("pooled samples charged %d then %d, want 4 and 4", c1.Pooled, c2.Pooled)
	}
	// Both requests of the first tuple found both entries; the reuse is
	// credited to the first that served.
	if c1.CacheHits != 4 || c2.CacheHits != 2 || c1.Itemset.Key() != f1.Key() {
		t.Fatalf("hits %d then %d, itemset %v", c1.CacheHits, c2.CacheHits, c1.Itemset)
	}
}

func TestPoolForItemsetMatchesRequired(t *testing.T) {
	p, f1, f2 := poolWith(t)
	p.beginTuple(new(Cost))
	// Required exactly f2: both f2 samples match; f1's second sample
	// (bins 1,2,3,0) also contains f2's items.
	got := p.ForItemset(f2, 10)
	if len(got) != 3 {
		t.Fatalf("served %d want 3", len(got))
	}
	for _, s := range got {
		if !perturb.MatchesBins(f2, s.Bins) {
			t.Fatalf("served sample %v does not match %v", s.Bins, f2)
		}
	}
	// Required f1 only: f2-frozen samples are NOT eligible even though
	// their rows contain f1 — their extra frozen attribute biases the
	// coalition's free attributes. Only f1's own samples qualify.
	p.beginTuple(new(Cost))
	if got := p.ForItemset(f1, 10); len(got) != 2 {
		t.Fatalf("served %d want 2", len(got))
	}
}

// TestPoolForItemsetAllocs: ForItemset's twin of TestPoolWindowAllocs —
// once the consumption marks exist, serving allocates nothing.
func TestPoolForItemsetAllocs(t *testing.T) {
	p, _, f2 := poolWith(t)
	cost := new(Cost)
	p.beginTuple(cost)
	p.ForItemset(f2, 10)
	allocs, bytes := alloctest.PerCall(func() {
		p.beginTuple(cost)
		if got := p.ForItemset(f2, 10); len(got) != 3 {
			t.Fatalf("served %d samples want 3", len(got))
		}
	})
	if allocs != 0 || bytes != 0 {
		t.Errorf("core.(*itemsetPool).ForItemset: %d allocs, %d B per call once warm, want 0 allocs, 0 B", allocs, bytes)
	}
}

// TestPoolForItemsetMarksBounded: the consumption marks a long-lived
// pool keeps across tuples do not outlive the itemsets they mark.
func TestPoolForItemsetMarksBounded(t *testing.T) {
	p, f1, f2 := poolWith(t)
	p.beginTuple(new(Cost))
	p.ForItemset(f2, 10) // marks f1 and f2
	p.setItemsets([]dataset.Itemset{f1})
	p.beginTuple(new(Cost))
	if got := p.ForItemset(f1, 10); len(got) != 2 || len(p.consumed) > 1 {
		t.Fatalf("served %d samples, %d itemsets marked; want 2 and at most the 1 pooled", len(got), len(p.consumed))
	}
}

func TestPoolForItemsetSkipsHopelessRequirements(t *testing.T) {
	// Pool holds only a singleton itemset, but its sample coincidentally
	// matches a 4-item requirement. The gap guard (|required| > |f|+2)
	// must skip the scan anyway, so nothing is served.
	f1 := dataset.Itemset{dataset.MakeItem(0, 1)}
	repo := cache.NewRepo(0)
	repo.Append(f1.Key(), []perturb.Pooled{mk(1, 1, 2, 0, 1)})
	p := newItemsetPool(repo, []dataset.Itemset{f1})
	p.beginTuple(new(Cost))
	required := dataset.Itemset{
		dataset.MakeItem(0, 1), dataset.MakeItem(1, 2),
		dataset.MakeItem(2, 0), dataset.MakeItem(3, 1),
	}
	if got := p.ForItemset(required, 10); len(got) != 0 {
		t.Fatalf("hopeless requirement served %d samples", len(got))
	}
	// A 3-item requirement (gap exactly 2) is scanned and hits.
	p.beginTuple(new(Cost))
	req3 := dataset.Itemset{
		dataset.MakeItem(0, 1), dataset.MakeItem(1, 2), dataset.MakeItem(3, 1),
	}
	if got := p.ForItemset(req3, 10); len(got) != 1 {
		t.Fatalf("in-gap requirement served %d samples", len(got))
	}
}

func TestPoolForItemsetConsumption(t *testing.T) {
	p, f1, _ := poolWith(t)
	p.beginTuple(new(Cost))
	a := p.ForItemset(f1, 1)
	b := p.ForItemset(f1, 10)
	if len(a) != 1 || len(b) != 1 {
		t.Fatalf("consumption wrong: %d then %d", len(a), len(b))
	}
	if got := p.ForItemset(f1, 10); len(got) != 0 {
		t.Fatalf("exhausted itemset served %d", len(got))
	}
	// A new tuple resets the allowance.
	p.beginTuple(new(Cost))
	if got := p.ForItemset(f1, 10); len(got) != 2 {
		t.Fatalf("after reset served %d want 2", len(got))
	}
}

func TestEffectiveSupport(t *testing.T) {
	cases := []struct {
		min  float64
		rows int
		want float64
	}{
		{0.1, 1000, 0.1}, // heuristic already above floor
		{0.1, 10, 0.5},   // floor = 5/10
		{0.1, 3, 1},      // floor clamps at 1
		{0.1, 0, 0.1},    // degenerate rows
	}
	for _, tc := range cases {
		if got := effectiveSupport(tc.min, tc.rows); got != tc.want {
			t.Errorf("effectiveSupport(%g, %d)=%g want %g", tc.min, tc.rows, got, tc.want)
		}
	}
}

// materializer returns a pool of kind over st and cls with the engine it
// labels through, as a serial Batch run sets them up.
func materializer(t *testing.T, st *dataset.Stats, cls rf.Classifier, opts Options) (*poolState, *engine) {
	t.Helper()
	b, err := NewBatch(st, cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	f := b.begin(context.Background(), rand.New(rand.NewSource(b.opts.Seed)), obs.StageBatch, 0)
	t.Cleanup(func() { f.span.End() })
	return newPoolState(b.opts, cls.NumClasses(), 100), f.eng
}

// referenceMaterialize is materialize's draw-and-label loop as it stood
// before the pool kept only items and labels: τ Samples from ForItemset,
// each labelled from its own row.
func referenceMaterialize(gen *perturb.Generator, cls rf.Classifier, set dataset.Itemset, tau int) []perturb.Sample {
	out := make([]perturb.Sample, tau)
	for j := range out {
		s := gen.ForItemset(set)
		s.Label = cls.Predict(s.Row)
		out[j] = s
	}
	return out
}

// TestMaterializeMatchesForItemset: the pool labels each perturbation in
// its scratch row and keeps its bins, a slice capped at one per
// attribute of the slab, so an append to one cannot overwrite the next;
// the bins and labels are the ForItemset loop's items and labels,
// and both random streams stand at the same draw. The recidivism forest
// reads numeric attributes too, so a label taken from any row but the
// sample's own shows.
func TestMaterializeMatchesForItemset(t *testing.T) {
	env := newExactEnv(t, 31, 1)
	p := env.st.NumAttrs()
	tItems := env.st.ItemizeRow(env.tuples[0], nil)
	sets := []dataset.Itemset{nil, {tItems[0]}, {tItems[1], tItems[p-1]}, {tItems[0], tItems[2], tItems[p/2]}}
	for _, kind := range []Kind{LIME, Anchor} {
		ps, eng := materializer(t, env.st, env.forest, smallOpts(kind, 32))
		rng, refRng := rand.New(rand.NewSource(33)), rand.New(rand.NewSource(33))
		gen, ref := perturb.NewGenerator(env.st, rng), perturb.NewGenerator(env.st, refRng)
		for _, set := range sets {
			if !ps.materialize(eng, gen, set, new(Report)) {
				t.Fatalf("%s: %v was not stored", kind, set)
			}
			got, _ := ps.repo.Get(set.Key())
			want := referenceMaterialize(ref, env.forest, set, ps.opts.Tau)
			if len(got) != len(want) {
				t.Fatalf("%s: %v holds %d samples, want %d", kind, set, len(got), len(want))
			}
			for j, s := range got {
				if len(s.Bins) != p || cap(s.Bins) != p {
					t.Fatalf("%s: %v sample %d has %d bins with room for %d; want %d capped there",
						kind, set, j, len(s.Bins), cap(s.Bins), p)
				}
				if w := want[j].Pooled(); s.Label != w.Label || !slices.Equal(s.Bins, w.Bins) {
					t.Fatalf("%s: %v sample %d is %v labelled %d, the ForItemset loop drew %v labelled %d",
						kind, set, j, s.Bins, s.Label, want[j].Items, want[j].Label)
				}
			}
		}
		if rng.Int63() != refRng.Int63() {
			t.Fatalf("%s: the stream stands at a different draw than the ForItemset loop's", kind)
		}
	}
}

// TestHotpathAllocs pins what materialize allocates per itemset, with no
// recorder: the samples, their one slab of bins, and the repository's
// entry and list element — four objects, however many samples τ asks
// for. At τ = 10 that is 320 B of samples, 128 B of bins (120 B for 6
// attributes, in its size class) and 112 B of entry and element.
func TestHotpathAllocs(t *testing.T) {
	env := newEnv(t, 35, 1)
	set := dataset.Itemset{env.st.ItemizeRow(env.tuples[0], nil)[0]}
	for _, tc := range []struct {
		name          string
		tau           int
		allocs, bytes uint64
	}{
		{"core.(*poolState).materialize", 10, 4, 560},
		{"core.(*poolState).materialize, τ = 100", 100, 4, 4848},
	} {
		opts := smallOpts(LIME, 36)
		opts.Tau = tc.tau
		ps, eng := materializer(t, env.st, env.cls, opts)
		gen := perturb.NewGenerator(env.st, rand.New(rand.NewSource(37)))
		ps.materialize(eng, gen, set, new(Report))
		// The fill materializes only a key the repository does not hold.
		allocs, bytes := alloctest.PerCall(func() {
			ps.repo.Delete(set.Key())
			ps.materialize(eng, gen, set, new(Report))
		})
		if allocs != tc.allocs || bytes != tc.bytes {
			t.Errorf("%s: %d allocs, %d B per call, want %d allocs, %d B", tc.name, allocs, bytes, tc.allocs, tc.bytes)
		}
	}
}
