package anchor

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"shahin/internal/alloctest"
	"shahin/internal/cache"
	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/mab"
	"shahin/internal/perturb"
	"shahin/internal/rf"
)

// env builds a dataset, its stats, and a coverage sample.
func env(t *testing.T, seed int64) (*dataset.Dataset, *dataset.Stats, []dataset.Itemset) {
	t.Helper()
	cfg := &datagen.Config{
		Name: "at",
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
	cov := CoverageRows(st, d, 500, rand.New(rand.NewSource(seed+1)))
	return d, st, cov
}

func attr0Classifier(v int) rf.Classifier {
	return rf.Func{Classes: 2, F: func(x []float64) int {
		if int(x[0]) == v {
			return 1
		}
		return 0
	}}
}

// rateClassifier answers class 1 on k of every 20 calls, whatever the
// row: a rule pulled in whole batches of 20 has precision k/20 toward
// class 1, the class of the first call.
func rateClassifier(k int) rf.Classifier {
	calls := 0
	return rf.Func{Classes: 2, F: func([]float64) int {
		calls++
		if (calls-1)%20 < k {
			return 1
		}
		return 0
	}}
}

// TestExplainMarksUnverifiedRules: a rule whose lower bound cleared
// τ − ε carries no mark; one accepted on a mean pinned at τ − ε, and the
// fallback when nothing is accepted, do.
func TestExplainMarksUnverifiedRules(t *testing.T) {
	_, st, cov := env(t, 21)
	tup := []float64{2, 1, 3, 0.5}
	for _, tc := range []struct {
		name       string
		cls        rf.Classifier
		unverified bool
	}{
		{"a clean concept", attr0Classifier(2), false},
		{"every rule at τ − ε", rateClassifier(17), true},
		{"no rule verifies", rateClassifier(10), true},
	} {
		e := New(st, tc.cls, cov, Config{}, rand.New(rand.NewSource(22)))
		rule, err := e.Explain(tup)
		if err != nil {
			t.Fatal(err)
		}
		if rule.Unverified != tc.unverified {
			t.Errorf("%s: rule %v (precision %.3f) has Unverified %t, want %t", tc.name, rule.Items, rule.Precision, rule.Unverified, tc.unverified)
		}
	}
}

// TestVerifyStopsWhenUnreachable: below τ − ε, verify pulls only while
// UB < τ − ε could still hold at the rule's mean by the budget's last
// check, at the trials and round the pull loop would reach it with, and
// otherwise rejects at once, as the budget would; at or above τ − ε it
// pulls on, since only pulls can turn the budget's acceptance into a
// proof. Over a grid of cached trials it stops at once exactly then.
func TestVerifyStopsWhenUnreachable(t *testing.T) {
	_, st, cov := env(t, 23)
	const maxPulls, batch = 200, 20
	rule := dataset.Itemset{dataset.MakeItem(0, 1)}
	var stopped, pulledBelow, pulledAbove, acceptedUnproven int
	for pulls := 10; pulls < maxPulls; pulls += 10 {
		for succ := pulls / 2; succ <= pulls; succ++ {
			counting := rf.NewCounting(rateClassifier(17))
			e := New(st, counting, cov, Config{MaxPulls: maxPulls, BatchPulls: batch}, rand.New(rand.NewSource(24)))
			sh := NewShared(2, 0)
			rr, _ := sh.Inv.Lookup(rule.Key())
			rr.AddTrials([]int{pulls - succ, succ})
			mean := rr.Precision(1)
			ok, unverified := e.verify(rule, rr, 1, sh)
			if end := rr.Precision(1); unverified && ok != (end >= precision-eps) {
				t.Fatalf("%d/%d: ended unproven at mean %.3f, yet accepted %t", succ, pulls, end, ok)
			} else if unverified && ok {
				acceptedUnproven++
			}

			// The trials and round of the loop's last check.
			n, round := pulls, 1
			for n < maxPulls {
				n, round = n+batch, round+1
			}
			decides := func(n, round int) bool {
				b := verifyBeta(round)
				return mab.LowerBound(mean, n, b) > precision-eps || mab.UpperBound(mean, n, b) < precision-eps
			}
			switch calls := counting.Invocations(); {
			case decides(pulls, 1):
				if calls != 0 || unverified {
					t.Fatalf("%d/%d: decided at once, yet %d calls and Unverified %t", succ, pulls, calls, unverified)
				}
			case mean < precision-eps && !decides(n, round):
				if calls != 0 || ok || !unverified {
					t.Fatalf("%d/%d: out of reach at %d trials, round %d, yet %d calls, (%t, %t)", succ, pulls, n, round, calls, ok, unverified)
				}
				stopped++
			case calls == 0:
				t.Fatalf("%d/%d: undecided, reachable or at τ − ε and above, yet verify pulled nothing", succ, pulls)
			case mean < precision-eps:
				pulledBelow++
			default:
				pulledAbove++
			}
		}
	}
	if stopped < 100 || pulledBelow < 10 || pulledAbove < 50 || acceptedUnproven < 20 {
		t.Fatalf("grid too thin: %d states stopped at once, %d pulled on below τ − ε, %d above, %d accepted at the budget",
			stopped, pulledBelow, pulledAbove, acceptedUnproven)
	}
}

func TestExplainWrongArity(t *testing.T) {
	_, st, cov := env(t, 1)
	e := New(st, attr0Classifier(0), cov, Config{}, rand.New(rand.NewSource(2)))
	if _, err := e.Explain([]float64{1}); err == nil {
		t.Fatal("wrong arity accepted")
	}
}

// A concept decided by a single attribute must yield a one-predicate
// anchor on that attribute with near-perfect precision.
func TestExplainSingleAttributeConcept(t *testing.T) {
	_, st, cov := env(t, 3)
	e := New(st, attr0Classifier(2), cov, Config{}, rand.New(rand.NewSource(4)))
	rule, err := e.Explain([]float64{2, 1, 3, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rule.Class != 1 {
		t.Fatalf("class=%d want 1", rule.Class)
	}
	if len(rule.Items) != 1 {
		t.Fatalf("rule has %d predicates want 1 (%v)", len(rule.Items), rule.Items)
	}
	if rule.Items[0].Attr() != 0 || rule.Items[0].Bin() != 2 {
		t.Fatalf("rule predicate %v want a0=b2", rule.Items[0])
	}
	if rule.Precision < 0.9 {
		t.Fatalf("precision %.3f < 0.9", rule.Precision)
	}
	if rule.Coverage <= 0 {
		t.Fatalf("coverage %.3f should be positive", rule.Coverage)
	}
}

// The negative class of the same concept: "attr0 != 2" is not expressible
// as one predicate unless the tuple's own value pins it; the anchor on
// attr0=v (v != 2) has precision 1 for class 0.
func TestExplainNegativeClass(t *testing.T) {
	_, st, cov := env(t, 5)
	e := New(st, attr0Classifier(2), cov, Config{}, rand.New(rand.NewSource(6)))
	rule, err := e.Explain([]float64{0, 1, 3, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rule.Class != 0 {
		t.Fatalf("class=%d want 0", rule.Class)
	}
	if rule.Precision < 0.9 {
		t.Fatalf("precision %.3f", rule.Precision)
	}
	// The anchor must pin attr0 (any other single predicate has precision
	// ~P(attr0 != 2) < 0.95 under the skewed marginal... unless bin 2 is
	// rare enough; accept either but require attr0 among predicates when
	// more than one predicate is needed).
	found := false
	for _, it := range rule.Items {
		if it.Attr() == 0 {
			found = true
		}
	}
	if !found && rule.Precision < 0.95 {
		t.Fatalf("rule %v neither pins attr0 nor clears precision", rule.Items)
	}
}

// A two-attribute AND concept should produce an anchor containing both
// attributes when the tuple satisfies the concept.
func TestExplainConjunctionConcept(t *testing.T) {
	_, st, cov := env(t, 7)
	cls := rf.Func{Classes: 2, F: func(x []float64) int {
		if int(x[0]) == 1 && int(x[1]) == 0 {
			return 1
		}
		return 0
	}}
	e := New(st, cls, cov, Config{}, rand.New(rand.NewSource(8)))
	rule, err := e.Explain([]float64{1, 0, 3, 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if rule.Class != 1 {
		t.Fatalf("class=%d", rule.Class)
	}
	attrs := map[int]bool{}
	for _, it := range rule.Items {
		attrs[it.Attr()] = true
	}
	if !attrs[0] || !attrs[1] {
		t.Fatalf("rule %v must pin attrs 0 and 1", rule.Items)
	}
	if rule.Precision < 0.9 {
		t.Fatalf("precision %.3f", rule.Precision)
	}
}

// Sharing state across tuples with a common anchor must reduce classifier
// invocations for the later tuples (the whole point of Shahin-Anchor).
func TestSharedStateSavesInvocations(t *testing.T) {
	_, st, cov := env(t, 9)
	counting := rf.NewCounting(attr0Classifier(2))
	e := New(st, counting, cov, Config{}, rand.New(rand.NewSource(10)))
	sh := NewShared(2, 0)

	tup := []float64{2, 1, 3, 0.5}
	if _, err := e.ExplainShared(tup, sh); err != nil {
		t.Fatal(err)
	}
	first := counting.Invocations()

	// A different tuple sharing the decisive attr0=2 value.
	tup2 := []float64{2, 0, 1, -0.7}
	if _, err := e.ExplainShared(tup2, sh); err != nil {
		t.Fatal(err)
	}
	second := counting.Invocations() - first
	if second >= first/2 {
		t.Fatalf("shared state saved too little: first=%d second=%d", first, second)
	}
}

func TestCoverageMemoised(t *testing.T) {
	_, st, cov := env(t, 11)
	e := New(st, attr0Classifier(1), cov, Config{}, rand.New(rand.NewSource(12)))
	sh := NewShared(2, 0)
	rule := dataset.Itemset{dataset.MakeItem(0, 1)}
	rr, _ := sh.Inv.Lookup(rule.Key())
	got := e.coverage(rule, rr)
	// Recount directly.
	hits := 0
	for _, row := range cov {
		if rule.ContainsAll(row) {
			hits++
		}
	}
	want := float64(hits) / float64(len(cov))
	if got != want {
		t.Fatalf("coverage=%g want %g", got, want)
	}
	if !rr.HasCoverage {
		t.Fatal("coverage not memoised")
	}
	rr.Coverage = 0.123 // poke the memo; a second call must return it
	if e.coverage(rule, rr) != 0.123 {
		t.Fatal("memoised coverage not used")
	}
}

func TestCoverageEmptySample(t *testing.T) {
	_, st, _ := env(t, 13)
	e := New(st, attr0Classifier(1), nil, Config{}, rand.New(rand.NewSource(14)))
	sh := NewShared(2, 0)
	rr, _ := sh.Inv.Lookup(dataset.Itemset{dataset.MakeItem(0, 0)}.Key())
	if got := e.coverage(dataset.Itemset{dataset.MakeItem(0, 0)}, rr); got != 0 {
		t.Fatalf("coverage without sample=%g", got)
	}
}

func TestExtendBeam(t *testing.T) {
	tItems := []dataset.Item{
		dataset.MakeItem(0, 1), dataset.MakeItem(1, 0), dataset.MakeItem(2, 2),
	}
	e := &Explainer{tested: make([]bool, len(tItems))}
	// From the empty rule: one candidate per attribute.
	cands := e.extendBeam([]dataset.Itemset{nil}, tItems)
	if len(cands) != 3 {
		t.Fatalf("empty-rule extensions=%d want 3", len(cands))
	}
	// From a rule on attr 1: two extensions, never repeating attr 1.
	base := dataset.Itemset{dataset.MakeItem(1, 0)}
	cands = e.extendBeam([]dataset.Itemset{base}, tItems)
	if len(cands) != 2 {
		t.Fatalf("extensions=%d want 2", len(cands))
	}
	for _, c := range cands {
		if len(c) != 2 {
			t.Fatalf("extension %v has %d items", c, len(c))
		}
		attrs := map[int]int{}
		for _, it := range c {
			attrs[it.Attr()]++
		}
		if attrs[1] != 1 {
			t.Fatalf("extension %v lost or duplicated attr 1", c)
		}
	}
	// Duplicate candidates across beam rules are emitted once.
	beam := []dataset.Itemset{
		{dataset.MakeItem(0, 1)},
		{dataset.MakeItem(1, 0)},
	}
	cands = e.extendBeam(beam, tItems)
	seen := map[dataset.ItemsetKey]int{}
	for _, c := range cands {
		seen[c.Key()]++
	}
	for k, n := range seen {
		if n > 1 {
			t.Fatalf("candidate %v emitted %d times", k.Itemset(), n)
		}
	}
}

// extendBeamMaps is extendBeam as it stood before the attribute mask:
// a set of every extension's key, a set of each rule's attributes.
func extendBeamMaps(beam []dataset.Itemset, tItems []dataset.Item) []dataset.Itemset {
	seen := make(map[dataset.ItemsetKey]bool)
	var out []dataset.Itemset
	for _, rule := range beam {
		used := make(map[int]bool, len(rule))
		for _, it := range rule {
			used[it.Attr()] = true
		}
		for _, it := range tItems {
			if used[it.Attr()] {
				continue
			}
			ext := insertItem(rule, it)
			k := ext.Key()
			if !seen[k] {
				seen[k] = true
				out = append(out, ext)
			}
		}
	}
	return out
}

// TestExtendBeamMatchesReference: over random beams of up to three rules
// of up to three of a tuple's items — repeats and rules that share
// extensions among them — the mask gives extendBeamMaps' candidates in
// its order, and leaves the mask clear. Mutants this kills: the mask not
// cleared after a rule, the duplicate check dropped.
func TestExtendBeamMatchesReference(t *testing.T) {
	const p = 9
	tItems := make([]dataset.Item, p)
	for a := range tItems {
		tItems[a] = dataset.MakeItem(a, a%3)
	}
	e := &Explainer{tested: make([]bool, p)}
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 2000; trial++ {
		beam := make([]dataset.Itemset, 1+rng.Intn(3))
		for r := range beam {
			for _, a := range rng.Perm(p)[:rng.Intn(4)] {
				beam[r] = insertItem(beam[r], tItems[a])
			}
		}
		if got, want := e.extendBeam(beam, tItems), extendBeamMaps(beam, tItems); !reflect.DeepEqual(got, want) {
			t.Fatalf("beam %v: candidates %v, reference %v", beam, got, want)
		}
		if slices.Contains(e.tested, true) {
			t.Fatalf("beam %v left attributes marked: %v", beam, e.tested)
		}
	}
}

func TestInsertItemKeepsOrder(t *testing.T) {
	rule := dataset.Itemset{dataset.MakeItem(1, 0), dataset.MakeItem(3, 2)}
	got := insertItem(rule, dataset.MakeItem(2, 1))
	want := dataset.Itemset{dataset.MakeItem(1, 0), dataset.MakeItem(2, 1), dataset.MakeItem(3, 2)}
	if len(got) != 3 {
		t.Fatalf("len=%d", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	// Insert at front and back.
	if got := insertItem(rule, dataset.MakeItem(0, 0)); got[0].Attr() != 0 {
		t.Fatalf("front insert: %v", got)
	}
	if got := insertItem(rule, dataset.MakeItem(5, 0)); got[2].Attr() != 5 {
		t.Fatalf("back insert: %v", got)
	}
}

// Bootstrapping a superset rule from stored subset samples must add free
// trials (no classifier calls).
func TestBootstrapFromSubsetSamples(t *testing.T) {
	_, st, cov := env(t, 15)
	counting := rf.NewCounting(attr0Classifier(1))
	e := New(st, counting, cov, Config{BatchPulls: 50, StorePerRule: 200}, rand.New(rand.NewSource(16)))
	sh := NewShared(2, 0)

	// Pull trials for the single-item rule, which stores samples.
	sub := dataset.Itemset{dataset.MakeItem(0, 1)}
	rrSub, _ := sh.Inv.Lookup(sub.Key())
	arm := &ruleArm{e: e, sh: sh, items: sub, rr: rrSub, target: 1}
	arm.Pull(200)
	base := counting.Invocations()

	// Bootstrap the superset rule.
	super := dataset.Itemset{dataset.MakeItem(0, 1), dataset.MakeItem(1, 0)}
	rrSuper, _ := sh.Inv.Lookup(super.Key())
	e.bootstrap(super, rrSuper, sh)
	if counting.Invocations() != base {
		t.Fatal("bootstrap invoked the classifier")
	}
	if rrSuper.Pulls == 0 {
		t.Fatal("bootstrap added no trials")
	}
	// All bootstrapped trials came from samples where attr0=bin1, so the
	// classifier labelled them 1: precision toward class 1 must be 1.
	if rrSuper.Precision(1) != 1 {
		t.Fatalf("bootstrapped precision=%g want 1", rrSuper.Precision(1))
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.fill()
	if c.BatchPulls != 20 || c.MaxPulls != 5000 || c.StorePerRule != 100 {
		t.Fatalf("defaults %+v", c)
	}
}

func BenchmarkExplainSequential(b *testing.B) {
	cfg := &datagen.Config{
		Name: "ab",
		Cat:  []datagen.CatSpec{{Card: 4, Skew: 1}, {Card: 3, Skew: 0.5}},
		Num:  []datagen.NumSpec{{Mean: 0, Std: 1}},
	}
	d, err := cfg.Generate(2000, 17)
	if err != nil {
		b.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	cov := CoverageRows(st, d, 300, rng)
	e := New(st, attr0Classifier(1), cov, Config{}, rng)
	tup := []float64{1, 0, 0.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Explain(tup); err != nil {
			b.Fatal(err)
		}
	}
}

// allocatingPull is ruleArm.Pull as it stood before pulls were drawn
// into a scratch row and kept as bins: every perturbation is allocated
// and itemised whether or not the repository keeps it, and a kept one is
// stored as what its items say.
func allocatingPull(a *ruleArm, n int) int {
	hist := make([]int, a.e.cls.NumClasses())
	var store []perturb.Pooled
	stored, _ := a.sh.Repo.Get(a.items.Key())
	room := a.e.cfg.StorePerRule - len(stored)
	for i := 0; i < n; i++ {
		s := a.e.gen.ForItemset(a.items)
		s.Label = a.e.cls.Predict(s.Row)
		hist[s.Label]++
		if room > 0 {
			store = append(store, s.Pooled())
			room--
		}
	}
	a.rr.AddTrials(hist)
	if len(store) > 0 {
		a.sh.Repo.Append(a.items.Key(), store)
	}
	return hist[a.target]
}

// TestScratchPullsChangeNothing: drawing every perturbation into a
// scratch row, and keeping only the bins and label of the stored ones,
// leaves the whole search as it was — the same rules for 50 tuples over
// one shared state, the same trials per rule, the same items and labels
// in the repository, the same classifier calls, and a random stream that
// stands where it stood.
func TestScratchPullsChangeNothing(t *testing.T) {
	spec, err := datagen.Spec("covertype")
	if err != nil {
		t.Fatal(err)
	}
	data, err := spec.Generate(3000, 41)
	if err != nil {
		t.Fatal(err)
	}
	train, pool := data.Split(1.0/3, rand.New(rand.NewSource(42)))
	st, err := dataset.Compute(train)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := rf.Train(train, rf.Config{NumTrees: 15, MaxDepth: 8, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	cov := CoverageRows(st, pool, 300, rand.New(rand.NewSource(44)))

	type outcome struct {
		rules  []*explain.Rule
		trials map[dataset.ItemsetKey]cache.RuleResult
		nRules int
		repo   cache.Snapshot
		calls  int64
		next   int64 // the draw after the last explanation
	}
	search := func(pull func(*ruleArm, int) int) outcome {
		cls := rf.NewCounting(forest)
		rng := rand.New(rand.NewSource(45))
		// The benchmark's pull budget; StorePerRule is small enough that
		// most pulls land on a full repository entry.
		e := New(st, cls, cov, Config{MaxPulls: 2000, BatchPulls: 25, StorePerRule: 60}, rng)
		e.pull = pull
		sh := NewShared(cls.NumClasses(), 0)
		out := outcome{trials: map[dataset.ItemsetKey]cache.RuleResult{}}
		for i := 0; i < 50; i++ {
			rule, err := e.ExplainShared(pool.Row(i, nil), sh)
			if err != nil {
				t.Fatal(err)
			}
			out.rules = append(out.rules, rule)
		}
		for _, key := range sh.Repo.Keys() {
			rr, _ := sh.Inv.Lookup(key)
			out.trials[key] = *rr
		}
		out.nRules, out.repo, out.calls, out.next = sh.Inv.Len(), sh.Repo.Snapshot(), cls.Invocations(), rng.Int63()
		return out
	}

	got, want := search((*ruleArm).pull), search(allocatingPull)
	if want.calls < 50*100 {
		t.Fatalf("reference search made only %d classifier calls: the bandit never ran", want.calls)
	}
	full := 0
	for _, samples := range want.repo {
		if len(samples) == 60 {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no repository entry filled up, so no pull went through the scratch row")
	}
	if !reflect.DeepEqual(got.rules, want.rules) {
		t.Errorf("rules differ:\n got %v\nwant %v", got.rules, want.rules)
	}
	if got.nRules != want.nRules || !reflect.DeepEqual(got.trials, want.trials) {
		t.Errorf("memoised trials differ (%d rules against %d)", got.nRules, want.nRules)
	}
	checkStored(t, got.repo, st.NumAttrs())
	if !reflect.DeepEqual(got.repo, want.repo) {
		t.Errorf("repository bins or labels differ (%d entries against %d)", len(got.repo), len(want.repo))
	}
	if got.calls != want.calls {
		t.Errorf("%d classifier calls, reference made %d", got.calls, want.calls)
	}
	if got.next != want.next {
		t.Error("the random stream was left at a different draw")
	}
}

// checkStored asserts that each stored sample's bins are a slice capped
// at p, so an append to one cannot write into the next sample's bins.
func checkStored(t *testing.T, repo cache.Snapshot, p int) {
	t.Helper()
	for _, samples := range repo {
		for i, s := range samples {
			if len(s.Bins) != p || cap(s.Bins) != p {
				t.Fatalf("stored sample %d: bins %d long with room for %d; want %d capped there", i, len(s.Bins), cap(s.Bins), p)
			}
		}
	}
}

// guessing answers through its classifier and counts the calls whose
// number guess lists as guesses, as a fault bridge counts the labels its
// degradation ladder gave.
type guessing struct {
	rf.Classifier
	guess          map[int64]bool
	calls, guessed int64
}

func (g *guessing) Predict(x []float64) int {
	g.calls++
	if g.guess[g.calls] {
		g.guessed++
	}
	return g.Classifier.Predict(x)
}

func (g *guessing) Guesses() int64 { return g.guessed }

// TestPullStoresOnlyClassifierLabels: a pull with a guessed label folds
// its trials in but stores none of its samples, since a stored label is
// reused as the classifier's own; the next pull, answered by the
// classifier throughout, stores what it keeps.
func TestPullStoresOnlyClassifierLabels(t *testing.T) {
	_, st, cov := env(t, 53)
	cls := &guessing{Classifier: attr0Classifier(1), guess: map[int64]bool{3: true}}
	e := New(st, cls, cov, Config{StorePerRule: 8}, rand.New(rand.NewSource(54)))
	sh := NewShared(2, 0)
	items := dataset.Itemset{dataset.MakeItem(0, 1)}
	rr, _ := sh.Inv.Lookup(items.Key())
	arm := &ruleArm{e: e, sh: sh, items: items, rr: rr, target: 1}
	for _, want := range []struct{ pulls, stored int }{{5, 0}, {10, 5}, {15, 8}} {
		arm.pull(5)
		if got, _ := sh.Repo.Get(items.Key()); rr.Pulls != want.pulls || len(got) != want.stored {
			t.Fatalf("after %d trials %d samples are stored, want %d trials and %d stored", rr.Pulls, len(got), want.pulls, want.stored)
		}
	}
	checkStored(t, sh.Repo.Snapshot(), st.NumAttrs())
}

// TestHotpathAllocs pins what one pull allocates: nothing once the
// rule's repository entry is full, and while it has room the slice of
// samples it hands over and the one slab of their bins.
func TestHotpathAllocs(t *testing.T) {
	_, st, cov := env(t, 51)
	const pulled = 5
	e := New(st, attr0Classifier(1), cov, Config{StorePerRule: 1000}, rand.New(rand.NewSource(52)))
	sh := NewShared(2, 0)
	arm := func(items dataset.Itemset, stored []perturb.Pooled) *ruleArm {
		rr, _ := sh.Inv.Lookup(items.Key())
		// An entry with capacity to spare, so that what Append's own
		// growth would allocate stays out of the row.
		sh.Repo.Append(items.Key(), stored)
		return &ruleArm{e: e, sh: sh, items: items, rr: rr, target: 1}
	}
	full := arm(dataset.Itemset{dataset.MakeItem(0, 1)}, make([]perturb.Pooled, 1000))
	room := arm(dataset.Itemset{dataset.MakeItem(1, 2)}, make([]perturb.Pooled, 0, 1000))

	for _, tc := range []struct {
		name          string
		arm           *ruleArm
		allocs, bytes uint64
	}{
		{"anchor.(*ruleArm).pull", full, 0, 0},
		// 4 attributes: 32 B per sample header (160 B for five), 8 B of
		// bins per sample in the slab (40 B, a 48 B size class).
		{"anchor.(*ruleArm).pull with room", room, 2, 160 + 48},
	} {
		allocs, bytes := alloctest.PerCall(func() { tc.arm.pull(pulled) })
		if allocs != tc.allocs || bytes != tc.bytes {
			t.Errorf("%s: %d allocs, %d B per call, want %d allocs, %d B", tc.name, allocs, bytes, tc.allocs, tc.bytes)
		}
	}
	if got, _ := sh.Repo.Get(room.items.Key()); len(got) != 100*pulled {
		t.Fatalf("the entry with room holds %d samples after 100 pulls of %d", len(got), pulled)
	}
}
