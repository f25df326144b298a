package core

import (
	"context"
	"slices"
	"testing"

	"shahin/internal/dataset"
	"shahin/internal/obs"
)

// Two tuple flavours over the 6-attribute test schema; flavour B has
// category 3 on attribute 0.
var (
	flavourA = []float64{0, 0, 0, 0, 0, 0.1}
	flavourB = []float64{3, 1, 1, 1, 1, -0.1}
)

// TestStreamPoolsOnlyAtRenew: a stream's pool changes only at a renew.
// The first window of a period-60 stream holds 57 A and 3 B tuples, so
// B's item {a0=b3}, at 5 % support, is not pooled. In the next window
// one tuple in four is B: the item crosses the 10 % a mine asks by the
// window's tenth tuple, yet it is pooled only by the renew at the
// window's end. Killed mutant: "promote restored" (a tracked itemset
// whose running count clears the threshold is pooled between renews).
func TestStreamPoolsOnlyAtRenew(t *testing.T) {
	env := newEnv(t, 60, 0)
	opts := smallOpts(LIME, 61)
	opts.StreamRecompute = 60
	s, err := NewStream(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	b := dataset.Itemset{dataset.MakeItem(0, 3)}
	for i := 0; i < 120; i++ {
		tup := flavourA
		if i < 60 && i%20 == 0 || i >= 60 && i%4 == 0 {
			tup = flavourB
		}
		if _, err := s.Explain(tup); err != nil {
			t.Fatal(err)
		}
		if want := i == 119; pooled(s.ps, b) != want {
			t.Fatalf("after tuple %d (%d renews): {a0=b3} pooled=%t, want %t", i, s.Mines(), !want, want)
		}
	}
	if s.Mines() != 2 {
		t.Fatalf("mines=%d want 2", s.Mines())
	}
}

// Re-mining must evict itemsets that stopped being frequent.
func TestStreamEvictsStaleItemsets(t *testing.T) {
	env := newEnv(t, 64, 0)
	opts := smallOpts(LIME, 65)
	opts.StreamRecompute = 50
	s, err := NewStream(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Explain(flavourA); err != nil {
			t.Fatal(err)
		}
	}
	keyA := dataset.Itemset{dataset.MakeItem(0, 0)}.Key()
	if !s.ps.repo.Contains(keyA) {
		t.Fatal("flavour-A itemset not materialised after first window")
	}
	// A full window of flavour B: the second re-mine must drop A's
	// itemsets and install B's.
	for i := 0; i < 50; i++ {
		if _, err := s.Explain(flavourB); err != nil {
			t.Fatal(err)
		}
	}
	if s.Mines() < 2 {
		t.Fatalf("mines=%d want >= 2", s.Mines())
	}
	if s.ps.repo.Contains(keyA) {
		t.Fatal("stale itemset survived re-mine eviction")
	}
	keyB := dataset.Itemset{dataset.MakeItem(0, 3)}.Key()
	if !s.ps.repo.Contains(keyB) {
		t.Fatal("fresh itemset not materialised")
	}
}

// TestStreamRenewEvictsOnlyDroppedItemsets: a renew evicts only what
// fell out of the pool. Anchor's pulls store samples under their rules'
// keys in the pool's repository; across each renew of a period-40 Anchor
// stream on the recidivism forest, under a budget that evicts nothing,
// every key that was not pooled survives, and every pooled itemset the
// new mine dropped is gone. The state is read at the renewing tuple's
// first pool read, before its search stores anything.
func TestStreamRenewEvictsOnlyDroppedItemsets(t *testing.T) {
	env := newExactEnv(t, 7, 120)
	opts := smallOpts(Anchor, 9)
	opts.StreamRecompute = 40
	s, err := NewStream(env.st, env.forest, opts)
	if err != nil {
		t.Fatal(err)
	}
	var (
		keys                []dataset.ItemsetKey // the repository before the tuple
		sets                []dataset.Itemset    // the pool before the tuple
		read, kept, dropped int
	)
	fill := s.ps.sh.Fill
	s.ps.sh.Fill = func(rule dataset.Itemset) {
		if s.Mines() > read { // the renewing tuple's first pool read
			read++
			wrong := 0
			for _, key := range keys {
				i := slices.IndexFunc(sets, func(set dataset.Itemset) bool { return set.Key() == key })
				drop := i >= 0 && !pooled(s.ps, sets[i])
				if drop {
					dropped++
				} else if i < 0 {
					kept++
				}
				if s.ps.repo.Contains(key) == drop {
					wrong++
				}
			}
			if wrong > 0 {
				t.Errorf("renew %d: %d of %d keys held wrongly; want all but the dropped pooled itemsets", read, wrong, len(keys))
			}
		}
		fill(rule)
	}
	for i, tup := range env.tuples {
		keys, sets = s.ps.repo.Keys(), slices.Clone(s.ps.sets)
		if _, err := s.Explain(tup); err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
	}
	if read != 3 || kept == 0 || dropped == 0 {
		t.Fatalf("%d renews read, %d unpooled keys and %d dropped itemsets across them: the run does not exercise the rule", read, kept, dropped)
	}
	if ev := s.Report().Cache.Evictions; ev != 0 {
		t.Fatalf("%d evictions under the default budget", ev)
	}
}

// TestStreamAnchorCoverage: once the stream has mined a window, Anchor
// measures coverage against it, so a rule that holds on a tenth of that
// window cannot report zero. (The stream's Anchor explainer used to be
// built with no coverage rows at all, and memoised zero for every rule.)
func TestStreamAnchorCoverage(t *testing.T) {
	env := newEnv(t, 7, 39)
	opts := smallOpts(Anchor, 9)
	opts.StreamRecompute = 20
	s, err := NewStream(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for i, tup := range env.tuples {
		e, err := s.Explain(tup)
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if e.Rule.Coverage < 0 || e.Rule.Coverage > 1 {
			t.Fatalf("tuple %d: coverage %v out of range", i, e.Rule.Coverage)
		}
		// Tuple 19 triggers the one re-mine of this run, over tuples 0–19.
		if i >= 19 && ruleCoverage(env, e.Rule.Items, env.tuples[:20]) >= 0.1 {
			checked++
			if e.Rule.Coverage <= 0 {
				t.Errorf("tuple %d: rule %v holds on a tenth of the mined window but reports coverage %v", i, e.Rule.Items, e.Rule.Coverage)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no rule held on a tenth of the mined window; the check is vacuous")
	}
}

// TestStreamPoolsBeforeFirstRemine: a stream shorter than its renew
// period still reuses samples. Its warm-up mines give the tuples after
// the sixteenth a pool, so LIME and SHAP call the classifier less than
// Sequential does on the same tuples. Anchor's pool is never warmed up
// (an early pool costs its search calls): its count is the one it had
// without warm-up mines.
func TestStreamPoolsBeforeFirstRemine(t *testing.T) {
	env := newEnv(t, 7, 50)
	for _, kind := range []Kind{LIME, SHAP, Anchor} {
		t.Run(kind.String(), func(t *testing.T) {
			opts := smallOpts(kind, 8)
			s, err := NewStream(env.st, env.cls, opts)
			if err != nil {
				t.Fatal(err)
			}
			for i, tup := range env.tuples {
				if _, err := s.Explain(tup); err != nil {
					t.Fatalf("tuple %d: %v", i, err)
				}
			}
			if s.Mines() != 0 {
				t.Fatalf("%d renews counted in a 50-tuple stream with a period of 100", s.Mines())
			}
			rep := s.Report()
			if kind == Anchor {
				// What this stream cost before streams had warm-up mines.
				const want = 790
				if rep.Invocations != want || rep.ReusedSamples != 0 {
					t.Errorf("Anchor: %d invocations, %d reused; want %d and 0", rep.Invocations, rep.ReusedSamples, want)
				}
				return
			}
			seq, err := SequentialCtx(context.Background(), env.st, env.cls, opts, env.tuples)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Invocations >= seq.Report.Invocations || rep.ReusedSamples == 0 {
				t.Errorf("%d invocations with %d reused; Sequential makes %d: the stream never pooled", rep.Invocations, rep.ReusedSamples, seq.Report.Invocations)
			}
		})
	}
}

// TestStreamWarmUpMines: until its first renew, a stream mines the
// window it has so far when it holds 16, 32 and 64 tuples (a period of
// 100), and at no other tuple. A warm-up mine is not counted, keeps the
// window, charges its mine time, logs a re_mine event and opens a remine
// span that says how many rows it read. The renew at 100 mines exactly
// the first hundred tuples.
func TestStreamWarmUpMines(t *testing.T) {
	env := newEnv(t, 7, 120)
	opts := smallOpts(SHAP, 8)
	rec := obs.NewRecorder()
	opts.Recorder = rec
	s, err := NewStream(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	var mined []int
	for i, tup := range env.tuples {
		before := sumEvents(t, rec).remines
		if _, err := s.Explain(tup); err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		n := i + 1
		if sumEvents(t, rec).remines > before {
			mined = append(mined, n)
		}
		switch {
		case n < 100:
			if s.Mines() != 0 || len(s.ps.window) != n {
				t.Fatalf("after %d tuples: %d renews counted, %d tuples in the window; want 0, %d",
					n, s.Mines(), len(s.ps.window), n)
			}
			if n == 16 && (s.Report().MineTime == 0 || len(s.ps.sets) == 0) {
				t.Fatalf("the warm-up mine at 16 charged %v and pooled %d itemsets", s.Report().MineTime, len(s.ps.sets))
			}
		case n == 100:
			if s.Mines() != 1 || len(s.ps.window) != 0 {
				t.Fatalf("the renew at 100: %d counted, %d tuples left in the window; want 1, 0",
					s.Mines(), len(s.ps.window))
			}
			if len(s.ps.cov) != 100 {
				t.Fatalf("the renew at 100 mined %d rows", len(s.ps.cov))
			}
			for j, row := range s.ps.cov {
				if want := env.st.ItemizeRow(env.tuples[j], nil); !slices.Equal(row, want) {
					t.Fatalf("row %d the renew mined is %v, tuple %d itemises to %v", j, row, j, want)
				}
			}
		}
	}
	if s.Mines() != 1 {
		t.Errorf("%d renews counted after 120 tuples, want 1", s.Mines())
	}
	want := []int{16, 32, 64, 100}
	if !slices.Equal(mined, want) {
		t.Errorf("mined after tuples %v, want %v", mined, want)
	}
	var rows []int
	for _, root := range rec.Trace() {
		for _, c := range root.Children {
			if c.Name == obs.StageRemine {
				n, _ := c.Attrs["rows"].(int)
				rows = append(rows, n)
			}
		}
	}
	if !slices.Equal(rows, want) {
		t.Errorf("remine spans read %v rows, want %v", rows, want)
	}
}
