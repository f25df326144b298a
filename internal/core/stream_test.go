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

// borderStream returns a stream that re-mines every 60 tuples, past its
// first re-mine over 57 A and 3 B tuples: B's items, at 5 % support,
// are tracked on the negative border.
func borderStream(t *testing.T, seed int64) *Stream {
	t.Helper()
	env := newEnv(t, seed, 0)
	opts := smallOpts(LIME, seed+1)
	opts.StreamRecompute = 60
	s, err := NewStream(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		tup := flavourA
		if i%20 == 0 {
			tup = flavourB
		}
		if _, err := s.Explain(tup); err != nil {
			t.Fatal(err)
		}
	}
	if s.Mines() != 1 {
		t.Fatalf("mines=%d want 1", s.Mines())
	}
	if ts := trackedB(s); ts == nil || ts.frequent {
		t.Fatalf("{a0=b3} is not on the tracked border after the first re-mine: %+v", ts)
	}
	return s
}

// trackedB is the stream's tracked entry for {a0=b3}, nil if untracked.
func trackedB(s *Stream) *trackedSet {
	key := dataset.Itemset{dataset.MakeItem(0, 3)}.Key()
	for _, ts := range s.tracked {
		if ts.set.Key() == key {
			return ts
		}
	}
	return nil
}

// TestStreamBorderPromotion: a border itemset that becomes frequent is
// promoted once the window reaches 50 tuples, without waiting for the
// next re-mine.
func TestStreamBorderPromotion(t *testing.T) {
	s := borderStream(t, 60)
	key := dataset.Itemset{dataset.MakeItem(0, 3)}.Key()
	promoted := false
	for i := 0; i < 55; i++ {
		if _, err := s.Explain(flavourB); err != nil {
			t.Fatal(err)
		}
		if s.Mines() == 1 && s.ps.repo.Contains(key) {
			promoted = true
			break
		}
	}
	if !promoted {
		t.Fatal("border itemset never promoted between re-mines")
	}
}

// TestStreamBorderPromotesAtMineThreshold: promotion asks the count the
// next re-mine would, ⌈10 % · window⌉. At 5 of 59 tuples (8.5 %) the
// border itemset is not frequent, and stays on the border.
func TestStreamBorderPromotesAtMineThreshold(t *testing.T) {
	s := borderStream(t, 62)
	for i := 1; i <= 59; i++ {
		tup := flavourA
		if i%12 == 0 || i == 59 {
			tup = flavourB
		}
		if _, err := s.Explain(tup); err != nil {
			t.Fatal(err)
		}
	}
	if ts := trackedB(s); len(s.ps.window) != 59 || ts.count != 5 {
		t.Fatalf("window %d, {a0=b3} counted %d: want 5 of 59", len(s.ps.window), ts.count)
	}
	if trackedB(s).frequent {
		t.Fatal("{a0=b3} promoted at 5 of 59 tuples, below the 10 % support the re-mine asks")
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
// window, tracks nothing, charges its mine time, logs a re_mine event
// and opens a remine span that says how many rows it read. The renew at
// 100 mines exactly the first hundred tuples.
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
			if s.Mines() != 0 || len(s.ps.window) != n || len(s.tracked) != 0 {
				t.Fatalf("after %d tuples: %d renews counted, %d tuples in the window, %d tracked; want 0, %d, 0",
					n, s.Mines(), len(s.ps.window), len(s.tracked), n)
			}
			if n == 16 && (s.Report().MineTime == 0 || len(s.ps.sets) == 0) {
				t.Fatalf("the warm-up mine at 16 charged %v and pooled %d itemsets", s.Report().MineTime, len(s.ps.sets))
			}
		case n == 100:
			if s.Mines() != 1 || len(s.ps.window) != 0 || len(s.tracked) == 0 {
				t.Fatalf("the renew at 100: %d counted, %d tuples left in the window, %d tracked; want 1, 0, some",
					s.Mines(), len(s.ps.window), len(s.tracked))
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
