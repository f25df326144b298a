package core

import (
	"testing"

	"shahin/internal/dataset"
)

// TestStreamBorderPromotion drives the stream with tuples engineered so
// that an itemset is infrequent in the first window (landing on the
// negative border) and then becomes frequent, triggering mid-window
// promotion without waiting for the next re-mine.
func TestStreamBorderPromotion(t *testing.T) {
	env := newEnv(t, 60, 0)
	opts := smallOpts(LIME, 61)
	opts.StreamRecompute = 60
	opts.MinSupport = 0.3
	s, err := NewStream(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}

	// Two tuple flavours over the 6-attribute test schema. Flavour B has
	// category 3 on attribute 0; it appears in 10% of the first window
	// (border), then makes up 100% of the follow-up traffic.
	flavourA := []float64{0, 0, 0, 0, 0, 0.1}
	flavourB := []float64{3, 1, 1, 1, 1, -0.1}

	// First window: 54 A, 6 B -> re-mine at tuple 60 puts B's singleton
	// items on the border (support 0.1 < 0.3).
	for i := 0; i < 60; i++ {
		tup := flavourA
		if i%10 == 0 {
			tup = flavourB
		}
		if _, err := s.Explain(tup); err != nil {
			t.Fatal(err)
		}
	}
	if s.Mines() != 1 {
		t.Fatalf("mines=%d want 1", s.Mines())
	}
	borderTracked := 0
	for _, ts := range s.tracked {
		if !ts.frequent {
			borderTracked++
		}
	}
	if borderTracked == 0 {
		t.Fatal("no border itemsets tracked after re-mine")
	}

	// Pure flavour-B traffic: after >= 50 tuples the border itemset
	// {a0=b3} must be promoted before the second re-mine completes the
	// window.
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

// Border tracking off: the same traffic must NOT promote mid-window.
func TestStreamBorderDisabled(t *testing.T) {
	env := newEnv(t, 62, 0)
	opts := smallOpts(LIME, 63)
	opts.StreamRecompute = 60
	opts.MinSupport = 0.3
	off := false
	opts.StreamBorder = &off
	s, err := NewStream(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	flavourA := []float64{0, 0, 0, 0, 0, 0.1}
	flavourB := []float64{3, 1, 1, 1, 1, -0.1}
	for i := 0; i < 60; i++ {
		tup := flavourA
		if i%10 == 0 {
			tup = flavourB
		}
		if _, err := s.Explain(tup); err != nil {
			t.Fatal(err)
		}
	}
	key := dataset.Itemset{dataset.MakeItem(0, 3)}.Key()
	for i := 0; i < 55; i++ {
		if _, err := s.Explain(flavourB); err != nil {
			t.Fatal(err)
		}
		if s.Mines() == 1 && s.ps.repo.Contains(key) {
			t.Fatal("promotion happened with border tracking disabled")
		}
	}
}

// Re-mining must evict itemsets that stopped being frequent.
func TestStreamEvictsStaleItemsets(t *testing.T) {
	env := newEnv(t, 64, 0)
	opts := smallOpts(LIME, 65)
	opts.StreamRecompute = 50
	opts.MinSupport = 0.4
	s, err := NewStream(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	flavourA := []float64{0, 0, 0, 0, 0, 0.1}
	flavourB := []float64{3, 1, 1, 1, 1, -0.1}
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
