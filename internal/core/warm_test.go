package core

import (
	"context"
	"encoding/json"
	"testing"

	"shahin/internal/dataset"
	"shahin/internal/obs"
)

// TestWarmReusesPoolAcrossFlushes is the warm variant's core claim:
// after the first flush mines and materialises the pool, later flushes
// spend zero pool invocations yet still reuse pooled samples.
func TestWarmReusesPoolAcrossFlushes(t *testing.T) {
	env := newEnv(t, 1, 60)
	w, err := NewWarm(env.st, env.cls, smallOpts(LIME, 1), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	first, err := w.ExplainAll(env.tuples[:20])
	if err != nil {
		t.Fatal(err)
	}
	if first.Report.PoolInvocations == 0 {
		t.Fatalf("first flush should mine and build the pool")
	}
	if w.Remines() != 1 {
		t.Fatalf("Remines = %d, want 1", w.Remines())
	}
	second, err := w.ExplainAll(env.tuples[20:40])
	if err != nil {
		t.Fatal(err)
	}
	if second.Report.PoolInvocations != 0 {
		t.Fatalf("second flush rebuilt the pool (%d pool invocations); the warm store should persist",
			second.Report.PoolInvocations)
	}
	if second.Report.ReusedSamples == 0 {
		t.Fatalf("second flush reused nothing; cross-flush sharing is broken")
	}
	if w.Flushes() != 2 {
		t.Fatalf("Flushes = %d, want 2", w.Flushes())
	}
	cum := w.Report()
	if cum.Tuples != 40 {
		t.Fatalf("cumulative Tuples = %d, want 40", cum.Tuples)
	}
	if cum.ReusedSamples < second.Report.ReusedSamples {
		t.Fatalf("cumulative reuse %d < flush reuse %d", cum.ReusedSamples, second.Report.ReusedSamples)
	}
}

// TestWarmStalenessRemine drives enough tuples past the staleness
// threshold that a second mine fires.
func TestWarmStalenessRemine(t *testing.T) {
	env := newEnv(t, 2, 90)
	w, err := NewWarm(env.st, env.cls, smallOpts(LIME, 2), 30)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.ExplainAll(env.tuples[30*i : 30*i+30]); err != nil {
			t.Fatal(err)
		}
	}
	// Flush 1 mines (never mined); flush 2 re-mines (30 >= 30 stale);
	// flush 3 re-mines again.
	if w.Remines() != 3 {
		t.Fatalf("Remines = %d, want 3 with staleAfter=30 and 3x30 tuples", w.Remines())
	}
	if w.ps.repo.Len() == 0 {
		t.Fatalf("no pooled itemsets after re-mine")
	}
}

// TestWarmDeterministicFlushSequence re-runs the same sequence of flush
// compositions and requires byte-identical explanations — the guarantee
// DESIGN.md §11 documents for the serving layer.
func TestWarmDeterministicFlushSequence(t *testing.T) {
	env := newEnv(t, 3, 50)
	run := func() []byte {
		w, err := NewWarm(env.st, env.cls, smallOpts(LIME, 3), 10_000)
		if err != nil {
			t.Fatal(err)
		}
		var all []Explanation
		for _, cut := range [][2]int{{0, 17}, {17, 31}, {31, 50}} {
			res, err := w.ExplainAll(env.tuples[cut[0]:cut[1]])
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, res.Explanations...)
		}
		b, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatalf("same flush sequence produced different explanations")
	}
}

// TestWarmParallelMatchesSerial checks the worker-sharded flush path
// produces the same per-flush accounting shape and no failed tuples.
func TestWarmParallelMatchesSerial(t *testing.T) {
	env := newEnv(t, 4, 40)
	opts := smallOpts(LIME, 4)
	opts.Workers = 4
	w, err := NewWarm(env.st, env.cls, opts, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ExplainAll(env.tuples[:20]); err != nil {
		t.Fatal(err)
	}
	res, err := w.ExplainAll(env.tuples[20:])
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.Failed != 0 {
		t.Fatalf("%d failed tuples on the parallel warm path", res.Report.Failed)
	}
	for i, e := range res.Explanations {
		if e.Attribution == nil {
			t.Fatalf("tuple %d missing attribution", i)
		}
	}
	if res.Report.ReusedSamples == 0 {
		t.Fatalf("parallel flush reused nothing from the warm pool")
	}
}

// TestWarmOneTupleFlushIsSerial: a flush with one tuple has no second
// worker to give anything to, so it is answered by the serial engine —
// byte for byte what a one-worker Warm answers — not by a worker engine
// built for it over a snapshot.
func TestWarmOneTupleFlushIsSerial(t *testing.T) {
	env := newEnv(t, 6, 30)
	run := func(workers int) []byte {
		opts := smallOpts(LIME, 6)
		opts.Workers = workers
		w, err := NewWarm(env.st, env.cls, opts, 10_000)
		if err != nil {
			t.Fatal(err)
		}
		var all []Explanation
		for i := 0; i < 6; i++ {
			res, err := w.ExplainAll(env.tuples[i : i+1])
			if err != nil {
				t.Fatal(err)
			}
			all = append(all, res.Explanations...)
		}
		b, err := json.Marshal(all)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if one, four := run(1), run(4); string(one) != string(four) {
		t.Fatalf("one-tuple flushes with 4 workers answer differently from 1 worker:\n%s\n%s", four, one)
	}
}

// TestWarmCancelMarksUnattempted cancels before a flush and requires
// every tuple of that flush to come back StatusFailed.
func TestWarmCancelMarksUnattempted(t *testing.T) {
	env := newEnv(t, 5, 30)
	w, err := NewWarm(env.st, env.cls, smallOpts(LIME, 5), 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ExplainAll(env.tuples[:10]); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := w.ExplainAllCtx(ctx, env.tuples[10:])
	if err == nil {
		t.Fatalf("cancelled flush returned nil error")
	}
	if res == nil {
		t.Fatalf("cancelled flush returned nil result; partials are part of the contract")
	}
	for i, e := range res.Explanations {
		if e.Status != StatusFailed {
			t.Fatalf("tuple %d status = %v, want failed", i, e.Status)
		}
	}
}

// TestWarmEmitsRemineEvents checks the provenance trail: a warm run
// with a recorder produces re_mine and tuple_explained events, and its
// report attributes allocations to the flush.
func TestWarmEmitsRemineEvents(t *testing.T) {
	env := newEnv(t, 6, 20)
	opts := smallOpts(LIME, 6)
	rec := obs.NewRecorder()
	opts.Recorder = rec
	w, err := NewWarm(env.st, env.cls, opts, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ExplainAll(env.tuples); err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	var remines, explained int
	for _, e := range events {
		switch e.Type {
		case obs.EventRemine:
			remines++
		case obs.EventTupleExplained:
			explained++
		}
	}
	if remines != 1 {
		t.Fatalf("re_mine events = %d, want 1", remines)
	}
	if explained != len(env.tuples) {
		t.Fatalf("tuple_explained events = %d, want %d", explained, len(env.tuples))
	}
	if rep := w.Report(); rep.AllocBytes <= 0 {
		t.Fatalf("instrumented warm run recorded no allocation attribution (alloc_bytes = %d)", rep.AllocBytes)
	}
}

// TestWarmPoolOccupancyGauge: each instrumented flush publishes the
// pool's itemset count into the occupancy gauge, and it agrees with
// the repository it counts.
func TestWarmPoolOccupancyGauge(t *testing.T) {
	env := newEnv(t, 71, 30)
	rec := obs.NewRecorder()
	opts := smallOpts(LIME, 72)
	opts.Recorder = rec
	w, err := NewWarm(env.st, env.cls, opts, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	g := rec.Gauge(obs.GaugeWarmPooledItemsets)
	if g.Value() != 0 {
		t.Fatalf("gauge before any flush = %d, want 0", g.Value())
	}
	if _, err := w.ExplainAll(env.tuples[:15]); err != nil {
		t.Fatal(err)
	}
	got := g.Value()
	if got <= 0 {
		t.Fatalf("gauge after first flush = %d, want positive", got)
	}
	if want := w.ps.repo.Len(); got != int64(want) {
		t.Fatalf("gauge = %d, pooled itemsets = %d", got, want)
	}
	// A second flush over the warm pool republishes the same occupancy.
	if _, err := w.ExplainAll(env.tuples[15:30]); err != nil {
		t.Fatal(err)
	}
	if g.Value() != int64(w.ps.repo.Len()) {
		t.Fatalf("gauge after second flush = %d, pooled itemsets = %d", g.Value(), w.ps.repo.Len())
	}
}

// ruleCoverage is the fraction of the tuples whose bins satisfy the rule.
func ruleCoverage(env *testEnv, items dataset.Itemset, tuples [][]float64) float64 {
	hits := 0
	for _, tup := range tuples {
		if items.ContainsAll(env.st.ItemizeRow(tup, nil)) {
			hits++
		}
	}
	return float64(hits) / float64(len(tuples))
}

// TestWarmAnchorCoverageMatchesBatch: a first flush mines the very
// tuples it explains, as Batch does, so each of its rules must report
// the coverage Batch reports over the same tuples — the share of them
// the rule holds on. (The flush's engine used to capture the window
// before the flush's tuples were appended, and measured against nothing.)
func TestWarmAnchorCoverageMatchesBatch(t *testing.T) {
	env := newEnv(t, 7, 40)
	opts := smallOpts(Anchor, 9)

	b, err := NewBatch(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := b.ExplainAll(env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	byRule := map[dataset.ItemsetKey]float64{}
	for i, e := range batch.Explanations {
		if want := ruleCoverage(env, e.Rule.Items, env.tuples); e.Rule.Coverage != want {
			t.Fatalf("batch tuple %d: rule %v reports coverage %v, holds on %v of the batch", i, e.Rule.Items, e.Rule.Coverage, want)
		}
		byRule[e.Rule.Items.Key()] = e.Rule.Coverage
	}

	w, err := NewWarm(env.st, env.cls, opts, 40)
	if err != nil {
		t.Fatal(err)
	}
	warm, err := w.ExplainAll(env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	shared := 0
	for i, e := range warm.Explanations {
		if want := ruleCoverage(env, e.Rule.Items, env.tuples); e.Rule.Coverage != want {
			t.Errorf("warm tuple %d: rule %v reports coverage %v, holds on %v of the flush", i, e.Rule.Items, e.Rule.Coverage, want)
		}
		if want, ok := byRule[e.Rule.Items.Key()]; ok {
			shared++
			if e.Rule.Coverage != want {
				t.Errorf("warm tuple %d: rule %v reports coverage %v, Batch reports %v", i, e.Rule.Items, e.Rule.Coverage, want)
			}
		}
	}
	if shared == 0 {
		t.Error("Warm and Batch emitted no rule in common; the comparison is vacuous")
	}
}

// TestWarmSpanForestBounded: a warm server opens one warm-flush root
// per flush under a recorder it never replaces, so the recorder keeps
// its forest as a ring: past DefaultEventCapacity flushes, Trace holds
// exactly the newest capacity roots and spans_dropped counts the rest.
func TestWarmSpanForestBounded(t *testing.T) {
	env := newEnv(t, 5, 40)
	opts := smallOpts(LIME, 5)
	opts.LIME.NumSamples = 20
	rec := obs.NewRecorder()
	opts.Recorder = rec
	w, err := NewWarm(env.st, env.cls, opts, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	const flushes = obs.DefaultEventCapacity + 100
	for i := 0; i < flushes; i++ {
		at := 4 * (i % 10)
		if _, err := w.ExplainAll(env.tuples[at : at+4]); err != nil {
			t.Fatal(err)
		}
	}
	roots := rec.Trace()
	if len(roots) != obs.DefaultEventCapacity {
		t.Fatalf("Trace holds %d roots after %d flushes, want the capacity %d", len(roots), flushes, obs.DefaultEventCapacity)
	}
	if roots[0].Name != obs.StageWarmFlush || roots[len(roots)-1].Name != obs.StageWarmFlush {
		t.Fatalf("roots are %q … %q, want %q", roots[0].Name, roots[len(roots)-1].Name, obs.StageWarmFlush)
	}
	if got := rec.Counter("spans_dropped").Value(); got != flushes-obs.DefaultEventCapacity {
		t.Fatalf("spans_dropped = %d, want %d", got, flushes-obs.DefaultEventCapacity)
	}
}
