package core

import (
	"context"
	"encoding/json"
	"fmt"
	"testing"

	"shahin/internal/alloctest"
	"shahin/internal/dataset"
	"shahin/internal/obs"
	"shahin/internal/rf"
)

// tripwire cancels a context on the left-th prediction once armed, so a
// run is cut at the same call however long the run before it was.
type tripwire struct {
	rf.Classifier
	left   int
	cancel context.CancelFunc
}

func (c *tripwire) Predict(x []float64) int {
	if c.left > 0 {
		c.left--
		if c.left == 0 {
			c.cancel()
		}
	}
	return c.Classifier.Predict(x)
}

// TestWarmIsAStream: a Warm with staleAfter P answers and counts byte
// for byte as a Stream with StreamRecompute P fed the same tuples one at
// a time, however the tuples are grouped into flushes — with and without
// faults, and with one flush cut at its first call (the stream is cut at
// the same call, and refuses the rest of that flush's tuples at its
// door). The
// flushes' reports sum to Warm.Report(), which is its stream's.
func TestWarmIsAStream(t *testing.T) {
	const period, tuples, cutAt = 30, 120, 5
	env := newEnv(t, 7, tuples)
	schedules := map[string][]int{"1": {1}, "3": {3}, "9": {9}, "irregular": {1, 4, 2, 7, 3, 9, 1, 5}}
	for _, kind := range Kinds() {
		for _, faulty := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/fault=%v", kind, faulty), func(t *testing.T) {
				opts := smallOpts(kind, 11)
				if faulty {
					opts.Fault = goldenFaults(12)
				}
				for name, sizes := range schedules {
					wTrip, sTrip := &tripwire{Classifier: env.cls}, &tripwire{Classifier: env.cls}
					w, err := NewWarm(env.st, wTrip, opts, period)
					if err != nil {
						t.Fatal(err)
					}
					sOpts := opts
					sOpts.StreamRecompute = period
					s, err := NewStream(env.st, sTrip, sOpts)
					if err != nil {
						t.Fatal(err)
					}
					var (
						warm, stream []Explanation
						flushes      Report
						refused, cut int // cut: the tuples of the flush cut short that failed
					)
					for f, next := 0, 0; next < tuples; f++ {
						batch := env.tuples[next:min(tuples, next+sizes[f%len(sizes)])]
						next += len(batch)
						wCtx, wCancel := context.WithCancel(context.Background())
						sCtx, sCancel := context.WithCancel(context.Background())
						if f == cutAt {
							wTrip.left, wTrip.cancel = 1, wCancel
							sTrip.left, sTrip.cancel = 1, sCancel
						}
						res, err := w.ExplainAllCtx(wCtx, batch)
						if res == nil {
							t.Fatalf("%s: flush %d: %v", name, f, err)
						}
						warm = append(warm, res.Explanations...)
						flushes.add(res.Report)
						if f == cutAt {
							cut = res.Report.Failed
						}
						for _, tup := range batch {
							e, err := s.ExplainCtx(sCtx, tup)
							if err != nil {
								refused++
							}
							stream = append(stream, e)
						}
						wCancel()
						sCancel()
					}
					a, _ := json.Marshal(warm)
					b, _ := json.Marshal(stream)
					if string(a) != string(b) {
						t.Fatalf("%s: the Warm's answers differ from the stream's", name)
					}
					cum, ws, sr := w.Report(), w.s.Report(), s.Report()
					sr.Tuples += refused // a flush counts its unattempted tuples
					sr.Failed += refused
					for _, r := range []struct {
						what string
						got  Report
					}{{"the flushes' reports sum", flushes}, {"Report()", cum}, {"the Warm's stream reports", ws}} {
						if got, want := fmt.Sprint(r.got.Tuples, r.got.Retries, goldenCounts(r.got)), fmt.Sprint(sr.Tuples, sr.Retries, goldenCounts(sr)); got != want {
							t.Errorf("%s: %s %s, the stream reports %s", name, r.what, got, want)
						}
					}
					if cut == 0 {
						t.Errorf("%s: flush %d was not cut: none of its tuples failed", name, cutAt)
					}
					if w.Remines() < 2 {
						t.Errorf("%s: %d renews: the sequence never renewed the pool", name, w.Remines())
					}
				}
			})
		}
	}
}

// TestWarmReusesPoolAcrossFlushes is the warm variant's core claim: the
// pool outlives the flush that filled it, so the first tuple of the next
// flush is served pooled samples without any re-mine.
func TestWarmReusesPoolAcrossFlushes(t *testing.T) {
	env := newEnv(t, 1, 60)
	opts := smallOpts(LIME, 1)
	opts.Recorder = obs.NewRecorder()
	w, err := NewWarm(env.st, env.cls, opts, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	first, err := w.ExplainAll(env.tuples[:20])
	if err != nil {
		t.Fatal(err)
	}
	if first.Report.PoolInvocations == 0 {
		t.Fatalf("the first flush warmed up no pool")
	}
	second, err := w.ExplainAll(env.tuples[20:40])
	if err != nil {
		t.Fatal(err)
	}
	if second.Costs[0].Pooled == 0 {
		t.Fatalf("the second flush's first tuple was served nothing; the pool did not persist")
	}
	if w.Remines() != 0 || w.Flushes() != 2 {
		t.Fatalf("Remines = %d, Flushes = %d; want 0 and 2", w.Remines(), w.Flushes())
	}
	if cum := w.Report(); cum.Tuples != 40 || cum.ReusedSamples != first.Report.ReusedSamples+second.Report.ReusedSamples {
		t.Fatalf("cumulative report: %d tuples, %d reused; want 40, %d", cum.Tuples, cum.ReusedSamples, first.Report.ReusedSamples+second.Report.ReusedSamples)
	}
}

// TestWarmStalenessRemine drives enough tuples past the renew period
// that the stream renews once per period.
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
	// The window reaches 30 at the last tuple of each flush.
	if w.Remines() != 3 {
		t.Fatalf("Remines = %d, want 3 with staleAfter=30 and 3x30 tuples", w.Remines())
	}
	if w.s.ps.repo.Len() == 0 {
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

// warmAnswers is what a Warm with the given Workers answers over six
// flushes of size tuples each.
func warmAnswers(t *testing.T, env *testEnv, workers, size int) []byte {
	t.Helper()
	opts := smallOpts(LIME, 6)
	opts.Workers = workers
	w, err := NewWarm(env.st, env.cls, opts, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	var all []Explanation
	for i := 0; i < 6; i++ {
		res, err := w.ExplainAll(env.tuples[i*size : (i+1)*size])
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

// TestWarmParallelMatchesSerial: Workers does not shard a flush — a
// flush streams its tuples — so a Warm with four workers answers byte
// for byte what a one-worker Warm answers.
func TestWarmParallelMatchesSerial(t *testing.T) {
	env := newEnv(t, 4, 60)
	if one, four := warmAnswers(t, env, 1, 10), warmAnswers(t, env, 4, 10); string(one) != string(four) {
		t.Fatalf("10-tuple flushes with 4 workers answer differently from 1 worker:\n%s\n%s", four, one)
	}
}

// TestWarmOneTupleFlushIsSerial: the same for one-tuple flushes.
func TestWarmOneTupleFlushIsSerial(t *testing.T) {
	env := newEnv(t, 6, 30)
	if one, four := warmAnswers(t, env, 1, 1), warmAnswers(t, env, 4, 1); string(one) != string(four) {
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

// TestWarmEmitsRemineEvents checks the provenance trail: every mine the
// stream makes — the warm-up at 16 and the renews at 20, 40 and 60 — is
// a re_mine event and a re-mine span under the flush it happened in,
// every tuple a tuple_explained event, and the report attributes
// allocations to the flushes.
func TestWarmEmitsRemineEvents(t *testing.T) {
	env := newEnv(t, 6, 60)
	opts := smallOpts(LIME, 6)
	rec := obs.NewRecorder()
	opts.Recorder = rec
	w, err := NewWarm(env.st, env.cls, opts, 20)
	if err != nil {
		t.Fatal(err)
	}
	for f := 0; f < 3; f++ {
		if _, err := w.ExplainAll(env.tuples[20*f : 20*f+20]); err != nil {
			t.Fatal(err)
		}
	}
	var remines, explained int
	for _, e := range rec.Events() {
		switch e.Type {
		case obs.EventRemine:
			remines++
		case obs.EventTupleExplained:
			explained++
		}
	}
	names := map[string]int{}
	collectNames(rec.Trace(), names)
	if remines != 4 || names[obs.StageRemine] != 4 || names[obs.StageWarmFlush] != 3 || w.Remines() != 3 {
		t.Fatalf("%d re_mine events, spans %v, %d renews counted; want 4 events and spans under 3 flushes, 3 renews", remines, names, w.Remines())
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
// the repository it counts — zero while the stream has yet to warm up.
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
	for i, cut := range [][2]int{{0, 15}, {15, 30}} {
		if _, err := w.ExplainAll(env.tuples[cut[0]:cut[1]]); err != nil {
			t.Fatal(err)
		}
		if want := w.s.ps.repo.Len(); g.Value() != int64(want) || (want == 0) != (i == 0) {
			t.Fatalf("gauge after flush %d = %d, pooled itemsets = %d; want equal, and zero only before the warm-up", i+1, g.Value(), want)
		}
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

// TestWarmAnchorCoverageMatchesStream: an Anchor Warm measures a rule's
// coverage against its stream's window, as a Stream does — the tuples
// seen so far, up to the first renew — so each rule reports its share
// of the tuples up to some tuple no later than the one it explains
// (coverage is measured once per rule). Before that renew nothing is
// mined, yet Anchor's own pulls fill the repository.
func TestWarmAnchorCoverageMatchesStream(t *testing.T) {
	env := newEnv(t, 7, 40)
	w, err := NewWarm(env.st, env.cls, smallOpts(Anchor, 9), 40)
	if err != nil {
		t.Fatal(err)
	}
	res, err := w.ExplainAll(env.tuples[:39])
	if err != nil {
		t.Fatal(err)
	}
	if len(w.s.ps.sets) != 0 || w.s.ps.repo.Len() == 0 {
		t.Fatalf("before the first renew: %d itemsets mined, %d repository entries; want none, and some", len(w.s.ps.sets), w.s.ps.repo.Len())
	}
	for i, e := range res.Explanations {
		measured := false
		for j := 0; j <= i && !measured; j++ {
			measured = e.Rule.Coverage == ruleCoverage(env, e.Rule.Items, env.tuples[:j+1])
		}
		if !measured {
			t.Errorf("tuple %d: rule %v reports coverage %v, the share of no prefix of the tuples seen", i, e.Rule.Items, e.Rule.Coverage)
		}
	}
}

// TestWarmOneTupleFlushAllocs: once the pool is primed, a one-tuple LIME
// flush allocates at most half the 9 586 B a flush that built its RNG
// and engine afresh did (Go 1.24, amd64).
func TestWarmOneTupleFlushAllocs(t *testing.T) {
	env := newEnv(t, 7, 64)
	w, err := NewWarm(env.st, env.cls, smallOpts(LIME, 7), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ExplainAll(env.tuples[:32]); err != nil {
		t.Fatal(err)
	}
	one := env.tuples[32:33]
	allocs, bytes := alloctest.PerCall(func() {
		if _, err := w.ExplainAll(one); err != nil {
			t.Fatal(err)
		}
	})
	if bytes > 9586/2 {
		t.Fatalf("one-tuple LIME flush allocates %d B (%d objects), want at most %d", bytes, allocs, 9586/2)
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

// TestStreamSpanForestBounded is its sibling for a recorded Stream under
// faults: each call is a root of its own, which its re-mine, retry,
// breaker and degrade spans land under, so past DefaultEventCapacity
// tuples Trace holds exactly the newest capacity roots, all finished.
func TestStreamSpanForestBounded(t *testing.T) {
	env := newEnv(t, 5, 40)
	opts := smallOpts(LIME, 5)
	opts.LIME.NumSamples = 20
	opts.Fault = goldenFaults(6)
	rec := obs.NewRecorder()
	opts.Recorder = rec
	s, err := NewStream(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	const tuples = obs.DefaultEventCapacity + 100
	for i := 0; i < tuples; i++ {
		if _, err := s.Explain(env.tuples[i%len(env.tuples)]); err != nil {
			t.Fatal(err)
		}
	}
	roots := rec.Trace()
	if len(roots) != obs.DefaultEventCapacity {
		t.Fatalf("Trace holds %d roots after %d tuples, want the capacity %d", len(roots), tuples, obs.DefaultEventCapacity)
	}
	for _, r := range roots {
		if r.Name != obs.StageStream || r.InFlight {
			t.Fatalf("a root is %q (in flight: %v), want every one a finished %q", r.Name, r.InFlight, obs.StageStream)
		}
	}
	if got := rec.Counter("spans_dropped").Value(); got != tuples-obs.DefaultEventCapacity {
		t.Fatalf("spans_dropped = %d, want %d", got, tuples-obs.DefaultEventCapacity)
	}
}
