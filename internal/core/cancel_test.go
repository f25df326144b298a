package core

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/obs"
	"shahin/internal/perturb"
	"shahin/internal/rf"
)

// cancelAfter wraps a classifier and fires cancel on the n-th Predict
// call, so cancellation lands mid-run deterministically regardless of
// timing. Safe for concurrent workers.
type cancelAfter struct {
	inner  rf.Classifier
	cancel context.CancelFunc
	after  int64
	n      atomic.Int64
}

func (c *cancelAfter) NumClasses() int { return c.inner.NumClasses() }

func (c *cancelAfter) Predict(x []float64) int {
	if c.n.Add(1) == c.after {
		c.cancel()
	}
	return c.inner.Predict(x)
}

// cutPoint runs a batch over tuples to the end and returns the call
// halfway through those its explanations make past the pool's labels —
// where a cancellation lands among the tuples however the pool's size
// moves — and the run's calls in all.
func cutPoint(t *testing.T, st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64) (cut, full int64) {
	t.Helper()
	opts.Recorder = nil
	b, err := NewBatch(st, cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAll(tuples)
	if err != nil {
		t.Fatal(err)
	}
	r := res.Report
	return r.PoolInvocations + (r.Invocations-r.PoolInvocations)/2, r.Invocations
}

// checkCut asserts that a run cancelled at a cut point was cut: it
// returned context.Canceled having made fewer calls than the full run.
func checkCut(t *testing.T, err error, cls *cancelAfter, full int64) {
	t.Helper()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if made := cls.n.Load(); made >= full {
		t.Fatalf("the cancelled run made %d calls, the full run %d: it was never cut", made, full)
	}
}

// reconcilePartial checks the invocation identities of the event log
// against a partial report. A cancelled run stops emitting
// tuple_explained events at the cut, so the per-tuple event count is
// bounded by (not equal to) Report.Tuples — but every classifier
// invocation that did happen must still be accounted for exactly.
func reconcilePartial(t *testing.T, s eventSums, rep Report) {
	t.Helper()
	if s.explained > rep.Tuples {
		t.Errorf("%d tuple_explained events for %d tuples", s.explained, rep.Tuples)
	}
	if want := rep.Invocations - rep.PoolInvocations; s.explainedFresh != want {
		t.Errorf("sum of per-tuple fresh samples = %d, want Invocations-PoolInvocations = %d", s.explainedFresh, want)
	}
	if s.explainedPooled != rep.ReusedSamples {
		t.Errorf("sum of per-tuple pooled samples = %d, want ReusedSamples = %d", s.explainedPooled, rep.ReusedSamples)
	}
	if s.preLabelFresh != rep.PoolInvocations {
		t.Errorf("sum of pre_label fresh samples = %d, want PoolInvocations = %d", s.preLabelFresh, rep.PoolInvocations)
	}
}

// checkPartial asserts the shape of a cancelled run's partial result:
// full-length output, a mix of finished and failed tuples, failed slots
// tallied in the report, and no payload on unattempted slots.
func checkPartial(t *testing.T, res *Result, n int) {
	t.Helper()
	if res == nil {
		t.Fatal("cancelled run returned no partial result")
	}
	if len(res.Explanations) != n {
		t.Fatalf("partial result has %d slots for %d tuples", len(res.Explanations), n)
	}
	finished, failed := 0, 0
	for _, e := range res.Explanations {
		if e.Status == StatusFailed {
			failed++
		} else if e.Attribution != nil || e.Rule != nil {
			finished++
		} else {
			t.Error("non-failed explanation with no payload")
		}
	}
	if failed == 0 {
		t.Error("mid-run cancellation marked no tuple failed")
	}
	if finished == 0 {
		t.Error("mid-run cancellation finished no tuple at all (cancelled too early for the test to mean anything)")
	}
	if res.Report.Failed != failed {
		t.Errorf("Report.Failed=%d but %d explanations carry StatusFailed", res.Report.Failed, failed)
	}
}

// TestBatchCancelMidRun cancels a serial batch run from inside the
// classifier and checks the partial result and report.
func TestBatchCancelMidRun(t *testing.T) {
	env := newEnv(t, 81, 30)
	rec := obs.NewRecorder()
	opts := smallOpts(LIME, 82)
	opts.Recorder = rec

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut, full := cutPoint(t, env.st, env.cls, opts, env.tuples)
	cls := &cancelAfter{inner: env.cls, cancel: cancel, after: cut}
	b, err := NewBatch(env.st, cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAllCtx(ctx, env.tuples)
	checkCut(t, err, cls, full)
	checkPartial(t, res, len(env.tuples))
	reconcilePartial(t, sumEvents(t, rec), res.Report)
}

// TestBatchCancelParallel is the same check across parallel workers,
// under -race: every worker must stop, unattempted slots must be marked
// failed, and the merged report must still reconcile with the events.
func TestBatchCancelParallel(t *testing.T) {
	env := newEnv(t, 83, 48)
	rec := obs.NewRecorder()
	opts := smallOpts(LIME, 84)
	opts.Recorder = rec
	opts.Workers = 4

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut, full := cutPoint(t, env.st, env.cls, opts, env.tuples)
	cls := &cancelAfter{inner: env.cls, cancel: cancel, after: cut}
	b, err := NewBatch(env.st, cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAllCtx(ctx, env.tuples)
	checkCut(t, err, cls, full)
	checkPartial(t, res, len(env.tuples))
	reconcilePartial(t, sumEvents(t, rec), res.Report)
}

// TestBatchCancelBeforeStart: a context cancelled on entry yields a
// full-length all-failed result without invoking the classifier for
// any tuple explanation.
func TestBatchCancelBeforeStart(t *testing.T) {
	env := newEnv(t, 85, 10)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, err := NewBatch(env.st, env.cls, smallOpts(LIME, 86))
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAllCtx(ctx, env.tuples)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if res == nil || len(res.Explanations) != len(env.tuples) {
		t.Fatal("want a full-length all-failed result")
	}
	for i, e := range res.Explanations {
		if e.Status != StatusFailed {
			t.Errorf("tuple %d status=%v, want failed", i, e.Status)
		}
	}
	if res.Report.Failed != len(env.tuples) {
		t.Errorf("Report.Failed=%d, want %d", res.Report.Failed, len(env.tuples))
	}
}

// TestStreamCancelMidStream cancels between stream tuples and checks
// the stream keeps serving afterwards and its report stays consistent
// with the event log.
func TestStreamCancelMidStream(t *testing.T) {
	env := newEnv(t, 87, 40)
	rec := obs.NewRecorder()
	opts := smallOpts(LIME, 88)
	opts.Recorder = rec
	opts.StreamRecompute = 10

	s, err := NewStream(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	served := 0
	for i, tup := range env.tuples {
		if i == 25 {
			// One request arrives with an already-dead context: it is
			// refused without touching stream state.
			dead, cancel := context.WithCancel(context.Background())
			cancel()
			exp, err := s.ExplainCtx(dead, tup)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("dead-context err=%v", err)
			}
			if exp.Status != StatusFailed {
				t.Fatalf("dead-context status=%v, want failed", exp.Status)
			}
			continue
		}
		exp, err := s.ExplainCtx(context.Background(), tup)
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if exp.Status != StatusOK {
			t.Errorf("tuple %d status=%v, want ok", i, exp.Status)
		}
		served++
	}
	rep := s.Report()
	if rep.Tuples != served {
		t.Errorf("Report.Tuples=%d, want %d (the refused request must not count)", rep.Tuples, served)
	}
	if rep.Failed != 0 {
		t.Errorf("Report.Failed=%d, want 0 (the refused request never entered the stream)", rep.Failed)
	}
	s2 := sumEvents(t, rec)
	if s2.explained != served {
		t.Errorf("%d tuple_explained events for %d served tuples", s2.explained, served)
	}
	reconcilePartial(t, s2, rep)
}

// TestStreamCancelMidTuple cancels from inside the classifier while a
// stream tuple is being explained: the tuple must finish promptly on
// fallback labels, be marked failed, and later tuples must succeed.
func TestStreamCancelMidTuple(t *testing.T) {
	env := newEnv(t, 89, 20)
	opts := smallOpts(LIME, 90)
	opts.StreamRecompute = 5

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cls := &cancelAfter{inner: env.cls, cancel: cancel, after: 1200}
	s, err := NewStream(env.st, cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	sawFailed := false
	for i, tup := range env.tuples {
		c := ctx
		if sawFailed {
			c = context.Background() // the caller moves on with a fresh context
		}
		exp, err := s.ExplainCtx(c, tup)
		if errors.Is(err, context.Canceled) {
			continue // refused on entry; try the next tuple fresh
		}
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if exp.Status == StatusFailed {
			sawFailed = true
		}
	}
	if !sawFailed {
		t.Fatal("cancellation never landed mid-tuple; lower cancelAfter.after")
	}
	rep := s.Report()
	if rep.Failed == 0 {
		t.Error("Report.Failed=0 despite a mid-tuple cancellation")
	}
	// The stream survives: one more tuple under a live context is OK.
	exp, err := s.ExplainCtx(context.Background(), env.tuples[0])
	if err != nil {
		t.Fatal(err)
	}
	if exp.Status != StatusOK {
		t.Errorf("post-cancel tuple status=%v, want ok", exp.Status)
	}
}

// TestSequentialCancelMidRun covers the baseline's partial result.
func TestSequentialCancelMidRun(t *testing.T) {
	env := newEnv(t, 91, 25)
	opts := smallOpts(LIME, 92)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cls := &cancelAfter{inner: env.cls, cancel: cancel, after: 1500}
	res, err := SequentialCtx(ctx, env.st, cls, opts, env.tuples)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	checkPartial(t, res, len(env.tuples))
}

// TestCancelReturnsPromptly: once cancel fires, the run must wrap up in
// fallback time, not finish the remaining workload. The classifier is
// slowed so that "kept going" and "stopped" are clearly separated.
func TestCancelReturnsPromptly(t *testing.T) {
	env := newEnv(t, 93, 40)
	opts := smallOpts(LIME, 94)
	slow := rf.NewDelayed(env.cls, 50*time.Microsecond)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	cut, full := cutPoint(t, env.st, env.cls, opts, env.tuples) // the delay changes no draw
	cls := &cancelAfter{inner: slow, cancel: cancel, after: cut}
	b, err := NewBatch(env.st, cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := b.ExplainAllCtx(ctx, env.tuples)
	took := time.Since(start)
	checkCut(t, err, cls, full)
	checkPartial(t, res, len(env.tuples))
	// Full run ≈ 40 tuples × 300 samples × 50µs = 600ms of classifier
	// time alone; a prompt cancellation halfway through the tuples'
	// calls should cut well below it even on a slow CI box.
	if took > 2*time.Second {
		t.Errorf("cancelled run took %v", took)
	}
}

// witness is the classifier a run whose pool is checked is handed: a
// pooled sample keeps only its bins, so the witness records, for each
// bin encoding, the labels the classifier gave rows with those bins.
type witness struct {
	rf.Classifier
	st   *dataset.Stats
	mu   sync.Mutex
	gave map[string]uint64 // fmt.Sprint of the bins → bit set of labels
}

func newWitness(st *dataset.Stats, cls rf.Classifier) *witness {
	return &witness{Classifier: cls, st: st, gave: make(map[string]uint64)}
}

func (w *witness) Predict(x []float64) int {
	y := w.Classifier.Predict(x)
	items := w.st.ItemizeRow(x, nil)
	key := fmt.Sprint(perturb.BinsOf(items, make([]uint16, len(items))))
	w.mu.Lock()
	w.gave[key] |= 1 << y
	w.mu.Unlock()
	return y
}

// checkPoolLabels asserts that every sample a persistent pool holds
// carries a label the classifier gave a row with the sample's bins —
// none stored from the degradation ladder's guesses.
func checkPoolLabels(t *testing.T, ps *poolState, w *witness) {
	t.Helper()
	for _, key := range ps.repo.Keys() {
		samples, _ := ps.repo.Get(key)
		for i, s := range samples {
			if gave := w.gave[fmt.Sprint(s.Bins)]; gave&(1<<s.Label) == 0 {
				t.Fatalf("pooled sample %d of an itemset is labelled %d, the classifier gave its bins %b", i, s.Label, gave)
			}
		}
	}
}

// TestCancelledRenewHeals is the rule poolState.renew keeps for a
// stream, and so for a Warm: no cancellation leaves the pool short of
// what an uninterrupted twin pools once the runner has renewed again.
//
// A stream's refresh labels nothing, so there is nothing to cut short:
// the tuple that renews is cut in the first fill it makes (its first
// call names the target; label 20 of the fill is call 21). The renew
// is counted and starts a new window, the fill stores nothing and its
// itemset leaves the pool, and the next renew pools what the twin
// pools. The tuple that warms up (the sixteenth, at a period of 100) is
// cut the same way: its mine stays uncounted and keeps its window, and
// the renew at 100 mines the first hundred tuples and pools what the
// twin pools. A Warm flush cut the same way leaves its unattempted
// tuples out of the window: they were never seen.
func TestCancelledRenewHeals(t *testing.T) {
	env := newEnv(t, 7, 100)
	t.Run("warm", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		wit := newWitness(env.st, env.cls)
		cls := &cancelAfter{inner: wit, cancel: cancel}
		open := func(cls rf.Classifier) *Warm {
			w, err := NewWarm(env.st, cls, smallOpts(LIME, 9), 20)
			if err != nil {
				t.Fatal(err)
			}
			return w
		}
		flush := func(w *Warm, tuples [][]float64) {
			if _, err := w.ExplainAll(tuples); err != nil {
				t.Fatal(err)
			}
		}
		w := open(cls)
		flush(w, env.tuples[:19])
		fills := watchFills(w.s)
		cls.after = cls.n.Load() + 21
		res, err := w.ExplainAllCtx(ctx, env.tuples[19:25])
		if !errors.Is(err, context.Canceled) || res.Report.Failed != 6 {
			t.Fatalf("the flush cut short: %d tuples failed, err=%v; want 6, %v", res.Report.Failed, err, context.Canceled)
		}
		if len(fills.fills) == 0 || fills.fills[0].stored {
			t.Fatalf("fills of the flush cut short: %+v; want the first to store nothing", fills.fills)
		}
		if w.Remines() != 1 || len(w.s.ps.window) != 0 {
			t.Errorf("after the flush cut short: %d renews counted, %d tuples in the window; want 1 and 0", w.Remines(), len(w.s.ps.window))
		}
		flush(w, env.tuples[25:45])
		twin := open(env.cls)
		flush(twin, env.tuples[:20])
		flush(twin, env.tuples[25:45])
		if got, want := fmt.Sprint(w.s.ps.sets), fmt.Sprint(twin.s.ps.sets); got != want || len(twin.s.ps.sets) == 0 {
			t.Errorf("pooled itemsets after the next renew:\n  %s\nthe uninterrupted twin's:\n  %s", got, want)
		}
		if w.Remines() != 2 {
			t.Errorf("%d renews counted after the healing flush, want 2", w.Remines())
		}
		checkPoolLabels(t, w.s.ps, wit)
	})
	t.Run("stream", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		wit := newWitness(env.st, env.cls)
		cls := &cancelAfter{inner: wit, cancel: cancel}
		open := func(cls rf.Classifier, every int) *Stream {
			opts := smallOpts(LIME, 9)
			opts.Recorder = obs.NewRecorder()
			opts.StreamRecompute = every
			s, err := NewStream(env.st, cls, opts)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		explain := func(s *Stream, tuples [][]float64) {
			for _, tup := range tuples {
				if _, err := s.Explain(tup); err != nil {
					t.Fatal(err)
				}
			}
		}
		// cut explains tuple i under ctx, cancelled in the first fill the
		// tuple makes, which must store nothing and leave the pool.
		cut := func(s *Stream, i int) {
			t.Helper()
			w := watchFills(s)
			cls.after = cls.n.Load() + 21
			exp, err := s.ExplainCtx(ctx, env.tuples[i])
			if err != nil || exp.Status != StatusFailed {
				t.Fatalf("the tuple cut short: status %v, err=%v; want failed, nil", exp.Status, err)
			}
			if len(w.fills) == 0 || w.fills[0].stored || w.fills[0].calls != 50 {
				t.Fatalf("fills of the tuple cut short: %+v; want the first to label 50 samples and store none", w.fills)
			}
			refused := w.fills[0].set
			if s.ps.repo.Contains(refused.Key()) || pooled(s.ps, refused) {
				t.Errorf("the refused fill's itemset %v is still pooled", refused)
			}
		}
		healed := func(s, twin *Stream, mines int) {
			t.Helper()
			if got, want := fmt.Sprint(s.ps.sets), fmt.Sprint(twin.ps.sets); got != want || len(twin.ps.sets) == 0 {
				t.Errorf("pooled itemsets after the next renew:\n  %s\nthe uninterrupted twin's:\n  %s", got, want)
			}
			if s.Mines() != mines {
				t.Errorf("%d renews counted, want %d", s.Mines(), mines)
			}
			checkPoolLabels(t, s.ps, wit)
		}

		s := open(cls, 20)
		explain(s, env.tuples[:19])
		cut(s, 19)
		if s.Mines() != 1 || len(s.ps.window) != 0 {
			t.Errorf("the renew of the tuple cut short: %d counted, %d tuples left in its window; want 1 and 0", s.Mines(), len(s.ps.window))
		}
		explain(s, env.tuples[20:40])
		twin := open(env.cls, 20)
		explain(twin, env.tuples[:40])
		healed(s, twin, 2)

		ctx, cancel = context.WithCancel(context.Background())
		defer cancel()
		cls.cancel = cancel
		s = open(cls, 100)
		explain(s, env.tuples[:15])
		cut(s, 15)
		if s.Mines() != 0 || len(s.ps.window) != 16 {
			t.Errorf("the warm-up mine of the tuple cut short: %d counted, %d tuples left in its window; want 0 and 16", s.Mines(), len(s.ps.window))
		}
		explain(s, env.tuples[16:100])
		twin = open(env.cls, 100)
		explain(twin, env.tuples[:100])
		if got, want := fmt.Sprint(s.ps.cov), fmt.Sprint(twin.ps.cov); got != want || len(s.ps.cov) != 100 {
			t.Errorf("the renew at 100 mined %d rows, not the first hundred the twin's renew mined", len(s.ps.cov))
		}
		healed(s, twin, 1)
	})
}

// TestCancelAtEveryTuple cancels each runner once inside every tuple of
// a run (and once inside the pool build before them), at the classifier
// call an uncancelled run's event log says the tuple starts on. The
// status rule callers rely on — shahin-explain's partial print,
// shahin-store's partial flush, serve's store writes — is that a slot
// never reads StatusOK without a payload: the runners mark every slot
// they did not reach themselves, and nothing downstream re-marks.
func TestCancelAtEveryTuple(t *testing.T) {
	env := newEnv(t, 95, 8)
	runners := map[string]func(ctx context.Context, cls rf.Classifier, opts Options) ([]Explanation, error){
		"batch": func(ctx context.Context, cls rf.Classifier, opts Options) ([]Explanation, error) {
			b, err := NewBatch(env.st, cls, opts)
			if err != nil {
				return nil, err
			}
			return explanations(b.ExplainAllCtx(ctx, env.tuples))
		},
		"batch-workers": func(ctx context.Context, cls rf.Classifier, opts Options) ([]Explanation, error) {
			opts.Workers = 3
			b, err := NewBatch(env.st, cls, opts)
			if err != nil {
				return nil, err
			}
			return explanations(b.ExplainAllCtx(ctx, env.tuples))
		},
		"warm": func(ctx context.Context, cls rf.Classifier, opts Options) ([]Explanation, error) {
			w, err := NewWarm(env.st, cls, opts, 0)
			if err != nil {
				return nil, err
			}
			return explanations(w.ExplainAllCtx(ctx, env.tuples))
		},
		"sequential": func(ctx context.Context, cls rf.Classifier, opts Options) ([]Explanation, error) {
			return explanations(SequentialCtx(ctx, env.st, cls, opts, env.tuples))
		},
		"stream": func(ctx context.Context, cls rf.Classifier, opts Options) ([]Explanation, error) {
			s, err := NewStream(env.st, cls, opts)
			if err != nil {
				return nil, err
			}
			out := make([]Explanation, len(env.tuples))
			for i, tup := range env.tuples {
				// A refusal hands back its slot too; the caller keeps both.
				if out[i], err = s.ExplainCtx(ctx, tup); err != nil && !errors.Is(err, context.Canceled) {
					return nil, err
				}
			}
			return out, nil
		},
	}
	for name, run := range runners {
		t.Run(name, func(t *testing.T) {
			// The uncancelled run: where each tuple's first call falls.
			rec := obs.NewRecorder()
			opts := smallOpts(LIME, 96)
			opts.StreamRecompute = 4
			opts.Recorder = rec
			if _, err := run(context.Background(), env.cls, opts); err != nil {
				t.Fatal(err)
			}
			events := rec.Events()
			cuts, calls := []int64{1}, int64(0)
			for _, e := range events {
				if e.Type == obs.EventTupleExplained && e.Fresh > 0 {
					cuts = append(cuts, calls+1)
				}
				if e.Type == obs.EventTupleExplained || e.Type == obs.EventPreLabel {
					calls += e.Fresh
				}
			}
			if len(cuts) < len(env.tuples)/2 {
				t.Fatalf("only %d cut points for %d tuples: the run reuses too much for the test to mean anything", len(cuts), len(env.tuples))
			}
			opts.Recorder = nil
			for _, after := range cuts {
				ctx, cancel := context.WithCancel(context.Background())
				out, err := run(ctx, &cancelAfter{inner: env.cls, cancel: cancel, after: after}, opts)
				cancel()
				if err != nil {
					t.Fatalf("cancel at call %d: %v", after, err)
				}
				if len(out) != len(env.tuples) {
					t.Fatalf("cancel at call %d: %d slots for %d tuples", after, len(out), len(env.tuples))
				}
				failed := 0
				for i, e := range out {
					if e.Status == StatusOK && e.Attribution == nil && e.Rule == nil {
						t.Errorf("cancel at call %d: slot %d is StatusOK with no payload", after, i)
					}
					if e.Status == StatusFailed {
						failed++
					}
				}
				if failed == 0 {
					t.Errorf("cancel at call %d failed no tuple: the cut missed the run", after)
				}
			}
		})
	}
}

// explanations unwraps a cancelled run's partial result.
func explanations(res *Result, err error) ([]Explanation, error) {
	if res == nil {
		return nil, err
	}
	return res.Explanations, nil
}

// TestFinished: the filter keeps exactly the pairs whose status is not
// StatusFailed, tuples and explanations in step.
func TestFinished(t *testing.T) {
	tuples := [][]float64{{0}, {1}, {2}, {3}}
	exps := []Explanation{
		{Attribution: &explain.Attribution{}},
		{Rule: &explain.Rule{}, Status: StatusDegraded},
		{Status: StatusFailed},
		{Attribution: &explain.Attribution{}, Status: StatusFailed}, // cut mid-tuple: fallback labels, not an answer
	}
	ts, es := Finished(tuples, exps)
	if len(ts) != 2 || len(es) != 2 || ts[0][0] != 0 || ts[1][0] != 1 || es[1].Status != StatusDegraded {
		t.Fatalf("Finished kept tuples %v, explanations %v; want the ok and the degraded pair", ts, es)
	}
}
