package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"shahin/internal/explain"
	"shahin/internal/obs"
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
	// Fire a few tuples into the explain phase: past the pool build
	// (≈ pooled itemsets × τ calls) plus a few hundred per-tuple samples.
	cls := &cancelAfter{inner: env.cls, cancel: cancel, after: 2500}
	b, err := NewBatch(env.st, cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAllCtx(ctx, env.tuples)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
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
	cls := &cancelAfter{inner: env.cls, cancel: cancel, after: 3000}
	b, err := NewBatch(env.st, cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAllCtx(ctx, env.tuples)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
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
	cls := &cancelAfter{inner: slow, cancel: cancel, after: 3000}
	b, err := NewBatch(env.st, cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := b.ExplainAllCtx(ctx, env.tuples)
	took := time.Since(start)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	checkPartial(t, res, len(env.tuples))
	// Full run ≈ 40 tuples × 300 samples × 50µs = 600ms of classifier
	// time alone; a prompt cancellation at call 3000 should cut well
	// below half of it even on a slow CI box.
	if took > 2*time.Second {
		t.Errorf("cancelled run took %v", took)
	}
}

// checkPoolLabels asserts that every sample a persistent pool holds
// carries the label the classifier gives its row — none stored from the
// degradation ladder's guesses.
func checkPoolLabels(t *testing.T, ps *poolState, cls rf.Classifier) {
	t.Helper()
	for _, key := range ps.repo.Keys() {
		samples, _ := ps.repo.Get(key)
		for i, s := range samples {
			if want := cls.Predict(s.Row); s.Label != want {
				t.Fatalf("pooled sample %d of an itemset is labelled %d, the classifier says %d", i, s.Label, want)
			}
		}
	}
}

// healing is one long-lived runner as TestCancelledRenewHeals drives it.
type healing struct {
	ps *poolState
	// calls hands the runner its next tuples — one flush, or one Explain
	// per tuple with ctx on the last — calling arm just before the call
	// that takes ctx, and reports how many of them came back StatusFailed.
	calls func(ctx context.Context, arm func(), tuples [][]float64) (failed int, err error)
	// renews is the runner's own count (Remines, Mines); frequent what
	// its report says is pooled.
	renews, frequent func() int
}

// TestCancelledRenewHeals is the rule poolState.renew keeps for both
// long-lived runners: a refresh cut short keeps its window and is not
// counted; the next call finishes it, and the pool equals that of a twin
// that was never interrupted. The cut is made from inside the classifier
// while the third itemset of the first pool build is being labelled
// (τ = 50: label 120 is that itemset's 20th): the refresh must stop there
// rather than label every remaining itemset by fallback, and what must
// not happen afterwards is the pool staying three itemsets large — one of
// them guessed — until the runner's clock next runs out.
func TestCancelledRenewHeals(t *testing.T) {
	env := newEnv(t, 7, 80)
	warm := func(cls rf.Classifier, opts Options) (*healing, error) {
		w, err := NewWarm(env.st, cls, opts, 0)
		if err != nil {
			return nil, err
		}
		var last Report
		return &healing{
			ps: w.ps,
			calls: func(ctx context.Context, arm func(), tuples [][]float64) (int, error) {
				arm()
				res, err := w.ExplainAllCtx(ctx, tuples)
				last = res.Report
				return last.Failed, err
			},
			renews:   w.Remines,
			frequent: func() int { return last.FrequentItemsets },
		}, nil
	}
	stream := func(cls rf.Classifier, opts Options) (*healing, error) {
		s, err := NewStream(env.st, cls, opts)
		if err != nil {
			return nil, err
		}
		return &healing{
			ps: s.ps,
			calls: func(ctx context.Context, arm func(), tuples [][]float64) (int, error) {
				for _, tup := range tuples[:len(tuples)-1] {
					if _, err := s.Explain(tup); err != nil {
						return 0, err
					}
				}
				arm()
				exp, err := s.ExplainCtx(ctx, tuples[len(tuples)-1])
				if exp.Status == StatusFailed {
					return 1, err
				}
				return 0, err
			},
			renews:   s.Mines,
			frequent: func() int { return s.Report().FrequentItemsets },
		}, nil
	}
	for _, row := range []struct {
		name string
		open func(rf.Classifier, Options) (*healing, error)
		// The cut lands in the call over tuples[:cut], the healing call
		// takes tuples[cut:all], and the twin sees tuples[:all] in one
		// call that renews once: the same window.
		cut, all   int
		tune       func(o *Options, twin bool)
		wantFailed int
		wantErr    error
	}{
		{"warm", warm, 40, 80, func(*Options, bool) {}, 40, context.Canceled},
		{"stream", stream, 20, 21, func(o *Options, twin bool) {
			o.DisablePoolBudget = true // the twin's period differs by one; keep the caps equal
			o.StreamRecompute = 20
			if twin {
				o.StreamRecompute = 21
			}
		}, 1, nil},
	} {
		t.Run(row.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cls := &cancelAfter{inner: env.cls, cancel: cancel}
			opts := smallOpts(LIME, 9)
			opts.Recorder = obs.NewRecorder()
			row.tune(&opts, false)
			h, err := row.open(cls, opts)
			if err != nil {
				t.Fatal(err)
			}
			failed, err := h.calls(ctx, func() { cls.after = cls.n.Load() + 120 }, env.tuples[:row.cut])
			if !errors.Is(err, row.wantErr) || failed != row.wantFailed {
				t.Fatalf("the call cut short: %d tuples failed, err=%v; want %d, %v", failed, err, row.wantFailed, row.wantErr)
			}
			if h.renews() != 0 {
				t.Errorf("a refresh cut short was counted (%d)", h.renews())
			}
			if got := len(h.ps.window); got != row.cut {
				t.Errorf("a refresh cut short left %d of its %d tuples in the window", got, row.cut)
			}
			if _, err := h.calls(context.Background(), func() {}, env.tuples[row.cut:row.all]); err != nil {
				t.Fatal(err)
			}

			twinOpts := smallOpts(LIME, 9)
			twinOpts.Recorder = obs.NewRecorder()
			row.tune(&twinOpts, true)
			twin, err := row.open(env.cls, twinOpts)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := twin.calls(context.Background(), func() {}, env.tuples[:row.all]); err != nil {
				t.Fatal(err)
			}
			if got, want := h.ps.repo.Len(), twin.ps.repo.Len(); got != want || want == 0 {
				t.Errorf("%d itemsets pooled after the healing call, the uninterrupted twin has %d", got, want)
			}
			if got, want := h.frequent(), twin.frequent(); got != want {
				t.Errorf("FrequentItemsets=%d after the healing call, the uninterrupted twin has %d", got, want)
			}
			if h.renews() != 1 {
				t.Errorf("%d renews counted after the healing call, want 1", h.renews())
			}
			if got := len(h.ps.window); got != 0 {
				t.Errorf("the renew that healed left %d tuples behind; a complete one starts a new window", got)
			}
			// Each refresh that mined is on the record, finished or not.
			if got, want := sumEvents(t, opts.Recorder).remines, 2; got != want {
				t.Errorf("%d remine events, want %d: the one cut short and the one that healed it", got, want)
			}
			if got := sumEvents(t, twinOpts.Recorder).remines; got != 1 {
				t.Errorf("the twin logged %d remine events, want 1", got)
			}
			checkPoolLabels(t, h.ps, env.cls)
		})
	}
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
		"dist": func(ctx context.Context, cls rf.Classifier, opts Options) ([]Explanation, error) {
			return explanations(DistCtx(ctx, env.st, cls, opts, env.tuples, 3))
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
			events, _ := rec.Events()
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
