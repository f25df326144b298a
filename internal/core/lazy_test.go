package core

import (
	"context"
	"slices"
	"testing"
	"time"

	"shahin/internal/dataset"
	"shahin/internal/fault"
	"shahin/internal/obs"
	"shahin/internal/rf"
)

// fillRun is one fill a lazy stream ran: an itemset the repository did
// not hold, labelled in the middle of a tuple.
type fillRun struct {
	set    dataset.Itemset
	stored bool
	renew  int   // Mines() when it ran
	tuple  int   // the tuple that triggered it
	first  int64 // predictions the meter had passed down before it
	calls  int64 // predictions it made
	// degraded is how many of them the ladder answered (with a recorder).
	degraded int64
	took     time.Duration // what the fill reported it took
}

// fillWatch records a lazy stream's fills and counts every prediction
// through its meter, so a test can take a tuple's fills out of the
// tuple and see what is left.
type fillWatch struct {
	calls int64
	fills []fillRun
}

// countCalls counts the predictions the meter passes down.
type countCalls struct {
	rf.Classifier
	n *int64
}

func (c countCalls) Predict(x []float64) int {
	*c.n++
	return c.Classifier.Predict(x)
}

// watchFills wraps s's fill and the classifier under its meter.
func watchFills(s *Stream) *fillWatch {
	w := &fillWatch{}
	m := s.eng.cls
	m.Classifier = countCalls{m.Classifier, &w.calls}
	degraded := s.opts.Recorder.Counter(obs.CounterDegradedAnswers)
	fill := s.ps.pool.fill
	s.ps.pool.fill = func(set dataset.Itemset) (time.Duration, bool) {
		if s.ps.repo.Contains(set.Key()) {
			return fill(set)
		}
		calls, deg := w.calls, degraded.Value()
		d, ok := fill(set)
		if w.calls > calls { // one that asked nothing found the context dead and skipped
			w.fills = append(w.fills, fillRun{set: set, stored: ok, renew: s.Mines(), tuple: s.rep.Tuples,
				first: calls, calls: w.calls - calls, degraded: degraded.Value() - deg, took: d})
		}
		return d, ok
	}
	return w
}

// pooled reports whether set is one of the pool's itemsets.
func pooled(ps *poolState, set dataset.Itemset) bool {
	return slices.ContainsFunc(ps.sets, func(s dataset.Itemset) bool { return slices.Equal(s, set) })
}

// TestStreamFillsAtFirstMatch: a stream's refresh and its border
// promotions label nothing; every classifier call its pool makes is a
// fill of τ, made for a tuple that
// contains the itemset and served at least one of its samples to that
// tuple, and the fills are fewer than the itemsets the stream mined. A
// fill's time is its own: the tuple's duration and its fills' fit in the
// wall time of the call. Finding an itemset unfilled is not a cache
// miss (LIME asks the pool only through ForTuple).
func TestStreamFillsAtFirstMatch(t *testing.T) {
	env := newEnv(t, 7, 120)
	for _, tc := range []struct {
		name           string
		kind           Kind
		recompute, tau int
		wantPromotions bool
	}{
		{"LIME", LIME, 20, 50, false},
		{"SHAP", SHAP, 20, 50, false},
		// A 60-tuple period reaches the 50-tuple window promotion needs,
		// and a small τ leaves the cap room to promote.
		{"LIME-border", LIME, 60, 20, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			kind := tc.kind
			opts := smallOpts(kind, 9)
			opts.StreamRecompute, opts.Tau = tc.recompute, tc.tau
			opts.Recorder = obs.NewRecorder()
			s, err := NewStream(env.st, env.cls, opts)
			if err != nil {
				t.Fatal(err)
			}
			w := watchFills(s)
			mined, promoted := 0, 0
			for i, tup := range env.tuples {
				renews, explained, fills, t0 := s.Mines(), s.rep.ExplainTime, len(w.fills), time.Now()
				sets, cov := len(s.ps.sets), len(s.ps.cov)
				if _, err := s.Explain(tup); err != nil {
					t.Fatal(err)
				}
				wall, charged := time.Since(t0), s.rep.ExplainTime-explained
				for _, f := range w.fills[fills:] {
					charged += f.took
				}
				if charged > wall {
					t.Errorf("tuple %d and its fills are charged %v, the call took %v", i, charged, wall)
				}
				if s.Mines() > renews || len(s.ps.cov) != cov { // a renew or a warm-up mine
					mined += len(s.ps.sets)
				} else {
					promoted += len(s.ps.sets) - sets
				}
				items := env.st.ItemizeRow(tup, nil)
				for _, f := range w.fills {
					if f.tuple != i {
						continue
					}
					if !f.stored || !f.set.ContainsAll(items) {
						t.Errorf("tuple %d: fill of %v stored=%t, contained=%t", i, f.set, f.stored, f.set.ContainsAll(items))
					}
					if s.ps.pool.cursors[f.set.Key()] == 0 {
						t.Errorf("tuple %d filled %v and was served none of it", i, f.set)
					}
				}
			}
			rep := s.Report()
			if len(w.fills) == 0 || rep.ReusedSamples == 0 {
				t.Fatalf("%d fills, %d samples reused: the run never pooled", len(w.fills), rep.ReusedSamples)
			}
			if want := int64(opts.Tau * len(w.fills)); rep.PoolInvocations != want {
				t.Errorf("PoolInvocations=%d for %d fills of τ=%d, want %d", rep.PoolInvocations, len(w.fills), opts.Tau, want)
			}
			if len(w.fills) >= mined {
				t.Errorf("%d fills for %d mined itemsets: nothing was left unlabelled", len(w.fills), mined)
			}
			if tc.wantPromotions && promoted == 0 {
				t.Error("no border itemset was promoted: the case does not exercise promotion")
			}
			if kind == LIME && rep.Cache.Misses != 0 {
				t.Errorf("%d cache misses: an unfilled itemset was looked up, not filled", rep.Cache.Misses)
			}
			reconcile(t, sumEvents(t, opts.Recorder), rep)
		})
	}
}

// TestStreamRefusedFill: a fill with a label the classifier did not give
// — the backend failing under goldenFaults or a short outage, or the
// tuple's context cancelled mid-fill — stores nothing, takes its itemset
// out of the pool and is not run again before the next renew, and the
// tuple it ran in is charged and marked as if it had not run: its Fresh
// is its own calls, its Status that of its own answers.
func TestStreamRefusedFill(t *testing.T) {
	env := newEnv(t, 7, 120)
	// shortOutage fails five labels in the middle of the last fill of the
	// first tuple a fault-free period-20 stream fills for, with no retry
	// and no breaker, so nothing else that tuple asks fails.
	shortOutage := func(t *testing.T) *fault.Config {
		opts := smallOpts(LIME, 9)
		opts.StreamRecompute = 20
		opts.Recorder = obs.NewRecorder()
		s, err := NewStream(env.st, env.cls, opts)
		if err != nil {
			t.Fatal(err)
		}
		w := watchFills(s)
		for _, tup := range env.tuples {
			if _, err := s.Explain(tup); err != nil {
				t.Fatal(err)
			}
			if n := len(w.fills); n > 0 {
				return &fault.Config{OutageStart: w.fills[n-1].first + 10, OutageCalls: 5, BreakerThreshold: -1}
			}
		}
		t.Fatal("the stream never filled")
		return nil
	}
	for _, tc := range []struct {
		name string
		// cut, when set, is the tuple explained under a context the
		// classifier cancels at the 20th label of the tuple's first fill.
		cut   int
		fault func(*testing.T) *fault.Config
		// recompute is the stream's period: at 10, the goldenFaults
		// outage lands in fills.
		recompute int
	}{
		{name: "faults", fault: func(*testing.T) *fault.Config { return goldenFaults(13) }, recompute: 10},
		{name: "outage", fault: shortOutage, recompute: 20},
		{name: "cancelled", cut: 19, recompute: 20},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			cls := &cancelAfter{inner: env.cls, cancel: cancel}
			opts := smallOpts(LIME, 9)
			opts.StreamRecompute = tc.recompute
			opts.Recorder = obs.NewRecorder()
			if tc.fault != nil {
				opts.Fault = tc.fault(t)
			}
			s, err := NewStream(env.st, cls, opts)
			if err != nil {
				t.Fatal(err)
			}
			w := watchFills(s)
			degraded := opts.Recorder.Counter(obs.CounterDegradedAnswers)
			refused := 0
			for i, tup := range env.tuples {
				tctx, calls, deg, fills := context.Background(), w.calls, degraded.Value(), len(w.fills)
				if tc.cut > 0 && i == tc.cut {
					tctx, cls.after = ctx, cls.n.Load()+21
				}
				exp, err := s.ExplainCtx(tctx, tup)
				if err != nil {
					t.Fatal(err)
				}
				own, ownDegraded := w.calls-calls, degraded.Value()-deg
				for _, f := range w.fills[fills:] {
					own, ownDegraded = own-f.calls, ownDegraded-f.degraded
				}
				events := opts.Recorder.Events()
				if ev := events[len(events)-1]; ev.Type != obs.EventTupleExplained || ev.Fresh != own {
					t.Fatalf("tuple %d: last event %s with fresh=%d, want tuple_explained with its own %d calls", i, ev.Type, ev.Fresh, own)
				}
				want := StatusOK
				switch {
				case i == tc.cut && tc.cut > 0:
					want = StatusFailed
				case ownDegraded > 0:
					want = StatusDegraded
				}
				if exp.Status != want {
					t.Errorf("tuple %d: status %v, its own answers say %v", i, exp.Status, want)
				}
				// Past the cut the context is dead: the tuple's other
				// itemsets are left for a later tuple, not guessed at.
				if i == tc.cut && tc.cut > 0 && len(w.fills) != fills+1 {
					t.Errorf("the cut tuple ran %d fills, want only the one cut short", len(w.fills)-fills)
				}
				// A refused itemset stays out until the next renew, and is
				// not labelled again meanwhile.
				for j, f := range w.fills {
					if f.stored || f.renew != s.Mines() {
						continue
					}
					if j >= fills && f.calls == int64(opts.Tau) {
						refused++
					}
					if s.ps.repo.Contains(f.set.Key()) || pooled(s.ps, f.set) {
						t.Errorf("tuple %d: %v, refused at tuple %d, is pooled again before the next renew", i, f.set, f.tuple)
					}
					for _, g := range w.fills[j+1:] {
						if g.renew == f.renew && slices.Equal(g.set, f.set) {
							t.Errorf("%v, refused at tuple %d, was filled again at tuple %d in the same window", f.set, f.tuple, g.tuple)
						}
					}
				}
			}
			if refused == 0 {
				t.Fatal("no fill was refused: the run does not exercise the rule")
			}
			rep := s.Report()
			if want := int64(opts.Tau * len(w.fills)); rep.PoolInvocations != want {
				t.Errorf("PoolInvocations=%d for %d fills, want %d", rep.PoolInvocations, len(w.fills), want)
			}
			reconcile(t, sumEvents(t, opts.Recorder), rep)
			checkPoolLabels(t, s.ps, env.cls)
		})
	}
}
