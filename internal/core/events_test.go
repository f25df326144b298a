package core

import (
	"context"
	"fmt"
	"math"
	"testing"
	"time"

	"shahin/internal/obs"
)

// eventSums aggregates an event log into the totals the reconciliation
// identities are stated over.
type eventSums struct {
	explained       int
	explainedFresh  int64
	explainedPooled int64
	explainedVisits int64
	matched         int // tuple events that name the itemset that served them
	preLabelFresh   int64
	poolBuilds      int
	remines         int
}

func sumEvents(t *testing.T, rec *obs.Recorder) eventSums {
	t.Helper()
	events := rec.Events()
	if dropped := rec.Counter(obs.CounterEventsDropped).Value(); dropped != 0 {
		t.Fatalf("event log dropped %d events; raise capacity for this test", dropped)
	}
	var s eventSums
	for _, e := range events {
		switch e.Type {
		case obs.EventTupleExplained, obs.EventExactShap:
			s.explained++
			s.explainedFresh += e.Fresh
			s.explainedPooled += e.Pooled
			s.explainedVisits += e.NodeVisits
			if e.Itemset != "" {
				s.matched++
			}
			if e.Tuple < 0 {
				t.Errorf("%s with tuple %d", e.Type, e.Tuple)
			}
			// The time identity: the stages on the event are the whole
			// of its duration (DurMS is the same nanoseconds, as float
			// milliseconds).
			if e.Stages == nil {
				t.Errorf("%s for tuple %d lacks a stage breakdown", e.Type, e.Tuple)
			} else if got, want := e.Stages.Total(), time.Duration(math.Round(e.DurMS*1e6)); got != want {
				t.Errorf("tuple %d: stages sum to %v, duration is %v", e.Tuple, got, want)
			}
		case obs.EventPreLabel:
			s.preLabelFresh += e.Fresh
		case obs.EventPoolBuild:
			s.poolBuilds++
		case obs.EventRemine:
			s.remines++
		}
	}
	return s
}

// reconcile checks the provenance identities that tie the event log to
// the cost report: per-tuple fresh samples account for every classifier
// invocation outside pool pre-labelling, per-tuple pooled samples
// account for every reused sample, and pre-label events account for the
// pool's invocations — so summed event samples equal
// Invocations + ReusedSamples exactly.
func reconcile(t *testing.T, s eventSums, rep Report) {
	t.Helper()
	if s.explained != rep.Tuples {
		t.Errorf("%d tuple events for %d tuples", s.explained, rep.Tuples)
	}
	if want := rep.Invocations - rep.PoolInvocations; s.explainedFresh != want {
		t.Errorf("sum of per-tuple fresh samples = %d, want Invocations-PoolInvocations = %d", s.explainedFresh, want)
	}
	if s.explainedPooled != rep.ReusedSamples {
		t.Errorf("sum of per-tuple pooled samples = %d, want ReusedSamples = %d", s.explainedPooled, rep.ReusedSamples)
	}
	if s.explainedVisits != rep.NodeVisits {
		t.Errorf("sum of per-tuple node visits = %d, want NodeVisits = %d", s.explainedVisits, rep.NodeVisits)
	}
	if s.preLabelFresh != rep.PoolInvocations {
		t.Errorf("sum of pre_label fresh samples = %d, want PoolInvocations = %d", s.preLabelFresh, rep.PoolInvocations)
	}
	if got, want := s.explainedFresh+s.explainedPooled+s.preLabelFresh, rep.Invocations+rep.ReusedSamples; got != want {
		t.Errorf("event-accounted samples = %d, want Invocations+ReusedSamples = %d", got, want)
	}
}

// reconcileCosts checks that a report is the fold of the per-tuple cost
// records returned beside it, and that each record's stages are the
// whole of its duration.
func reconcileCosts(t *testing.T, costs []Cost, rep Report) {
	t.Helper()
	if len(costs) != rep.Tuples {
		t.Fatalf("%d cost records for %d tuples", len(costs), rep.Tuples)
	}
	var sum Cost
	for i, c := range costs {
		sum.Fresh += c.Fresh
		sum.Pooled += c.Pooled
		sum.NodeVisits += c.NodeVisits
		if c.Stages.Total() != c.Duration || c.Duration <= 0 {
			t.Errorf("tuple %d: stages %+v sum to %v, duration is %v", i, c.Stages, c.Stages.Total(), c.Duration)
		}
		if c.Stages.QueueWait != 0 || c.Stages.BatchAssembly != 0 {
			t.Errorf("tuple %d: core charged serving-only stages %+v", i, c.Stages)
		}
	}
	if want := rep.Invocations - rep.PoolInvocations; sum.Fresh != want {
		t.Errorf("sum of record fresh = %d, want Invocations-PoolInvocations = %d", sum.Fresh, want)
	}
	if sum.Pooled != rep.ReusedSamples || sum.NodeVisits != rep.NodeVisits {
		t.Errorf("records sum to pooled=%d visits=%d, report has %d and %d", sum.Pooled, sum.NodeVisits, rep.ReusedSamples, rep.NodeVisits)
	}
}

// reconcileCounters checks the recorder's live counters against the
// report: both are folds of the same records.
func reconcileCounters(t *testing.T, rec *obs.Recorder, rep Report) {
	t.Helper()
	for _, m := range []struct {
		name      string
		got, want int64
	}{
		{obs.CounterInvocations, rec.Counter(obs.CounterInvocations).Value(), rep.Invocations},
		{obs.CounterPoolInvocations, rec.Counter(obs.CounterPoolInvocations).Value(), rep.PoolInvocations},
		{obs.CounterReusedSamples, rec.Counter(obs.CounterReusedSamples).Value(), rep.ReusedSamples},
		{obs.CounterTuplesDone, rec.Counter(obs.CounterTuplesDone).Value(), int64(rep.Tuples)},
		{obs.HistExplainTuple, rec.Histogram(obs.HistExplainTuple).Count(), int64(rep.Tuples)},
	} {
		if m.got != m.want {
			t.Errorf("recorder %s = %d, report says %d", m.name, m.got, m.want)
		}
	}
}

// ledger is what one reconciliation run hands back: the report the whole
// event log must reconcile with, and every (report, per-tuple costs)
// pair a runner returned on the way — one for the batch-style runners,
// one per flush for Warm, none for Stream, which returns no Result.
type ledger struct {
	total Report
	parts []*Result
}

func oneResult(res *Result, err error) (ledger, error) {
	if err != nil {
		return ledger{}, err
	}
	return ledger{total: res.Report, parts: []*Result{res}}, nil
}

// TestEventReconciliation is the end-to-end provenance acceptance check,
// one row per runner: the event log, the recorder's counters and the
// returned cost records each reconcile with the report, and every
// tuple's stages sum to its duration.
func TestEventReconciliation(t *testing.T) {
	rows := []struct {
		name    string
		seed    int64
		n       int
		exact   bool // explain with ExactSHAP over an owned forest
		prepare func(*Options)
		run     func(env *testEnv, opts Options) (ledger, error)
		// reuse demands the run reused samples, or the row is vacuous;
		// matched that some tuple event names the itemset that served it.
		reuse, matched bool
		// poolBuilds is how many pool_build events the run must log
		// exactly (-1: at least one); remines that re_mine events appear.
		poolBuilds int
		remines    bool
	}{
		{name: "batch", seed: 31, n: 40, reuse: true, matched: true, poolBuilds: 1,
			run: func(env *testEnv, opts Options) (ledger, error) {
				b, err := NewBatch(env.st, env.cls, opts)
				if err != nil {
					return ledger{}, err
				}
				return oneResult(b.ExplainAll(env.tuples))
			}},
		// The baseline: no pool, so every invocation is a per-tuple
		// fresh sample.
		{name: "sequential", seed: 33, n: 25,
			run: func(env *testEnv, opts Options) (ledger, error) {
				return oneResult(SequentialCtx(context.Background(), env.st, env.cls, opts, env.tuples))
			}},
		// Forced re-mines, so fills and reuse both happen mid-stream. A
		// stream's refresh labels nothing, so it logs no pool_build: each
		// fill is a pre_label event of its own, in the middle of a tuple.
		{name: "stream", seed: 35, n: 60, reuse: true, poolBuilds: 0, remines: true,
			prepare: func(o *Options) { o.StreamRecompute = 20 },
			run: func(env *testEnv, opts Options) (ledger, error) {
				st, err := NewStream(env.st, env.cls, opts)
				if err != nil {
					return ledger{}, err
				}
				for i, tup := range env.tuples {
					if _, err := st.Explain(tup); err != nil {
						return ledger{}, fmt.Errorf("tuple %d: %w", i, err)
					}
				}
				return ledger{total: st.Report()}, nil
			}},
		// Parallel explain workers hammer the shared event log; under
		// -race this proves Emit is goroutine-safe, and the identities
		// hold when the costs come from per-worker pools and reports.
		{name: "batch-parallel", seed: 37, n: 64, reuse: true, poolBuilds: 1,
			prepare: func(o *Options) { o.Workers = 4 },
			run: func(env *testEnv, opts Options) (ledger, error) {
				b, err := NewBatch(env.st, env.cls, opts)
				if err != nil {
					return ledger{}, err
				}
				return oneResult(b.ExplainAll(env.tuples))
			}},
		// Three flushes across two renews: each flush's report is the
		// fold of its own costs, the cumulative one of the log. A Warm's
		// pool is its stream's, so it logs no pool_build either.
		{name: "warm", seed: 41, n: 60, reuse: true, matched: true, poolBuilds: 0, remines: true,
			run: func(env *testEnv, opts Options) (ledger, error) {
				w, err := NewWarm(env.st, env.cls, opts, 30)
				if err != nil {
					return ledger{}, err
				}
				var l ledger
				for f := 0; f < 3; f++ {
					res, err := w.ExplainAll(env.tuples[20*f : 20*f+20])
					if err != nil {
						return ledger{}, err
					}
					l.parts = append(l.parts, res)
				}
				if w.Remines() != 2 {
					return ledger{}, fmt.Errorf("%d re-mines over three flushes, want 2", w.Remines())
				}
				l.total = w.Report()
				return l, nil
			}},
		// The exact path's unit of work is node visits, one classifier
		// call per tuple, nothing pooled.
		{name: "batch-exact", seed: 47, n: 20, exact: true,
			run: func(env *testEnv, opts Options) (ledger, error) {
				b, err := NewBatch(env.st, env.cls, opts)
				if err != nil {
					return ledger{}, err
				}
				return oneResult(b.ExplainAll(env.tuples))
			}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			env, kind := (*testEnv)(nil), LIME
			if row.exact {
				owned := newExactEnv(t, row.seed, row.n)
				env, kind = &testEnv{st: owned.st, cls: owned.forest, tuples: owned.tuples}, ExactSHAP
			} else {
				env = newEnv(t, row.seed, row.n)
			}
			rec := obs.NewRecorder()
			opts := smallOpts(kind, row.seed+1)
			opts.Recorder = rec
			if row.prepare != nil {
				row.prepare(&opts)
			}
			l, err := row.run(env, opts)
			if err != nil {
				t.Fatal(err)
			}
			if row.reuse && l.total.ReusedSamples == 0 {
				t.Fatal("run reused nothing; reconciliation would be vacuous")
			}
			if row.exact && l.total.NodeVisits == 0 {
				t.Fatal("exact run visited no nodes; reconciliation would be vacuous")
			}
			s := sumEvents(t, rec)
			if row.poolBuilds >= 0 && s.poolBuilds != row.poolBuilds || row.poolBuilds < 0 && s.poolBuilds == 0 {
				t.Errorf("%d pool_build events, want %d (-1: some)", s.poolBuilds, row.poolBuilds)
			}
			if row.remines && s.remines == 0 {
				t.Error("no re_mine events despite forced recomputes")
			}
			if row.matched && s.matched == 0 {
				t.Error("no tuple_explained event carries a matched itemset")
			}
			reconcile(t, s, l.total)
			reconcileCounters(t, rec, l.total)

			var parts Report
			for _, res := range l.parts {
				reconcileCosts(t, res.Costs, res.Report)
				parts.add(res.Report)
			}
			if l.parts != nil && goldenCounts(parts) != goldenCounts(l.total) {
				t.Errorf("the returned reports sum to %s, the total is %s", goldenCounts(parts), goldenCounts(l.total))
			}
		})
	}
}

// TestAnchorEventCacheHits checks the Anchor path reports cache-hit
// provenance (it reuses via shared caches, not the perturbation pool).
func TestAnchorEventCacheHits(t *testing.T) {
	env := newEnv(t, 39, 20)
	rec := obs.NewRecorder()
	opts := smallOpts(Anchor, 40)
	opts.Recorder = rec

	b, err := NewBatch(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAll(env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	events := rec.Events()
	explained, hits := 0, int64(0)
	for _, e := range events {
		if e.Type == obs.EventTupleExplained {
			explained++
			hits += e.CacheHits
		}
	}
	if explained != res.Report.Tuples {
		t.Errorf("%d tuple_explained events for %d tuples", explained, res.Report.Tuples)
	}
	if res.Report.ReusedSamples > 0 && hits == 0 {
		t.Error("anchor reuse happened but no tuple_explained event carries cache hits")
	}
}
