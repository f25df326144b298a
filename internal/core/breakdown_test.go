package core

import (
	"testing"
	"time"

	"shahin/internal/obs"
)

// checkEventStages asserts every tuple_explained event carries a stage
// breakdown free of serving-only stages (core cannot see queueing) and
// that the solve histogram saw the same population. It returns the
// summed solve time across events for cross-checks.
func checkEventStages(t *testing.T, rec *obs.Recorder, wantTuples int) time.Duration {
	t.Helper()
	events := rec.Events()
	stamped, solved := 0, 0
	var eventSolve time.Duration
	for _, e := range events {
		if e.Type != obs.EventTupleExplained {
			continue
		}
		if e.Stages == nil {
			t.Fatalf("tuple_explained for tuple %d lacks a stage breakdown", e.Tuple)
		}
		if e.Stages.QueueWait != 0 || e.Stages.BatchAssembly != 0 {
			t.Errorf("tuple %d: core stamped serving-only stages %+v", e.Tuple, *e.Stages)
		}
		stamped++
		eventSolve += e.Stages.Solve
		if e.Stages.Solve > 0 {
			solved++
		}
	}
	if stamped != wantTuples {
		t.Fatalf("%d stage-stamped events for %d tuples", stamped, wantTuples)
	}
	if solved == 0 {
		t.Error("no tuple attributed any solve time")
	}
	if got := rec.Histogram(obs.HistStageSolve).Snapshot().Count; int(got) != solved {
		t.Errorf("solve histogram count=%d, want %d", got, solved)
	}
	return eventSolve
}

// TestBatchBreakdowns checks latency attribution on the batch pipeline:
// one aligned cost record per tuple, its stages agreeing with the stamps
// on the tuple_explained events and the stage histograms.
func TestBatchBreakdowns(t *testing.T) {
	env := newEnv(t, 51, 30)
	rec := obs.NewRecorder()
	opts := smallOpts(LIME, 52)
	opts.Recorder = rec

	b, err := NewBatch(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAll(env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Costs) != len(res.Explanations) {
		t.Fatalf("%d cost records for %d explanations", len(res.Costs), len(res.Explanations))
	}
	var resultSolve time.Duration
	for i, c := range res.Costs {
		if c.Stages.QueueWait != 0 || c.Stages.BatchAssembly != 0 {
			t.Errorf("tuple %d: core stamped serving-only stages %+v", i, c.Stages)
		}
		resultSolve += c.Stages.Solve
	}
	eventSolve := checkEventStages(t, rec, len(res.Explanations))
	if eventSolve != resultSolve {
		t.Errorf("event solve total %v != result solve total %v", eventSolve, resultSolve)
	}
}

// TestStreamBreakdowns checks the streaming variant keeps stamping
// per-tuple stages onto events across pool rebuilds (stream calls
// return no Result, so events and histograms are the contract).
func TestStreamBreakdowns(t *testing.T) {
	env := newEnv(t, 53, 24)
	rec := obs.NewRecorder()
	opts := smallOpts(LIME, 54)
	opts.Recorder = rec
	opts.StreamRecompute = 8

	s, err := NewStream(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, tuple := range env.tuples {
		if _, err := s.Explain(tuple); err != nil {
			t.Fatal(err)
		}
	}
	checkEventStages(t, rec, len(env.tuples))
}
