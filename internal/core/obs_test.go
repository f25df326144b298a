package core

import (
	"testing"

	"shahin/internal/obs"
)

// collectNames flattens a span dump forest into the set of span names.
func collectNames(dumps []*obs.SpanDump, into map[string]int) {
	for _, d := range dumps {
		into[d.Name]++
		collectNames(d.Children, into)
	}
}

// TestBatchRecorderAcceptance is the observability acceptance check: a
// Batch run with a recorder attached must produce a span tree covering
// mining, pool construction, pre-labelling, and the explain loop, and
// the recorder's invocation counter must agree exactly with the run's
// Report (every Predict call flows through the same hook).
func TestBatchRecorderAcceptance(t *testing.T) {
	env := newEnv(t, 11, 40)
	opts := smallOpts(LIME, 12)
	rec := obs.NewRecorder()
	opts.Recorder = rec

	b, err := NewBatch(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAll(env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report

	names := map[string]int{}
	collectNames(rec.Trace(), names)
	for _, stage := range []string{obs.StageBatch, obs.StageMine, obs.StagePoolBuild, obs.StagePreLabel, obs.StageExplain} {
		if names[stage] == 0 {
			t.Errorf("span tree missing stage %q (got %v)", stage, names)
		}
	}

	if got := rec.Counter(obs.CounterInvocations).Value(); got != rep.Invocations {
		t.Errorf("recorder invocations = %d, report says %d", got, rep.Invocations)
	}
	if got := rec.Counter(obs.CounterPoolInvocations).Value(); got != rep.PoolInvocations {
		t.Errorf("recorder pool invocations = %d, report says %d", got, rep.PoolInvocations)
	}
	if got := rec.Counter(obs.CounterReusedSamples).Value(); got != rep.ReusedSamples {
		t.Errorf("recorder reused samples = %d, report says %d", got, rep.ReusedSamples)
	}
	if got := rec.Counter(obs.CounterTuplesDone).Value(); got != int64(rep.Tuples) {
		t.Errorf("tuples done = %d, want %d", got, rep.Tuples)
	}
	if got := rec.Gauge(obs.GaugeTuplesTotal).Value(); got != int64(rep.Tuples) {
		t.Errorf("tuples total gauge = %d, want %d", got, rep.Tuples)
	}

	if got := rec.Histogram(obs.HistPredict).Count(); got != rep.Invocations {
		t.Errorf("predict histogram count = %d, want %d", got, rep.Invocations)
	}
	if got := rec.Histogram(obs.HistExplainTuple).Count(); got != int64(rep.Tuples) {
		t.Errorf("explain histogram count = %d, want %d", got, rep.Tuples)
	}

	// The batch root and its explain child carry positive durations.
	for _, root := range rec.Trace() {
		if root.Name != obs.StageBatch {
			continue
		}
		if root.DurMS <= 0 {
			t.Errorf("batch span duration = %vms", root.DurMS)
		}
		for _, c := range root.Children {
			if c.Name == obs.StageExplain && c.DurMS <= 0 {
				t.Errorf("explain span duration = %vms", c.DurMS)
			}
		}
	}
}

// TestBatchRecorderMatchesBare proves instrumentation does not change
// results: the same seeded run with and without a recorder must produce
// identical explanations and invocation counts.
func TestBatchRecorderMatchesBare(t *testing.T) {
	env := newEnv(t, 13, 30)

	run := func(rec *obs.Recorder) *Result {
		opts := smallOpts(LIME, 14)
		opts.Recorder = rec
		b, err := NewBatch(env.st, env.cls, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.ExplainAll(env.tuples)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	bare := run(nil)
	instrumented := run(obs.NewRecorder())
	if bare.Report.Invocations != instrumented.Report.Invocations {
		t.Errorf("invocations differ: bare %d vs instrumented %d",
			bare.Report.Invocations, instrumented.Report.Invocations)
	}
	if len(bare.Explanations) != len(instrumented.Explanations) {
		t.Fatal("explanation counts differ")
	}
	for i := range bare.Explanations {
		a, b := bare.Explanations[i].Attribution, instrumented.Explanations[i].Attribution
		for j := range a.Weights {
			if a.Weights[j] != b.Weights[j] {
				t.Fatalf("tuple %d weight %d differs: %v vs %v", i, j, a.Weights[j], b.Weights[j])
			}
		}
	}
}

// TestParallelBatchRecorderRace exercises a parallel ExplainAll with a
// live recorder; under -race it proves the shared counters, histograms,
// and span tree are goroutine-safe, and the counter/report agreement
// holds across workers.
func TestParallelBatchRecorderRace(t *testing.T) {
	env := newEnv(t, 17, 64)
	opts := smallOpts(LIME, 18)
	opts.Workers = 4
	rec := obs.NewRecorder()
	opts.Recorder = rec

	b, err := NewBatch(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAll(env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if got := rec.Counter(obs.CounterInvocations).Value(); got != rep.Invocations {
		t.Errorf("parallel run: recorder invocations = %d, report says %d", got, rep.Invocations)
	}
	if got := rec.Counter(obs.CounterTuplesDone).Value(); got != int64(rep.Tuples) {
		t.Errorf("parallel run: tuples done = %d, want %d", got, rep.Tuples)
	}
	if got := rec.Counter(obs.CounterReusedSamples).Value(); got != rep.ReusedSamples {
		t.Errorf("parallel run: reused = %d, report says %d", got, rep.ReusedSamples)
	}
	if got := rec.Histogram(obs.HistExplainTuple).Count(); got != int64(rep.Tuples) {
		t.Errorf("parallel run: explain histogram count = %d, want %d", got, rep.Tuples)
	}
}

// TestStreamRecorder checks the streaming variant: each tuple is a
// "stream" root span, re-mine children appear as itemsets are
// recomputed, and the live counters must track the report.
func TestStreamRecorder(t *testing.T) {
	env := newEnv(t, 19, 50)
	opts := smallOpts(LIME, 20)
	opts.StreamRecompute = 20 // force at least two re-mines over 50 tuples
	rec := obs.NewRecorder()
	opts.Recorder = rec

	s, err := NewStream(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, tup := range env.tuples {
		if _, err := s.Explain(tup); err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
	}
	rep := s.Report()

	names := map[string]int{}
	collectNames(rec.Trace(), names)
	if names[obs.StageStream] == 0 {
		t.Errorf("missing stream root span (got %v)", names)
	}
	if names[obs.StageRemine] < 2 {
		t.Errorf("expected >= 2 re-mine spans, got %d (%v)", names[obs.StageRemine], names)
	}
	if got := rec.Counter(obs.CounterInvocations).Value(); got != rep.Invocations {
		t.Errorf("stream: recorder invocations = %d, report says %d", got, rep.Invocations)
	}
	if got := rec.Counter(obs.CounterTuplesDone).Value(); got != int64(rep.Tuples) {
		t.Errorf("stream: tuples done = %d, want %d", got, rep.Tuples)
	}
	// PoolInvocations accumulates deltas across materialisations; it must
	// match the live counter and stay a strict subset of all invocations.
	if got := rec.Counter(obs.CounterPoolInvocations).Value(); got != rep.PoolInvocations {
		t.Errorf("stream: recorder pool invocations = %d, report says %d", got, rep.PoolInvocations)
	}
	if rep.PoolInvocations <= 0 || rep.PoolInvocations >= rep.Invocations {
		t.Errorf("stream: pool invocations = %d of %d total", rep.PoolInvocations, rep.Invocations)
	}
}
