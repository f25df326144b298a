package core

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"shahin/internal/fault"
	"shahin/internal/obs"
)

// chaosFaults is the acceptance fault profile: 5 % transient errors
// under a 5 ms per-call deadline with three retries, plus a hard
// call-indexed outage window that trips the circuit breaker.
func chaosFaults(seed int64) *fault.Config {
	return &fault.Config{
		FailRate:             0.05,
		Seed:                 seed,
		PredictTimeout:       5 * time.Millisecond,
		MaxRetries:           3,
		OutageStart:          800,
		OutageCalls:          300,
		BreakerThreshold:     5,
		BreakerCooldownCalls: 100,
	}
}

// TestChaosBatchNoFailedTuples is the batch acceptance check: under a
// 5 % fault rate every tuple must still be answered (degraded at worst,
// never failed), retries must be visible in the report, and the
// event-reconciliation identity must hold with the bridge in place.
func TestChaosBatchNoFailedTuples(t *testing.T) {
	env := newEnv(t, 61, 40)
	rec := obs.NewRecorder()
	opts := smallOpts(LIME, 62)
	opts.Fault = chaosFaults(63)
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
	if rep.Failed > 0 {
		t.Fatalf("%d tuples failed; the degradation ladder should have answered them", rep.Failed)
	}
	for i, e := range res.Explanations {
		if e.Status == StatusFailed {
			t.Errorf("tuple %d marked failed", i)
		}
		if e.Attribution == nil {
			t.Errorf("tuple %d has no attribution", i)
		}
	}
	if rep.Retries == 0 {
		t.Error("no retries recorded at a 5% fault rate")
	}
	if rep.Degraded == 0 {
		t.Error("the outage window should have degraded some tuples")
	}
	if got := rec.Counter(obs.CounterBreakerOpens).Value(); got == 0 {
		t.Error("the outage window should have opened the breaker")
	}
	if got := rec.Counter(obs.CounterDegradedAnswers).Value(); got == 0 {
		t.Error("no degraded answers counted despite degraded tuples")
	}
	reconcile(t, sumEvents(t, rec), rep)
}

// TestChaosStreamNoFailedTuples is the same acceptance check on the
// streaming path.
func TestChaosStreamNoFailedTuples(t *testing.T) {
	env := newEnv(t, 64, 60)
	opts := smallOpts(LIME, 65)
	opts.Fault = chaosFaults(66)
	opts.StreamRecompute = 15

	s, err := NewStream(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, tup := range env.tuples {
		exp, err := s.Explain(tup)
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if exp.Status == StatusFailed {
			t.Errorf("tuple %d marked failed", i)
		}
	}
	rep := s.Report()
	if rep.Failed > 0 {
		t.Fatalf("%d tuples failed in the stream", rep.Failed)
	}
	if rep.Retries == 0 {
		t.Error("no retries recorded at a 5% fault rate")
	}
}

// TestChaosByteDeterminism: the same fault seed injects the same faults
// at the same calls, so two runs marshal byte-identically.
func TestChaosByteDeterminism(t *testing.T) {
	env := newEnv(t, 67, 30)
	run := func() []byte {
		opts := smallOpts(LIME, 68)
		opts.Fault = chaosFaults(69)
		b, err := NewBatch(env.st, env.cls, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.ExplainAll(env.tuples)
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(res.Explanations)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b := run(), run()
	if string(a) != string(b) {
		t.Fatal("explanations differ across two chaos runs with the same fault seed")
	}
}

// TestFaultDisabledByteIdentical: threading a live (cancellable) context
// with no fault config must not change a single byte of the output —
// the pass-through chain returns exactly the classifier's labels.
func TestFaultDisabledByteIdentical(t *testing.T) {
	env := newEnv(t, 70, 30)
	opts := smallOpts(LIME, 71)

	b, err := NewBatch(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := b.ExplainAll(env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	bridged, err := b.ExplainAllCtx(ctx, env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := json.Marshal(plain.Explanations)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(bridged.Explanations)
	if err != nil {
		t.Fatal(err)
	}
	if string(pj) != string(bj) {
		t.Fatal("bridged (fault-free) run differs from the plain pipeline")
	}
	if plain.Report.Invocations != bridged.Report.Invocations {
		t.Fatalf("invocations differ: plain=%d bridged=%d",
			plain.Report.Invocations, bridged.Report.Invocations)
	}
}

// TestStatusJSONRoundTrip covers the Status wire format, including the
// omitempty contract that keeps infallible output byte-stable.
func TestStatusJSONRoundTrip(t *testing.T) {
	for _, s := range []Status{StatusOK, StatusDegraded, StatusFailed} {
		data, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		var back Status
		if err := json.Unmarshal(data, &back); err != nil {
			t.Fatal(err)
		}
		if back != s {
			t.Errorf("round trip %v -> %s -> %v", s, data, back)
		}
	}
	var legacy Status
	if err := json.Unmarshal([]byte(`""`), &legacy); err != nil || legacy != StatusOK {
		t.Errorf("empty status should parse as ok, got (%v,%v)", legacy, err)
	}
	if err := json.Unmarshal([]byte(`"melted"`), &legacy); err == nil {
		t.Error("unknown status should fail to parse")
	}
	// The zero status must vanish from marshalled explanations (so
	// infallible output is byte-identical to the pre-robustness format),
	// while non-zero statuses must appear.
	data, err := json.Marshal(Explanation{})
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), "status") {
		t.Errorf("zero status leaked into %s", data)
	}
	data, err = json.Marshal(Explanation{Status: StatusDegraded})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"status":"degraded"`) {
		t.Errorf("degraded status missing from %s", data)
	}
}

// TestBridgeFallbackLadder exercises the ladder directly: label cache
// first, then the running majority, and failure when nothing has been
// seen yet.
func TestBridgeFallbackLadder(t *testing.T) {
	env := newEnv(t, 72, 4)
	cfg := fault.Config{FailRate: 1, Seed: 1} // everything fails, no retries
	chain := fault.Build(env.cls, cfg, nil)
	fb := newFallibleBridge(context.Background(), chain, env.st, nil)
	fb.beginTuple()

	// Nothing seen yet: the ladder has no rung and the tuple fails.
	if y := fb.Predict(env.tuples[0]); y != 0 {
		t.Errorf("empty-ladder fallback=%d, want 0", y)
	}
	if fb.status() != StatusFailed {
		t.Errorf("status=%v, want failed", fb.status())
	}

	// Seed the caches through a success, then fail the same row: the
	// exact-row cache answers and the tuple is only degraded.
	fb.beginTuple()
	fb.noteSuccess(env.tuples[1], 1)
	if y := fb.Predict(env.tuples[1]); y != 1 {
		t.Errorf("cached fallback=%d, want 1", y)
	}
	if fb.status() != StatusDegraded {
		t.Errorf("status=%v, want degraded", fb.status())
	}

	// A row never seen exactly falls through to the majority class.
	fb.beginTuple()
	fb.noteSuccess(env.tuples[2], 1)
	if y := fb.Predict(env.tuples[3]); y != 1 {
		t.Errorf("majority fallback=%d, want 1", y)
	}
	if fb.status() != StatusDegraded {
		t.Errorf("status=%v, want degraded", fb.status())
	}
}
