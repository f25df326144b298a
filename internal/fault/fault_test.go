package fault

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shahin/internal/obs"
	"shahin/internal/rf"
)

// constant is the trivially reliable backend the chain wraps in tests.
var constant = rf.Func{Classes: 3, F: func(x []float64) int { return 1 }}

// script is an op for Breaker.Do whose per-call outcomes follow errs:
// errs[i] is call i's error (nil succeeds); calls past the end succeed.
// Safe for the single-goroutine tests below.
func script(errs ...error) func(context.Context) error {
	calls := 0
	return func(context.Context) error {
		i := calls
		calls++
		if i < len(errs) {
			return errs[i]
		}
		return nil
	}
}

// blocking is an uninterruptible backend: each call blocks until
// release is closed, then reports the first cell of its row on saw (when
// set). Close release before the test ends.
func blocking(release <-chan struct{}, saw chan<- float64) rf.Func {
	return rf.Func{Classes: 2, F: func(x []float64) int {
		<-release
		if saw != nil {
			saw <- x[0]
		}
		return 1
	}}
}

func TestErrorTaxonomy(t *testing.T) {
	for _, err := range []error{ErrInjected, ErrOutage, ErrTimeout} {
		if !Retryable(err) {
			t.Errorf("%v should be retryable", err)
		}
	}
	for _, err := range []error{ErrBreakerOpen, context.Canceled, context.DeadlineExceeded, errors.New("other")} {
		if Retryable(err) {
			t.Errorf("%v should not be retryable", err)
		}
	}
	if !canceled(context.Canceled) || !canceled(context.DeadlineExceeded) {
		t.Error("context errors should classify as canceled")
	}
	if canceled(ErrInjected) {
		t.Error("injected errors are not cancellations")
	}
}

// TestInjectorDeterminism is the determinism contract: two chains with
// the same seed fault exactly the same attempts, and exactly where the
// seeded stream says — one draw per configured kind per attempt, so a
// spike draw is taken whether or not the attempt failed.
func TestInjectorDeterminism(t *testing.T) {
	pattern := func(seed int64, spikeRate float64) []bool {
		ch := Build(constant, Config{FailRate: 0.3, SpikeRate: spikeRate, Seed: seed, BreakerThreshold: -1}, nil)
		p := make([]bool, 200)
		for i := range p {
			_, err := ch.PredictCtx(context.Background(), nil)
			p[i] = err != nil
		}
		return p
	}
	a, b := pattern(42, 0), pattern(42, 0)
	fails := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("call %d differs across same-seed runs", i)
		}
		if a[i] {
			fails++
		}
	}
	if fails == 0 || fails == len(a) {
		t.Fatalf("degenerate fault pattern: %d/%d failures", fails, len(a))
	}
	c := pattern(43, 0)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical fault patterns")
	}
	for _, kinds := range []struct {
		spikeRate float64
		draws     int
	}{{0, 1}, {0.5, 2}} {
		rng := splitmix64(uint64(42) ^ 0x53686168696e21)
		for i, failed := range pattern(42, kinds.spikeRate) {
			rng = splitmix64(rng)
			want := unit(rng) < 0.3
			for d := 1; d < kinds.draws; d++ {
				rng = splitmix64(rng)
			}
			if failed != want {
				t.Fatalf("spike rate %v, call %d: failed=%v, the stream says %v", kinds.spikeRate, i, failed, want)
			}
		}
	}
}

func TestInjectorOutageWindow(t *testing.T) {
	rec := obs.NewRecorder()
	ch := Build(constant, Config{OutageStart: 3, OutageCalls: 4, Seed: 1, BreakerThreshold: -1}, rec)
	for i := 0; i < 10; i++ {
		_, err := ch.PredictCtx(context.Background(), nil)
		inWindow := i >= 3 && i < 7
		if inWindow && !errors.Is(err, ErrOutage) {
			t.Errorf("call %d: want ErrOutage, got %v", i, err)
		}
		if !inWindow && err != nil {
			t.Errorf("call %d: unexpected error %v", i, err)
		}
	}
	if got := rec.Counter(obs.CounterFaultOutages).Value(); got != 4 {
		t.Errorf("outages=%d, want 4", got)
	}
}

func TestRetrierRecoversTransients(t *testing.T) {
	rec := obs.NewRecorder()
	ch := Build(constant, Config{OutageCalls: 2, MaxRetries: 3, RetryBase: time.Microsecond}, rec)
	y, err := ch.PredictCtx(context.Background(), nil)
	if err != nil || y != 1 {
		t.Fatalf("PredictCtx=(%d,%v), want (1,nil)", y, err)
	}
	if got := ch.Retries(); got != 2 {
		t.Errorf("retries=%d, want 2", got)
	}
	if got := rec.Counter(obs.CounterRetries).Value(); got != 2 {
		t.Errorf("retries counter=%d, want 2", got)
	}
}

func TestRetrierExhaustsBudget(t *testing.T) {
	var backend atomic.Int64
	cls := rf.Func{Classes: 3, F: func([]float64) int { backend.Add(1); return 1 }}
	rec := obs.NewRecorder()
	ch := Build(cls, Config{OutageCalls: 4, MaxRetries: 2, RetryBase: time.Microsecond}, rec)
	if _, err := ch.PredictCtx(context.Background(), nil); !errors.Is(err, ErrOutage) {
		t.Fatalf("err=%v, want ErrOutage after exhausting retries", err)
	}
	if got := rec.Counter(obs.CounterFaultOutages).Value(); got != 3 {
		t.Errorf("%d attempts, want 3 (1 + 2 retries)", got)
	}
	// The window has one attempt left: the next call spends it and one retry.
	if y, err := ch.PredictCtx(context.Background(), nil); err != nil || y != 1 {
		t.Fatalf("next call=(%d,%v), want (1,nil)", y, err)
	}
	if ch.Retries() != 3 || backend.Load() != 1 {
		t.Errorf("retries=%d backend calls=%d, want 3 and 1", ch.Retries(), backend.Load())
	}
}

// TestRetrierSkipsNonRetryable: a cancelled context is the one
// non-retryable error below the retry loop. Whether the attempt drew a
// transient fault or reached the cancellation check, it is not retried.
func TestRetrierSkipsNonRetryable(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, cfg := range []Config{
		{OutageStart: 1 << 40, OutageCalls: 1, MaxRetries: 5, RetryBase: time.Microsecond}, // no fault drawn
		{FailRate: 1, MaxRetries: 5, RetryBase: time.Microsecond},                          // every attempt faulted
	} {
		ch := Build(constant, cfg, nil)
		if _, err := ch.PredictCtx(ctx, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("%+v: err=%v, want context.Canceled", cfg, err)
		}
		if ch.Retries() != 0 {
			t.Errorf("%+v: cancelled call was retried (%d retries)", cfg, ch.Retries())
		}
	}
}

// TestBackoffBounds checks the schedule: exponential growth from base,
// capped, jitter within ±jitter, and deterministic per (call, attempt).
func TestBackoffBounds(t *testing.T) {
	ch := Build(constant, Config{
		MaxRetries: 3, RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
		RetryJitter: 0.2, Seed: 9,
	}, nil)
	for attempt := 0; attempt < 10; attempt++ {
		want := time.Millisecond << uint(attempt)
		if want > 4*time.Millisecond || want <= 0 {
			want = 4 * time.Millisecond
		}
		d := ch.backoff(7, attempt)
		lo := time.Duration(float64(want) * 0.8)
		hi := time.Duration(float64(want) * 1.2)
		if d < lo || d > hi {
			t.Errorf("backoff(7,%d)=%v outside [%v,%v]", attempt, d, lo, hi)
		}
		if d2 := ch.backoff(7, attempt); d2 != d {
			t.Errorf("backoff(7,%d) not deterministic: %v vs %v", attempt, d, d2)
		}
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	rec := obs.NewRecorder()
	op := script(ErrInjected, ErrInjected, ErrInjected)
	b := NewBreaker(Config{BreakerThreshold: 3, BreakerCooldownCalls: 2}, rec, "")

	for i := 0; i < 3; i++ {
		if err := b.Do(context.Background(), op); !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d err=%v", i, err)
		}
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state=%v after %d failures, want open", b.State(), 3)
	}
	// Two rejections burn the call-counted cooldown.
	for i := 0; i < 2; i++ {
		if err := b.Do(context.Background(), op); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("rejection %d err=%v, want ErrBreakerOpen", i, err)
		}
	}
	// The next call probes half-open; the scripted backend has recovered,
	// so the probe succeeds and the breaker closes.
	if err := b.Do(context.Background(), op); err != nil {
		t.Fatalf("probe err=%v, want nil", err)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state=%v after successful probe, want closed", b.State())
	}
	if got := rec.Counter(obs.CounterBreakerOpens).Value(); got != 1 {
		t.Errorf("opens=%d, want 1", got)
	}
	if got := rec.Counter(obs.CounterBreakerRejected).Value(); got != 2 {
		t.Errorf("rejected=%d, want 2", got)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	rec := obs.NewRecorder()
	op := script(ErrInjected, ErrInjected, ErrInjected, ErrInjected)
	b := NewBreaker(Config{BreakerThreshold: 3, BreakerCooldownCalls: 1}, rec, "")
	for i := 0; i < 3; i++ {
		b.Do(context.Background(), op)
	}
	b.Do(context.Background(), op)
	// Probe fails (4th scripted error): straight back to open.
	if err := b.Do(context.Background(), op); !errors.Is(err, ErrInjected) {
		t.Fatalf("probe err=%v, want ErrInjected", err)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state=%v after failed probe, want open", b.State())
	}
	if got := rec.Counter(obs.CounterBreakerOpens).Value(); got != 2 {
		t.Errorf("opens=%d, want 2", got)
	}
}

func TestBreakerIgnoresCancellation(t *testing.T) {
	b := NewBreaker(Config{BreakerThreshold: 2}, nil, "")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 5; i++ {
		if err := b.Do(ctx, func(ctx context.Context) error { return ctx.Err() }); !errors.Is(err, context.Canceled) {
			t.Fatalf("err=%v, want context.Canceled", err)
		}
	}
	if b.State() != BreakerClosed {
		t.Fatalf("cancellations tripped the breaker (state=%v)", b.State())
	}
}

// TestBreakerCountsItsOwnTimeout: a context error while the caller's
// context is still live is the op's own deadline firing — the backend
// hung — and counts like any other failure.
func TestBreakerCountsItsOwnTimeout(t *testing.T) {
	b := NewBreaker(Config{BreakerThreshold: 2}, nil, "")
	hang := func(ctx context.Context) error {
		tctx, cancel := context.WithTimeout(ctx, time.Millisecond)
		defer cancel()
		<-tctx.Done()
		return fmt.Errorf("replica failed: %w", tctx.Err())
	}
	for i := 0; i < 2; i++ {
		if err := b.Do(context.Background(), hang); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d err=%v, want the op's deadline", i, err)
		}
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state=%v after two timeouts, want open", b.State())
	}
}

func TestBreakerEmitsTransitions(t *testing.T) {
	rec := obs.NewRecorder()
	op := script(ErrInjected, ErrInjected)
	b := NewBreaker(Config{BreakerThreshold: 2, BreakerCooldownCalls: 1}, rec, "")
	b.Do(context.Background(), op)
	b.Do(context.Background(), op)
	events, _ := rec.Events()
	var states []string
	for _, e := range events {
		if e.Type == obs.EventBreakerState {
			states = append(states, e.State)
		}
	}
	if len(states) != 1 || states[0] != "closed->open" {
		t.Fatalf("transition events=%v, want [closed->open]", states)
	}
}

func TestDeadlineGuardTimesOut(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ch := Build(blocking(release, nil), Config{PredictTimeout: 5 * time.Millisecond}, nil)
	start := time.Now()
	_, err := ch.PredictCtx(context.Background(), []float64{0})
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err=%v, want ErrTimeout", err)
	}
	if !Retryable(err) {
		t.Error("ErrTimeout must be retryable")
	}
	if took := time.Since(start); took > 500*time.Millisecond {
		t.Errorf("guard took %v to give up on a 5ms deadline", took)
	}
}

// TestDeadlineGuardAbandonedAttemptKeepsItsRow: a caller may reuse its
// row as soon as PredictCtx returns (Anchor labels a scratch row), so
// the attempt the deadline abandons must not be reading the caller's
// slice.
func TestDeadlineGuardAbandonedAttemptKeepsItsRow(t *testing.T) {
	release, saw := make(chan struct{}), make(chan float64)
	ch := Build(blocking(release, saw), Config{PredictTimeout: 5 * time.Millisecond}, nil)
	row := []float64{1}
	if _, err := ch.PredictCtx(context.Background(), row); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err=%v, want ErrTimeout", err)
	}
	row[0] = 2
	close(release)
	if got := <-saw; got != 1 {
		t.Fatalf("abandoned attempt read %v from a row the caller had reused, want 1", got)
	}
}

// TestDeadlineGuardParentCancelWins: the caller giving up — before the
// call or while the backend hangs — is its cancellation, not ErrTimeout.
func TestDeadlineGuardParentCancelWins(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	ch := Build(blocking(release, nil), Config{PredictTimeout: time.Minute}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ch.PredictCtx(ctx, []float64{0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled (not ErrTimeout)", err)
	}
	ctx, cancel = context.WithCancel(context.Background())
	time.AfterFunc(5*time.Millisecond, cancel)
	if _, err := ch.PredictCtx(ctx, []float64{0}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled mid-call err=%v, want context.Canceled (not ErrTimeout)", err)
	}
}

func TestDeadlineGuardPassThrough(t *testing.T) {
	ch := Build(constant, Config{PredictTimeout: time.Second}, nil)
	y, err := ch.PredictCtx(context.Background(), nil)
	if err != nil || y != 1 {
		t.Fatalf("PredictCtx=(%d,%v)", y, err)
	}
}

// TestChainZeroConfig: the zero config builds a pure pass-through chain
// that still honours cancellation, and registers no fault counter.
func TestChainZeroConfig(t *testing.T) {
	rec := obs.NewRecorder()
	ch := Build(constant, Config{}, rec)
	if ch.CanFail() {
		t.Error("zero config must not be able to fail")
	}
	if ch.NumClasses() != 3 {
		t.Fatalf("NumClasses=%d", ch.NumClasses())
	}
	y, err := ch.PredictCtx(context.Background(), nil)
	if err != nil || y != 1 {
		t.Fatalf("PredictCtx=(%d,%v)", y, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ch.PredictCtx(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled PredictCtx err=%v", err)
	}
	if ch.Retries() != 0 {
		t.Errorf("zero-config retries=%d", ch.Retries())
	}
	m := rec.Metrics()
	for name := range m.Counters {
		if strings.HasPrefix(name, "fault_") {
			t.Errorf("zero config registered counter %s", name)
		}
	}
	if _, ok := m.Gauges[obs.GaugeBreakerState]; ok {
		t.Error("zero config registered the breaker gauge")
	}
}

// TestChainFullStack drives the assembled stack end to end: injected
// faults are retried to success and the counters tally every step.
func TestChainFullStack(t *testing.T) {
	rec := obs.NewRecorder()
	ch := Build(constant, Config{
		FailRate:   0.3,
		Seed:       5,
		MaxRetries: 8,
		RetryBase:  time.Microsecond,
		// Retries always outlast a fault streak at this rate, so the
		// breaker must never open.
		BreakerThreshold: 20,
	}, rec)
	if !ch.CanFail() {
		t.Fatal("chain with FailRate should report CanFail")
	}
	for i := 0; i < 100; i++ {
		y, err := ch.PredictCtx(context.Background(), nil)
		if err != nil || y != 1 {
			t.Fatalf("call %d: (%d,%v)", i, y, err)
		}
	}
	injected := rec.Counter(obs.CounterFaultsInjected).Value()
	if injected == 0 || ch.Retries() == 0 {
		t.Errorf("injected=%d retries=%d: expected injected faults and retries", injected, ch.Retries())
	}
	if ch.Retries() != injected {
		t.Errorf("retries=%d injected=%d: every injected fault should cost exactly one retry", ch.Retries(), injected)
	}
	if opens := rec.Counter(obs.CounterBreakerOpens).Value(); opens != 0 {
		t.Errorf("breaker opened %d times under a generous retry budget", opens)
	}
}

// TestChainSettlesOncePerCall: the breaker counts calls, not attempts —
// a call retried through a fault streak longer than the threshold to
// success leaves it closed.
func TestChainSettlesOncePerCall(t *testing.T) {
	rec := obs.NewRecorder()
	ch := Build(constant, Config{OutageCalls: 4, MaxRetries: 4, RetryBase: time.Microsecond, BreakerThreshold: 2}, rec)
	if y, err := ch.PredictCtx(context.Background(), nil); err != nil || y != 1 {
		t.Fatalf("PredictCtx=(%d,%v), want (1,nil)", y, err)
	}
	if ch.breaker.State() != BreakerClosed || rec.Counter(obs.CounterBreakerOpens).Value() != 0 {
		t.Fatalf("a call retried to success moved the breaker to %v", ch.breaker.State())
	}
}

// TestChainConcurrentCalls hammers the shared chain from many
// goroutines; under -race it proves the stack is goroutine-safe.
func TestChainConcurrentCalls(t *testing.T) {
	var backend atomic.Int64
	cls := rf.Func{Classes: 3, F: func([]float64) int { backend.Add(1); return 1 }}
	rec := obs.NewRecorder()
	ch := Build(cls, Config{
		FailRate:         0.2,
		Seed:             11,
		MaxRetries:       6,
		RetryBase:        time.Microsecond,
		BreakerThreshold: 50,
	}, rec)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if y, err := ch.PredictCtx(context.Background(), nil); err == nil && y != 1 {
					t.Errorf("wrong label %d", y)
				}
			}
		}()
	}
	wg.Wait()
	if attempts := backend.Load() + rec.Counter(obs.CounterFaultsInjected).Value(); attempts < 400 {
		t.Errorf("chain made %d attempts, want >= 400", attempts)
	}
	if got := rec.Counter(obs.CounterRetries).Value(); got != ch.Retries() {
		t.Errorf("obs counter %d != Retries() %d", got, ch.Retries())
	}
}

// TestBreakerStateGauge: the breaker mirrors every transition into the
// Prometheus state gauge (0 closed, 1 open, 2 half-open), starting from
// an explicit 0 at construction.
func TestBreakerStateGauge(t *testing.T) {
	rec := obs.NewRecorder()
	g := rec.Gauge(obs.GaugeBreakerState)
	errs := []error{ErrInjected, ErrInjected, ErrInjected}
	op := func(context.Context) error {
		if len(errs) == 0 {
			return nil
		}
		err := errs[0]
		errs = errs[1:]
		return err
	}
	b := NewBreaker(Config{BreakerThreshold: 2, BreakerCooldownCalls: 1}, rec, "")
	if g.Value() != int64(BreakerClosed) {
		t.Fatalf("gauge at construction = %d, want %d (closed)", g.Value(), BreakerClosed)
	}
	b.Do(context.Background(), op)
	b.Do(context.Background(), op)
	if g.Value() != int64(BreakerOpen) {
		t.Fatalf("gauge after opening = %d, want %d (open)", g.Value(), BreakerOpen)
	}
	b.Do(context.Background(), op)
	// Next call probes half-open; the third scripted error fails the
	// probe, but the gauge must have passed through half-open first. The
	// probe transition is synchronous, so observe the final reopened
	// state and the transition events for the half-open hop.
	b.Do(context.Background(), op)
	if g.Value() != int64(BreakerOpen) {
		t.Fatalf("gauge after failed probe = %d, want %d (open)", g.Value(), BreakerOpen)
	}
	events, _ := rec.Events()
	var sawHalfOpen bool
	for _, e := range events {
		if e.Type == obs.EventBreakerState && e.State == "open->half-open" {
			sawHalfOpen = true
		}
	}
	if !sawHalfOpen {
		t.Error("no half-open transition event recorded")
	}
	// A successful probe closes the breaker and zeroes the gauge.
	errs = nil
	b.Do(context.Background(), op)
	if err := b.Do(context.Background(), op); err != nil {
		t.Fatalf("recovered probe err=%v", err)
	}
	if g.Value() != int64(BreakerClosed) {
		t.Fatalf("gauge after recovery = %d, want %d (closed)", g.Value(), BreakerClosed)
	}
}
