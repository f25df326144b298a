package fault

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"shahin/internal/obs"
	"shahin/internal/rf"
)

// constant is the trivially reliable backend the chain wraps in tests.
var constant = rf.Func{Classes: 3, F: func(x []float64) int { return 1 }}

// scripted is a FallibleClassifier whose per-call outcomes follow a
// script: errs[i] is call i's error (nil succeeds); calls past the end
// of the script succeed. Safe for the single-goroutine tests below.
type scripted struct {
	errs  []error
	calls int
}

func (s *scripted) NumClasses() int { return 3 }

func (s *scripted) PredictCtx(ctx context.Context, x []float64) (int, error) {
	i := s.calls
	s.calls++
	if i < len(s.errs) && s.errs[i] != nil {
		return 0, s.errs[i]
	}
	return 1, nil
}

// slow is a backend that takes d per call but honours cancellation.
type slow struct{ d time.Duration }

func (s slow) NumClasses() int { return 2 }

func (s slow) PredictCtx(ctx context.Context, x []float64) (int, error) {
	t := time.NewTimer(s.d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return 0, ctx.Err()
	case <-t.C:
		return 1, nil
	}
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

func TestAdapter(t *testing.T) {
	a := Adapt(constant)
	if a.NumClasses() != 3 {
		t.Fatalf("NumClasses=%d", a.NumClasses())
	}
	y, err := a.PredictCtx(context.Background(), nil)
	if err != nil || y != 1 {
		t.Fatalf("PredictCtx=(%d,%v)", y, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := a.PredictCtx(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled PredictCtx err=%v", err)
	}
}

// TestInjectorDeterminism is the determinism contract: two injectors
// with the same seed fault exactly the same call indices.
func TestInjectorDeterminism(t *testing.T) {
	pattern := func(seed int64) []bool {
		inj := NewInjector(Adapt(constant), Config{FailRate: 0.3, Seed: seed}, nil)
		p := make([]bool, 200)
		for i := range p {
			_, err := inj.PredictCtx(context.Background(), nil)
			p[i] = err != nil
		}
		return p
	}
	a, b := pattern(42), pattern(42)
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
	c := pattern(43)
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
}

func TestInjectorOutageWindow(t *testing.T) {
	inj := NewInjector(Adapt(constant), Config{OutageStart: 3, OutageCalls: 4, Seed: 1}, nil)
	for i := 0; i < 10; i++ {
		_, err := inj.PredictCtx(context.Background(), nil)
		inWindow := i >= 3 && i < 7
		if inWindow && !errors.Is(err, ErrOutage) {
			t.Errorf("call %d: want ErrOutage, got %v", i, err)
		}
		if !inWindow && err != nil {
			t.Errorf("call %d: unexpected error %v", i, err)
		}
	}
	if got := inj.outages.Load(); got != 4 {
		t.Errorf("outages=%d, want 4", got)
	}
}

func TestRetrierRecoversTransients(t *testing.T) {
	inner := &scripted{errs: []error{ErrInjected, ErrInjected, nil}}
	r := newRetrier(inner, Config{MaxRetries: 3, RetryBase: time.Microsecond}, nil)
	y, err := r.PredictCtx(context.Background(), nil)
	if err != nil || y != 1 {
		t.Fatalf("PredictCtx=(%d,%v), want (1,nil)", y, err)
	}
	if got := r.retries.Load(); got != 2 {
		t.Errorf("retries=%d, want 2", got)
	}
}

func TestRetrierExhaustsBudget(t *testing.T) {
	inner := &scripted{errs: []error{ErrInjected, ErrInjected, ErrInjected, ErrInjected}}
	r := newRetrier(inner, Config{MaxRetries: 2, RetryBase: time.Microsecond}, nil)
	if _, err := r.PredictCtx(context.Background(), nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("err=%v, want ErrInjected after exhausting retries", err)
	}
	if inner.calls != 3 {
		t.Errorf("inner saw %d calls, want 3 (1 + 2 retries)", inner.calls)
	}
}

func TestRetrierSkipsNonRetryable(t *testing.T) {
	inner := &scripted{errs: []error{ErrBreakerOpen}}
	r := newRetrier(inner, Config{MaxRetries: 5, RetryBase: time.Microsecond}, nil)
	if _, err := r.PredictCtx(context.Background(), nil); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err=%v, want ErrBreakerOpen", err)
	}
	if inner.calls != 1 {
		t.Errorf("non-retryable error was retried (%d calls)", inner.calls)
	}
}

// TestBackoffBounds checks the schedule: exponential growth from base,
// capped, jitter within ±jitter, and deterministic per (call, attempt).
func TestBackoffBounds(t *testing.T) {
	r := newRetrier(&scripted{}, Config{
		MaxRetries: 3, RetryBase: time.Millisecond, RetryMax: 4 * time.Millisecond,
		RetryJitter: 0.2, Seed: 9,
	}, nil)
	for attempt := 0; attempt < 10; attempt++ {
		want := time.Millisecond << uint(attempt)
		if want > 4*time.Millisecond || want <= 0 {
			want = 4 * time.Millisecond
		}
		d := r.backoff(7, attempt)
		lo := time.Duration(float64(want) * 0.8)
		hi := time.Duration(float64(want) * 1.2)
		if d < lo || d > hi {
			t.Errorf("backoff(7,%d)=%v outside [%v,%v]", attempt, d, lo, hi)
		}
		if d2 := r.backoff(7, attempt); d2 != d {
			t.Errorf("backoff(7,%d) not deterministic: %v vs %v", attempt, d, d2)
		}
	}
}

func TestBreakerOpensAndRecovers(t *testing.T) {
	inner := &scripted{errs: []error{ErrInjected, ErrInjected, ErrInjected}}
	b := NewBreaker(inner, Config{BreakerThreshold: 3, BreakerCooldownCalls: 2}, nil)

	for i := 0; i < 3; i++ {
		if _, err := b.PredictCtx(context.Background(), nil); !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d err=%v", i, err)
		}
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state=%v after %d failures, want open", b.State(), 3)
	}
	// Two rejections burn the call-counted cooldown.
	for i := 0; i < 2; i++ {
		if _, err := b.PredictCtx(context.Background(), nil); !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("rejection %d err=%v, want ErrBreakerOpen", i, err)
		}
	}
	// The next call probes half-open; the scripted backend has recovered,
	// so the probe succeeds and the breaker closes.
	y, err := b.PredictCtx(context.Background(), nil)
	if err != nil || y != 1 {
		t.Fatalf("probe=(%d,%v), want (1,nil)", y, err)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state=%v after successful probe, want closed", b.State())
	}
	if got := b.opens.Load(); got != 1 {
		t.Errorf("opens=%d, want 1", got)
	}
	if got := b.rejectedTotal.Load(); got != 2 {
		t.Errorf("rejected=%d, want 2", got)
	}
}

func TestBreakerHalfOpenFailureReopens(t *testing.T) {
	inner := &scripted{errs: []error{ErrInjected, ErrInjected, ErrInjected, ErrInjected}}
	b := NewBreaker(inner, Config{BreakerThreshold: 3, BreakerCooldownCalls: 1}, nil)
	for i := 0; i < 3; i++ {
		b.PredictCtx(context.Background(), nil)
	}
	b.PredictCtx(context.Background(), nil)
	// Probe fails (4th scripted error): straight back to open.
	if _, err := b.PredictCtx(context.Background(), nil); !errors.Is(err, ErrInjected) {
		t.Fatalf("probe err=%v, want ErrInjected", err)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state=%v after failed probe, want open", b.State())
	}
	if got := b.opens.Load(); got != 2 {
		t.Errorf("opens=%d, want 2", got)
	}
}

func TestBreakerIgnoresCancellation(t *testing.T) {
	b := NewBreaker(Adapt(constant), Config{BreakerThreshold: 2}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for i := 0; i < 5; i++ {
		if _, err := b.PredictCtx(ctx, nil); !errors.Is(err, context.Canceled) {
			t.Fatalf("err=%v, want context.Canceled", err)
		}
	}
	if b.State() != BreakerClosed {
		t.Fatalf("cancellations tripped the breaker (state=%v)", b.State())
	}
}

func TestBreakerEmitsTransitions(t *testing.T) {
	rec := obs.NewRecorder()
	inner := &scripted{errs: []error{ErrInjected, ErrInjected}}
	b := NewBreaker(inner, Config{BreakerThreshold: 2, BreakerCooldownCalls: 1}, rec)
	b.PredictCtx(context.Background(), nil)
	b.PredictCtx(context.Background(), nil)
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
	g := &deadlineGuard{inner: slow{d: time.Second}, timeout: 5 * time.Millisecond}
	start := time.Now()
	_, err := g.PredictCtx(context.Background(), nil)
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

// stalled is an uninterruptible backend: it reads its row only once
// released, after the guard has given up on it.
type stalled struct {
	release chan struct{}
	saw     chan float64
}

func (s stalled) NumClasses() int { return 2 }

func (s stalled) PredictCtx(_ context.Context, x []float64) (int, error) {
	<-s.release
	s.saw <- x[0]
	return 0, nil
}

// TestDeadlineGuardAbandonedAttemptKeepsItsRow: a caller may reuse its
// row as soon as PredictCtx returns (Anchor labels a scratch row), so
// the attempt the guard abandons must not be reading the caller's
// slice.
func TestDeadlineGuardAbandonedAttemptKeepsItsRow(t *testing.T) {
	inner := stalled{release: make(chan struct{}), saw: make(chan float64)}
	g := &deadlineGuard{inner: inner, timeout: 5 * time.Millisecond}
	row := []float64{1}
	if _, err := g.PredictCtx(context.Background(), row); !errors.Is(err, ErrTimeout) {
		t.Fatalf("err=%v, want ErrTimeout", err)
	}
	row[0] = 2
	close(inner.release)
	if got := <-inner.saw; got != 1 {
		t.Fatalf("abandoned attempt read %v from a row the caller had reused, want 1", got)
	}
}

func TestDeadlineGuardParentCancelWins(t *testing.T) {
	g := &deadlineGuard{inner: slow{d: time.Second}, timeout: time.Minute}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := g.PredictCtx(ctx, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled (not ErrTimeout)", err)
	}
}

func TestDeadlineGuardPassThrough(t *testing.T) {
	g := &deadlineGuard{inner: Adapt(constant), timeout: time.Second}
	y, err := g.PredictCtx(context.Background(), nil)
	if err != nil || y != 1 {
		t.Fatalf("PredictCtx=(%d,%v)", y, err)
	}
}

// TestChainZeroConfig: the zero config builds a pure pass-through chain
// that still honours cancellation.
func TestChainZeroConfig(t *testing.T) {
	ch := Build(constant, Config{}, nil)
	if ch.CanFail() {
		t.Error("zero config must not be able to fail")
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
	if s := ch.Stats(); s != (Stats{}) {
		t.Errorf("zero-config stats=%+v", s)
	}
	var nilChain *Chain
	if s := nilChain.Stats(); s != (Stats{}) {
		t.Errorf("nil chain stats=%+v", s)
	}
}

// TestChainFullStack drives the assembled stack end to end: injected
// faults are retried to success and the stats tally every layer.
func TestChainFullStack(t *testing.T) {
	ch := Build(constant, Config{
		FailRate:   0.3,
		Seed:       5,
		MaxRetries: 8,
		RetryBase:  time.Microsecond,
		// Retries always outlast a fault streak at this rate, so the
		// breaker must never open.
		BreakerThreshold: 20,
	}, nil)
	if !ch.CanFail() {
		t.Fatal("chain with FailRate should report CanFail")
	}
	for i := 0; i < 100; i++ {
		y, err := ch.PredictCtx(context.Background(), nil)
		if err != nil || y != 1 {
			t.Fatalf("call %d: (%d,%v)", i, y, err)
		}
	}
	s := ch.Stats()
	if s.Injected == 0 || s.Retries == 0 {
		t.Errorf("stats=%+v: expected injected faults and retries", s)
	}
	if s.Retries != s.Injected {
		t.Errorf("retries=%d injected=%d: every injected fault should cost exactly one retry", s.Retries, s.Injected)
	}
	if s.Opens != 0 {
		t.Errorf("breaker opened %d times under a generous retry budget", s.Opens)
	}
}

// TestChainConcurrentCalls hammers the shared chain from many
// goroutines; under -race it proves the stack is goroutine-safe.
func TestChainConcurrentCalls(t *testing.T) {
	rec := obs.NewRecorder()
	ch := Build(constant, Config{
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
	if ch.Stats().Calls < 400 {
		t.Errorf("injector saw %d calls, want >= 400", ch.Stats().Calls)
	}
	if got := rec.Counter(obs.CounterFaultsInjected).Value(); got != ch.Stats().Injected {
		t.Errorf("obs counter %d != chain stat %d", got, ch.Stats().Injected)
	}
}

// TestBreakerStateGauge: the breaker mirrors every transition into the
// Prometheus state gauge (0 closed, 1 open, 2 half-open), starting from
// an explicit 0 at construction.
func TestBreakerStateGauge(t *testing.T) {
	rec := obs.NewRecorder()
	g := rec.Gauge(obs.GaugeBreakerState)
	inner := &scripted{errs: []error{ErrInjected, ErrInjected, ErrInjected}}
	b := NewBreaker(inner, Config{BreakerThreshold: 2, BreakerCooldownCalls: 1}, rec)
	if g.Value() != int64(BreakerClosed) {
		t.Fatalf("gauge at construction = %d, want %d (closed)", g.Value(), BreakerClosed)
	}
	b.PredictCtx(context.Background(), nil)
	b.PredictCtx(context.Background(), nil)
	if g.Value() != int64(BreakerOpen) {
		t.Fatalf("gauge after opening = %d, want %d (open)", g.Value(), BreakerOpen)
	}
	b.PredictCtx(context.Background(), nil)
	// Next call probes half-open; the third scripted error fails the
	// probe, but the gauge must have passed through half-open first. The
	// probe transition is synchronous, so observe the final reopened
	// state and the transition events for the half-open hop.
	b.PredictCtx(context.Background(), nil)
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
	inner.errs = nil
	b.PredictCtx(context.Background(), nil)
	if _, err := b.PredictCtx(context.Background(), nil); err != nil {
		t.Fatalf("recovered probe err=%v", err)
	}
	if g.Value() != int64(BreakerClosed) {
		t.Fatalf("gauge after recovery = %d, want %d (closed)", g.Value(), BreakerClosed)
	}
}
