package fault

import (
	"context"
	"errors"
	"sync"
	"testing"

	"shahin/internal/obs"
)

// gated is a backend op whose call blocks until the test releases it,
// so the test can hold a half-open probe in flight while other calls
// race the admission path.
type gated struct {
	entered chan struct{}
	release chan error
}

func (g *gated) op(context.Context) error {
	g.entered <- struct{}{}
	return <-g.release
}

// openAndBurnCooldown drives b open via one scripted failure from g and
// burns the single-call cooldown, leaving the breaker ready to probe.
func openAndBurnCooldown(t *testing.T, b *Breaker, g *gated) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- b.Do(context.Background(), g.op) }()
	<-g.entered
	g.release <- ErrInjected
	if err := <-done; !errors.Is(err, ErrInjected) {
		t.Fatalf("opening call err=%v, want ErrInjected", err)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state=%v, want open", b.State())
	}
	if err := b.Do(context.Background(), g.op); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("cooldown-burning call err=%v, want ErrBreakerOpen", err)
	}
}

// TestBreakerHalfOpenSingleProbe: with the cooldown elapsed, N
// concurrent calls race into the half-open breaker; exactly one trial
// reaches the backend, every loser gets ErrBreakerOpen, and the
// winning probe's success closes the breaker. Run under -race.
func TestBreakerHalfOpenSingleProbe(t *testing.T) {
	g := &gated{entered: make(chan struct{}), release: make(chan error)}
	b := NewBreaker(Config{BreakerThreshold: 1, BreakerCooldownCalls: 1}, nil, "")
	openAndBurnCooldown(t, b, g)

	const racers = 8
	results := make(chan error, racers)
	var wg sync.WaitGroup
	for i := 0; i < racers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results <- b.Do(context.Background(), g.op)
		}()
	}
	// The winning probe is now parked inside the backend; every other
	// racer must already have been turned away.
	<-g.entered
	for i := 0; i < racers-1; i++ {
		if err := <-results; !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("loser %d err=%v, want ErrBreakerOpen", i, err)
		}
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state=%v while probe in flight, want half-open", b.State())
	}
	g.release <- nil
	if err := <-results; err != nil {
		t.Fatalf("winning probe err=%v, want nil", err)
	}
	wg.Wait()
	if b.State() != BreakerClosed {
		t.Fatalf("state=%v after successful probe, want closed", b.State())
	}
}

// TestBreakerHalfOpenProbeFailureReopens: a failing trial sends the
// breaker straight back to open while concurrent losers are rejected.
func TestBreakerHalfOpenProbeFailureReopens(t *testing.T) {
	rec := obs.NewRecorder()
	g := &gated{entered: make(chan struct{}), release: make(chan error)}
	b := NewBreaker(Config{BreakerThreshold: 1, BreakerCooldownCalls: 1}, rec, "")
	openAndBurnCooldown(t, b, g)

	probeErr := make(chan error, 1)
	go func() { probeErr <- b.Do(context.Background(), g.op) }()
	<-g.entered
	if err := b.Do(context.Background(), g.op); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("concurrent call during probe err=%v, want ErrBreakerOpen", err)
	}
	g.release <- ErrInjected
	if err := <-probeErr; !errors.Is(err, ErrInjected) {
		t.Fatalf("probe err=%v, want ErrInjected", err)
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state=%v after failed probe, want open", b.State())
	}
	if got := rec.Counter(obs.CounterBreakerOpens).Value(); got != 2 {
		t.Errorf("opens=%d, want 2", got)
	}
}

// TestBreakerCancelledProbeFreesSlot: a probe whose caller gives up
// neither closes nor re-opens the breaker, but it must release the
// probing slot so the next call can trial the backend.
func TestBreakerCancelledProbeFreesSlot(t *testing.T) {
	g := &gated{entered: make(chan struct{}), release: make(chan error)}
	b := NewBreaker(Config{BreakerThreshold: 1, BreakerCooldownCalls: 1}, nil, "")
	openAndBurnCooldown(t, b, g)

	ctx, cancel := context.WithCancel(context.Background())
	probeErr := make(chan error, 1)
	go func() { probeErr <- b.Do(ctx, g.op) }()
	<-g.entered
	cancel()
	g.release <- ctx.Err()
	if err := <-probeErr; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled probe err=%v, want context.Canceled", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state=%v after cancelled probe, want half-open", b.State())
	}
	// The slot must be free: the next call probes and closes the breaker.
	done := make(chan error, 1)
	go func() { done <- b.Do(context.Background(), g.op) }()
	<-g.entered
	g.release <- nil
	if err := <-done; err != nil {
		t.Fatalf("follow-up probe err=%v, want nil", err)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state=%v, want closed", b.State())
	}
}

// TestBreakerDo: a named breaker guards arbitrary operations with the
// same state machine, and its transitions carry the instance name on
// both the event and the gauge.
func TestBreakerDo(t *testing.T) {
	rec := obs.NewRecorder()
	b := NewBreaker(Config{BreakerThreshold: 2, BreakerCooldownCalls: 1}, rec, "replica0")

	boom := errors.New("backend down")
	fail := func(context.Context) error { return boom }
	ok := func(context.Context) error { return nil }

	for i := 0; i < 2; i++ {
		if err := b.Do(context.Background(), fail); !errors.Is(err, boom) {
			t.Fatalf("failing op %d err=%v", i, err)
		}
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state=%v after threshold failures, want open", b.State())
	}
	if err := b.Do(context.Background(), ok); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("rejected op err=%v, want ErrBreakerOpen", err)
	}
	// Cooldown burnt; the next Do probes and closes.
	if err := b.Do(context.Background(), ok); err != nil {
		t.Fatalf("probe op err=%v, want nil", err)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state=%v after probe, want closed", b.State())
	}
	if got := rec.Gauge(obs.GaugeBreakerState + "_replica0").Value(); got != int64(BreakerClosed) {
		t.Errorf("named state gauge=%d, want %d", got, BreakerClosed)
	}
	events, _ := rec.Events()
	var edges int
	for _, e := range events {
		if e.Type == obs.EventBreakerState && e.Name == "replica0" {
			edges++
		}
	}
	if edges < 3 { // closed->open, open->half-open, half-open->closed
		t.Errorf("named breaker_state events=%d, want >= 3", edges)
	}
}

// TestBreakerDoConcurrentHalfOpen: Do's admission keeps the
// single-probe guarantee — concurrent ops during a trial are rejected.
func TestBreakerDoConcurrentHalfOpen(t *testing.T) {
	b := NewBreaker(Config{BreakerThreshold: 1, BreakerCooldownCalls: 1}, nil, "r")
	boom := errors.New("backend down")
	if err := b.Do(context.Background(), func(context.Context) error { return boom }); !errors.Is(err, boom) {
		t.Fatal(err)
	}
	if err := b.Do(context.Background(), func(context.Context) error { return nil }); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("cooldown-burning op err=%v, want ErrBreakerOpen", err)
	}

	entered := make(chan struct{})
	release := make(chan struct{})
	const racers = 8
	results := make(chan error, racers)
	for i := 0; i < racers; i++ {
		go func() {
			results <- b.Do(context.Background(), func(context.Context) error {
				entered <- struct{}{}
				<-release
				return nil
			})
		}()
	}
	<-entered
	for i := 0; i < racers-1; i++ {
		if err := <-results; !errors.Is(err, ErrBreakerOpen) {
			t.Fatalf("loser %d err=%v, want ErrBreakerOpen", i, err)
		}
	}
	close(release)
	if err := <-results; err != nil {
		t.Fatalf("winning probe err=%v", err)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state=%v, want closed", b.State())
	}
}
