// Package fault is the failure model of the classifier backend: the
// pipeline above it assumes rf.Classifier.Predict can never fail, but
// the production target is a remote model server that times out,
// throttles, and goes down for whole windows. Chain expresses those
// failures as errors of one context-aware call and runs the standard
// resilience steps inside it — deterministic fault injection (for chaos
// testing), a per-attempt deadline, retry with capped exponential
// backoff and deterministic jitter, and a three-state circuit breaker —
// so the core pipeline can degrade gracefully instead of failing a
// whole batch.
//
// Determinism contract: every fault decision is drawn from a seeded
// RNG keyed by attempt index, never from the wall clock, so two runs
// with the same fault seed inject the same faults at the same attempts.
// The wall clock is read by three things only — the backoff timer, the
// per-attempt deadline and the spike stall — each of which affects
// timing, never which label a call returns. The breaker's cooldown
// counts calls.
package fault

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"shahin/internal/obs"
	"shahin/internal/rf"
)

// ErrTransient is the class of failures worth retrying: injected
// errors, outage windows, and per-call timeouts all wrap it. Context
// cancellation and breaker rejections do not.
var ErrTransient = errors.New("transient classifier failure")

// ErrInjected marks a fault-injector transient error.
var ErrInjected = fmt.Errorf("%w: injected error", ErrTransient)

// ErrOutage marks a call landing inside an injected outage window.
var ErrOutage = fmt.Errorf("%w: injected outage", ErrTransient)

// ErrTimeout marks a call that exceeded its per-call deadline while
// the parent context was still live.
var ErrTimeout = fmt.Errorf("%w: predict deadline exceeded", ErrTransient)

// ErrBreakerOpen is returned without touching the backend while the
// circuit breaker is open. Not retryable: the caller should degrade.
var ErrBreakerOpen = errors.New("circuit breaker open")

// Retryable reports whether a retry can plausibly fix err.
func Retryable(err error) bool { return errors.Is(err, ErrTransient) }

// canceled reports whether err is a context error. It is the caller
// giving up, not the backend failing, only while the caller's own
// context has ended too (Breaker.settle).
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Config assembles the whole resilience stack. The zero value builds a
// pass-through chain (context honoured, nothing injected, no retries,
// no breaker) so callers can thread one configuration value
// unconditionally.
type Config struct {
	// FailRate is the probability that a call fails with ErrInjected.
	FailRate float64
	// SpikeRate is the probability that a call stalls for SpikeDelay
	// before reaching the backend (tail-latency injection; pair with
	// PredictTimeout to turn spikes into timeouts).
	SpikeRate  float64
	SpikeDelay time.Duration
	// OutageStart/OutageCalls define a hard outage window in call
	// indices: calls [OutageStart, OutageStart+OutageCalls) fail with
	// ErrOutage. Call-indexed (not timed) so the window is
	// deterministic under any scheduling. OutageCalls <= 0 disables.
	OutageStart int64
	OutageCalls int64
	// Seed drives the injector RNG; 0 keeps injection deterministic
	// with seed 0 (callers normally derive it from the run seed).
	Seed int64

	// PredictTimeout is the per-attempt deadline. Predict runs on a
	// goroutine so even an uninterruptible backend call returns to the
	// caller within the deadline; <= 0 disables the guard (and its
	// per-call goroutine cost).
	PredictTimeout time.Duration

	// MaxRetries is how many times a transient failure is retried
	// (0 = fail on first error). Backoff between attempts is capped
	// exponential with deterministic jitter: base RetryBase (default
	// 1ms), doubling per attempt, capped at RetryMax (default 50ms),
	// jittered by ±RetryJitter (default 0.2) of the delay.
	MaxRetries  int
	RetryBase   time.Duration
	RetryMax    time.Duration
	RetryJitter float64

	// BreakerThreshold opens the breaker after this many consecutive
	// failures (default 5; < 0 disables the breaker entirely).
	BreakerThreshold int
	// BreakerCooldownCalls is the open→half-open delay, counted in
	// calls: the breaker probes after rejecting this many (default 100,
	// so an open breaker always recovers).
	BreakerCooldownCalls int64
}

// Chain is the classifier's one failure path. A call is admitted by the
// breaker, tried by retry — each try an attempt: draw the faults, start
// the deadline, classify — and settled by the breaker. Steps cfg does
// not configure are skipped, and a chain that cannot fail is answered
// directly.
type Chain struct {
	cls     rf.Classifier
	cfg     Config // backoff defaults resolved
	inject  bool   // a fault kind is configured: every attempt draws
	canFail bool
	breaker *Breaker // nil without one

	mu       sync.Mutex
	rng      uint64 // splitmix64 state of the fault draws
	attempts int64  // attempts drawn so far: the outage window's clock

	calls   atomic.Int64 // calls into retry so far: the jitter key
	retries atomic.Int64

	injectedCtr, outagesCtr, retriesCtr *obs.Counter
}

// Build assembles the chain for cls under cfg, wiring transition
// events and counters into rec (nil disables instrumentation).
func Build(cls rf.Classifier, cfg Config, rec *obs.Recorder) *Chain {
	if cfg.RetryBase <= 0 {
		cfg.RetryBase = time.Millisecond
	}
	if cfg.RetryMax <= 0 {
		cfg.RetryMax = 50 * time.Millisecond
	}
	if cfg.RetryJitter <= 0 {
		cfg.RetryJitter = 0.2
	}
	c := &Chain{
		cls:    cls,
		cfg:    cfg,
		inject: cfg.FailRate > 0 || cfg.SpikeRate > 0 || cfg.OutageCalls > 0,
		rng:    splitmix64(uint64(cfg.Seed) ^ 0x53686168696e21),
	}
	c.canFail = c.inject || cfg.PredictTimeout > 0
	if c.canFail && cfg.BreakerThreshold >= 0 {
		c.breaker = NewBreaker(cfg, rec, "")
	}
	if c.inject || cfg.MaxRetries > 0 || c.breaker != nil {
		c.injectedCtr = counter(rec, obs.CounterFaultsInjected)
		c.outagesCtr = counter(rec, obs.CounterFaultOutages)
		c.retriesCtr = counter(rec, obs.CounterRetries)
	}
	return c
}

// counter registers the five fault counters together — every step that
// moves one registers all, so a scrape shows all five or none — and
// returns the one named.
func counter(rec *obs.Recorder, name string) *obs.Counter {
	for _, n := range [...]string{obs.CounterFaultsInjected, obs.CounterFaultOutages,
		obs.CounterRetries, obs.CounterBreakerOpens, obs.CounterBreakerRejected} {
		rec.Counter(n)
	}
	return rec.Counter(name)
}

// NumClasses is the classifier's class count.
func (c *Chain) NumClasses() int { return c.cls.NumClasses() }

// CanFail reports whether this chain can return backend errors (vs
// only context cancellation); callers skip fallback bookkeeping when
// it cannot.
func (c *Chain) CanFail() bool { return c.canFail }

// Retries reports how many transient failures the chain has retried.
func (c *Chain) Retries() int64 { return c.retries.Load() }

// PredictCtx labels x: breaker admission, then retry, then the breaker
// settles the outcome.
func (c *Chain) PredictCtx(ctx context.Context, x []float64) (int, error) {
	if !c.canFail {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		return c.cls.Predict(x), nil
	}
	if c.breaker == nil {
		return c.retry(ctx, x)
	}
	probe, err := c.breaker.admit(ctx)
	if err != nil {
		return 0, err
	}
	y, err := c.retry(ctx, x)
	return y, c.breaker.settle(ctx, err, probe)
}

// attempt is one try of x. It draws its faults under mu on the caller's
// goroutine — one draw per configured kind, so the stream stays aligned
// whether or not an earlier fault fired — and then classifies, on a
// goroutine under the per-attempt deadline when PredictTimeout is set:
// an uninterruptible backend still returns to the caller on time, and
// the abandoned attempt finishes on its own and is discarded.
func (c *Chain) attempt(ctx context.Context, x []float64) (int, error) {
	spike := false
	if c.inject {
		c.mu.Lock()
		n := c.attempts
		c.attempts++
		fail := c.cfg.FailRate > 0 && c.draw() < c.cfg.FailRate
		spike = c.cfg.SpikeRate > 0 && c.draw() < c.cfg.SpikeRate
		c.mu.Unlock()
		if c.cfg.OutageCalls > 0 && n >= c.cfg.OutageStart && n < c.cfg.OutageStart+c.cfg.OutageCalls {
			c.outagesCtr.Inc()
			return 0, ErrOutage
		}
		if fail {
			c.injectedCtr.Inc()
			return 0, ErrInjected
		}
	}
	if c.cfg.PredictTimeout <= 0 {
		return c.classify(ctx, x, spike)
	}
	dctx, cancel := context.WithTimeout(ctx, c.cfg.PredictTimeout)
	defer cancel()
	type result struct {
		y   int
		err error
	}
	done := make(chan result, 1) // buffered: the abandoned attempt must not block
	// An abandoned attempt may still be reading its row after this call
	// has returned and the caller has reused the slice, so it gets a copy.
	x = append([]float64(nil), x...)
	go func() {
		y, err := c.classify(dctx, x, spike)
		done <- result{y, err}
	}()
	select {
	case r := <-done:
		if r.err == nil || ctx.Err() != nil {
			return r.y, r.err
		}
	case <-dctx.Done():
		if err := ctx.Err(); err != nil {
			return 0, err // the caller gave up, not the deadline
		}
	}
	return 0, ErrTimeout
}

// classify stalls a spiked attempt for SpikeDelay, then asks the
// backend unless ctx has ended.
func (c *Chain) classify(ctx context.Context, x []float64, spike bool) (int, error) {
	if spike {
		if err := sleep(ctx, c.cfg.SpikeDelay); err != nil {
			return 0, err
		}
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return c.cls.Predict(x), nil
}

// draw advances the fault stream, a splitmix64 sequence: unlike
// math/rand it costs nothing to construct and its state is one word,
// which keeps the critical section tiny. Caller holds mu.
func (c *Chain) draw() float64 {
	c.rng = splitmix64(c.rng)
	return unit(c.rng)
}

// sleep waits d (nothing when d <= 0) unless ctx ends first.
func sleep(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
