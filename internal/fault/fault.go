// Package fault is the failure model of the classifier backend: the
// pipeline above it assumes rf.Classifier.Predict can never fail, but
// the production target is a remote model server that times out,
// throttles, and goes down for whole windows. This package expresses
// those failures as errors on a context-aware interface and stacks the
// standard resilience layers on top — deterministic fault injection
// (for chaos testing), per-call deadlines, retry with capped
// exponential backoff and deterministic jitter, and a three-state
// circuit breaker — so the core pipeline can degrade gracefully
// instead of failing a whole batch.
//
// Determinism contract: every fault decision is drawn from a seeded
// RNG keyed by call index, never from the wall clock, so two runs with
// the same fault seed inject the same faults at the same calls.
// Wall-clock reads are confined to the breaker's cooldown clock and
// the backoff timer, which affect only timing, never which label a
// call returns.
package fault

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"shahin/internal/obs"
	"shahin/internal/rf"
)

// FallibleClassifier is the failure-aware classifier interface: like
// rf.Classifier, but Predict can be cancelled and can fail.
type FallibleClassifier interface {
	NumClasses() int
	PredictCtx(ctx context.Context, x []float64) (int, error)
}

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

// canceled reports whether err is the caller giving up rather than
// the backend failing; such errors must not trip the breaker.
func canceled(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Adapter lifts a plain rf.Classifier into the fallible interface:
// it honours context cancellation before invoking the backend and
// never fails otherwise.
type Adapter struct {
	inner rf.Classifier
}

// Adapt wraps c.
func Adapt(c rf.Classifier) *Adapter { return &Adapter{inner: c} }

// NumClasses implements FallibleClassifier.
func (a *Adapter) NumClasses() int { return a.inner.NumClasses() }

// PredictCtx implements FallibleClassifier.
func (a *Adapter) PredictCtx(ctx context.Context, x []float64) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	return a.inner.Predict(x), nil
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
	// BreakerCooldown is the wall-clock open→half-open delay.
	// BreakerCooldownCalls is the deterministic alternative: the
	// breaker probes after rejecting this many calls. Either (or both)
	// may be set; when both are zero the calls-based cooldown defaults
	// to 100 so an open breaker always recovers.
	BreakerCooldown      time.Duration
	BreakerCooldownCalls int64
}

// active reports whether the config can produce failures at all.
func (c Config) active() bool {
	return c.FailRate > 0 || c.SpikeRate > 0 || c.OutageCalls > 0 || c.PredictTimeout > 0
}

// Chain is the assembled resilience stack over a classifier. From the
// outside in: circuit breaker → retry/backoff → per-call deadline →
// fault injector → context adapter → the real classifier. Layers not
// configured are simply absent.
type Chain struct {
	top     FallibleClassifier
	classes int
	canFail bool

	injector *Injector
	retrier  *retrier
	breaker  *Breaker
}

// Build assembles the chain for cls under cfg, wiring transition
// events and counters into rec (nil disables instrumentation).
func Build(cls rf.Classifier, cfg Config, rec *obs.Recorder) *Chain {
	ch := &Chain{classes: cls.NumClasses(), canFail: cfg.active()}
	var top FallibleClassifier = Adapt(cls)
	if cfg.FailRate > 0 || cfg.SpikeRate > 0 || cfg.OutageCalls > 0 {
		ch.injector = NewInjector(top, cfg, rec)
		top = ch.injector
	}
	if cfg.PredictTimeout > 0 {
		top = &deadlineGuard{inner: top, timeout: cfg.PredictTimeout}
	}
	if cfg.MaxRetries > 0 {
		ch.retrier = newRetrier(top, cfg, rec)
		top = ch.retrier
	}
	if cfg.BreakerThreshold >= 0 && ch.canFail {
		ch.breaker = NewBreaker(top, cfg, rec)
		top = ch.breaker
	}
	ch.top = top
	return ch
}

// NumClasses implements FallibleClassifier.
func (c *Chain) NumClasses() int { return c.classes }

// PredictCtx implements FallibleClassifier through the full stack.
func (c *Chain) PredictCtx(ctx context.Context, x []float64) (int, error) {
	return c.top.PredictCtx(ctx, x)
}

// CanFail reports whether this chain can return backend errors (vs
// only context cancellation); callers skip fallback bookkeeping when
// it cannot.
func (c *Chain) CanFail() bool { return c.canFail }

// Stats is a point-in-time tally of everything the chain did.
type Stats struct {
	Calls    int64 `json:"calls"`
	Injected int64 `json:"injected_errors"`
	Outages  int64 `json:"outage_errors"`
	Retries  int64 `json:"retries"`
	Opens    int64 `json:"breaker_opens"`
	Rejected int64 `json:"breaker_rejected"`
}

// Stats snapshots the chain's counters (zero value on a nil chain).
func (c *Chain) Stats() Stats {
	var s Stats
	if c == nil {
		return s
	}
	if c.injector != nil {
		s.Calls = c.injector.calls.Load()
		s.Injected = c.injector.injected.Load()
		s.Outages = c.injector.outages.Load()
	}
	if c.retrier != nil {
		s.Retries = c.retrier.retries.Load()
	}
	if c.breaker != nil {
		s.Opens = c.breaker.opens.Load()
		s.Rejected = c.breaker.rejectedTotal.Load()
	}
	return s
}

// deadlineGuard enforces a per-call deadline around an inner call that
// may itself be uninterruptible: the call runs on a goroutine and the
// guard returns ErrTimeout when the deadline fires first (the
// abandoned attempt finishes on its own and is discarded).
type deadlineGuard struct {
	inner   FallibleClassifier
	timeout time.Duration
}

// NumClasses implements FallibleClassifier.
func (g *deadlineGuard) NumClasses() int { return g.inner.NumClasses() }

// PredictCtx implements FallibleClassifier with the per-call deadline.
func (g *deadlineGuard) PredictCtx(ctx context.Context, x []float64) (int, error) {
	dctx, cancel := context.WithTimeout(ctx, g.timeout)
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
		y, err := g.inner.PredictCtx(dctx, x)
		done <- result{y, err}
	}()
	select {
	case r := <-done:
		if r.err != nil && errors.Is(r.err, context.DeadlineExceeded) && ctx.Err() == nil {
			return 0, ErrTimeout
		}
		return r.y, r.err
	case <-dctx.Done():
		if err := ctx.Err(); err != nil {
			return 0, err // the caller gave up, not the deadline
		}
		return 0, ErrTimeout
	}
}

// splitmix64 is the deterministic hash behind backoff jitter: cheap,
// stateless, and independent of goroutine interleaving.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// hash01 maps (seed, call, attempt) to [0,1) deterministically.
func hash01(seed int64, call int64, attempt int) float64 {
	h := splitmix64(uint64(seed) ^ uint64(call)<<16 ^ uint64(attempt))
	return float64(h>>11) / float64(1<<53)
}

var _ FallibleClassifier = (*Chain)(nil)

// counters shared by the layers; resolved once at build time.
type chainCounters struct {
	injected *obs.Counter
	outages  *obs.Counter
	retries  *obs.Counter
	opens    *obs.Counter
	rejected *obs.Counter
}

func newChainCounters(rec *obs.Recorder) chainCounters {
	return chainCounters{
		injected: rec.Counter(obs.CounterFaultsInjected),
		outages:  rec.Counter(obs.CounterFaultOutages),
		retries:  rec.Counter(obs.CounterRetries),
		opens:    rec.Counter(obs.CounterBreakerOpens),
		rejected: rec.Counter(obs.CounterBreakerRejected),
	}
}

// atomicInt64 is a tiny alias to keep struct fields compact.
type atomicInt64 = atomic.Int64
