package fault

import (
	"context"
	"sync"

	"shahin/internal/obs"
)

// BreakerState is the circuit breaker's three-state machine.
type BreakerState uint8

const (
	// BreakerClosed passes calls through, counting consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects calls without touching the backend until it
	// has rejected the cooldown's worth of them.
	BreakerOpen
	// BreakerHalfOpen lets exactly one trial call through at a time:
	// its success closes the breaker, its failure re-opens it, and
	// concurrent calls arriving while the trial is in flight are
	// rejected with ErrBreakerOpen.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "unknown"
	}
}

// Breaker is a three-state circuit breaker: BreakerThreshold
// consecutive failures open it; while open every call is rejected with
// ErrBreakerOpen (the caller degrades instead of waiting on a dead
// backend); after BreakerCooldownCalls rejections it half-opens and
// probes, closing again on the first success.
//
// The cooldown counts calls, not wall-clock time, so chaos runs
// reproduce exactly. Every transition emits an obs event and sets the
// state gauge; opening bumps fault_breaker_opens and every rejection
// fault_breaker_rejected.
type Breaker struct {
	name          string // labels events and the state gauge; "" for a chain's breaker
	threshold     int
	cooldownCalls int64

	mu       sync.Mutex
	state    BreakerState
	probing  bool  // a half-open trial call is in flight
	fails    int   // consecutive failures while closed/half-open
	rejected int64 // rejections since the breaker last opened

	rec         *obs.Recorder
	opensCtr    *obs.Counter
	rejectedCtr *obs.Counter
	stateGauge  *obs.Gauge
}

// NewBreaker builds a breaker per cfg's Breaker fields. Build makes a
// chain's with name ""; the router makes one per replica and guards
// forwards and probes with Do. A non-empty name labels the transition
// events and suffixes the state gauge (GaugeBreakerState + "_" + name),
// so breakers sharing a recorder stay distinguishable.
func NewBreaker(cfg Config, rec *obs.Recorder, name string) *Breaker {
	gaugeName := obs.GaugeBreakerState
	if name != "" {
		gaugeName += "_" + name
	}
	b := &Breaker{
		name:          name,
		threshold:     cfg.BreakerThreshold,
		cooldownCalls: cfg.BreakerCooldownCalls,
		rec:           rec,
		opensCtr:      counter(rec, obs.CounterBreakerOpens),
		rejectedCtr:   counter(rec, obs.CounterBreakerRejected),
		stateGauge:    rec.Gauge(gaugeName),
	}
	// Publish the initial (closed) state so scrapes can tell "closed"
	// from "no breaker" by the gauge's presence.
	b.stateGauge.Set(int64(BreakerClosed))
	if b.threshold <= 0 {
		b.threshold = 5
	}
	if b.cooldownCalls <= 0 {
		b.cooldownCalls = 100 // an open breaker must always recover
	}
	return b
}

// State returns the current breaker state.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Do runs op under the breaker's admission and outcome accounting:
// rejected with ErrBreakerOpen while open (or while another half-open
// trial is in flight), otherwise op's error counts against the backend
// (settle). A context error is the caller giving up, and does not
// count, only when ctx itself has ended; op's own deadline firing while
// ctx is live counts like any other failure.
func (b *Breaker) Do(ctx context.Context, op func(context.Context) error) error {
	wasProbe, err := b.admit(ctx)
	if err != nil {
		return err
	}
	return b.settle(ctx, op(ctx), wasProbe)
}

// admit decides whether a call may reach the backend. It returns
// wasProbe=true when this call is the single half-open trial — the
// caller must hand that flag back to settle so the probing slot is
// released whatever the outcome.
func (b *Breaker) admit(ctx context.Context) (wasProbe bool, err error) {
	b.mu.Lock()
	if b.state == BreakerOpen {
		if b.rejected < b.cooldownCalls {
			b.rejected++
			b.mu.Unlock()
			b.rejectedCtr.Inc()
			return false, ErrBreakerOpen
		}
		b.transition(ctx, BreakerHalfOpen)
	}
	if b.state == BreakerHalfOpen {
		// Exactly one trial call probes the backend; concurrent calls
		// lose the race and are rejected as if the breaker were open.
		if b.probing {
			b.mu.Unlock()
			b.rejectedCtr.Inc()
			return false, ErrBreakerOpen
		}
		b.probing = true
		wasProbe = true
	}
	b.mu.Unlock()
	return wasProbe, nil
}

// settle records a call's outcome and returns err unchanged. A context
// error counts as the caller giving up only when ctx has ended too;
// otherwise it was the backend's own deadline, and counts. A probe
// always releases the probing slot, even when the caller gave up:
// giving up neither closes nor re-opens the breaker, it just frees the
// slot for the next trial.
func (b *Breaker) settle(ctx context.Context, err error, wasProbe bool) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if wasProbe {
		b.probing = false
	}
	if err != nil {
		if canceled(err) && ctx.Err() != nil {
			return err // the caller gave up; not the backend's fault
		}
		b.fails++
		if (b.state == BreakerHalfOpen && wasProbe) || (b.state == BreakerClosed && b.fails >= b.threshold) {
			b.open(ctx)
		}
		return err
	}
	b.fails = 0
	if b.state == BreakerHalfOpen && wasProbe {
		b.transition(ctx, BreakerClosed)
	}
	return nil
}

// open moves to BreakerOpen, restarting the cooldown count. Caller
// holds mu.
func (b *Breaker) open(ctx context.Context) {
	b.rejected = 0
	b.opensCtr.Inc()
	b.transition(ctx, BreakerOpen)
}

// transition records a state change: it emits the breaker_state event
// and, when the triggering call's context carries a span, attaches a
// "breaker" marker child naming the state edge. Caller holds mu; the
// recorder and spans have their own locks (taken parent-before-child,
// never back into mu), so both are deadlock-free under mu.
func (b *Breaker) transition(ctx context.Context, to BreakerState) {
	from := b.state
	b.state = to
	b.stateGauge.Set(int64(to))
	edge := from.String() + "->" + to.String()
	b.rec.Emit(obs.Event{
		Type:  obs.EventBreakerState,
		Tuple: -1,
		State: edge,
		Name:  b.name,
	})
	if sp := obs.SpanFromContext(ctx); sp != nil {
		c := sp.Child("breaker")
		c.SetAttr("state", edge)
		c.End()
	}
}
