package fault

import (
	"context"
	"time"

	"shahin/internal/obs"
)

// maxRetrySpans bounds the "retry" marker spans under one root: enough
// to see the backoff schedule in a trace, bounded against outage storms.
const maxRetrySpans = 64

// retry attempts x up to 1+MaxRetries times while the failure is
// transient, sleeping a capped exponential backoff between attempts
// (the sleep respects ctx). Jitter is a pure hash of (seed, call,
// attempt) — not an RNG draw — so concurrent callers cannot perturb
// each other's delays and any call's schedule is reproducible. When ctx
// carries a span, each retry attaches a bounded "retry" marker child
// covering its backoff window.
func (c *Chain) retry(ctx context.Context, x []float64) (int, error) {
	call := c.calls.Add(1) - 1
	for attempt := 0; ; attempt++ {
		y, err := c.attempt(ctx, x)
		if err == nil || attempt >= c.cfg.MaxRetries || !Retryable(err) {
			return y, err
		}
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		c.retries.Add(1)
		c.retriesCtr.Inc()
		span := noteRetry(ctx, attempt)
		err = sleep(ctx, c.backoff(call, attempt))
		span.End() // nil-safe
		if err != nil {
			return 0, err
		}
	}
}

// noteRetry attaches a "retry" marker child to the span carried by ctx
// (nil without one), at most maxRetrySpans under that span. The caller
// ends it once the backoff window closes.
func noteRetry(ctx context.Context, attempt int) *obs.Span {
	s := obs.SpanFromContext(ctx).Mark("retry", maxRetrySpans)
	s.SetAttr("attempt", attempt+1) // nil-safe
	return s
}

// backoff returns the delay before retry number attempt+1: capped
// exponential growth from RetryBase, jittered by ±RetryJitter of the
// delay.
func (c *Chain) backoff(call int64, attempt int) time.Duration {
	d := c.cfg.RetryBase << uint(attempt)
	if d > c.cfg.RetryMax || d <= 0 { // <= 0 guards shift overflow
		d = c.cfg.RetryMax
	}
	h := unit(splitmix64(uint64(c.cfg.Seed) ^ uint64(call)<<16 ^ uint64(attempt)))
	return time.Duration(float64(d) * (1 + c.cfg.RetryJitter*(2*h-1)))
}

// splitmix64 is the deterministic hash behind fault draws and backoff
// jitter: cheap, stateless, and independent of goroutine interleaving.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// unit maps a hash to [0,1).
func unit(h uint64) float64 { return float64(h>>11) / float64(1<<53) }
