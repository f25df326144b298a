package fault

import (
	"context"
	"errors"
	"testing"
	"time"

	"shahin/internal/obs"
)

// retryChildren collects the "retry" marker children of a span dump in
// order.
func retryChildren(d *obs.SpanDump) []*obs.SpanDump {
	var out []*obs.SpanDump
	for _, c := range d.Children {
		if c.Name == "retry" {
			out = append(out, c)
		}
	}
	return out
}

// TestRetrySpans checks that a context-carried span gains one "retry"
// marker child per reattempt, stamped with the 1-based attempt number.
func TestRetrySpans(t *testing.T) {
	rec := obs.NewRecorder()
	root := rec.StartSpan("request")
	ctx := obs.ContextWithSpan(context.Background(), root)

	inner := &scripted{errs: []error{ErrInjected, ErrInjected, nil}}
	r := newRetrier(inner, Config{MaxRetries: 3, RetryBase: time.Microsecond}, nil)
	if y, err := r.PredictCtx(ctx, nil); err != nil || y != 1 {
		t.Fatalf("PredictCtx=(%d,%v), want (1,nil)", y, err)
	}
	root.End()

	got := retryChildren(rec.Trace()[0])
	if len(got) != 2 {
		t.Fatalf("retry spans=%d, want 2", len(got))
	}
	for i, c := range got {
		if c.Attrs["attempt"] != i+1 {
			t.Errorf("retry span %d: attempt=%v, want %d", i, c.Attrs["attempt"], i+1)
		}
	}
}

// TestRetrySpansWithoutContextSpan checks the retrier stays silent (and
// does not panic) when the context carries no span.
func TestRetrySpansWithoutContextSpan(t *testing.T) {
	inner := &scripted{errs: []error{ErrInjected, nil}}
	r := newRetrier(inner, Config{MaxRetries: 2, RetryBase: time.Microsecond}, nil)
	if _, err := r.PredictCtx(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if got := r.spanned.Load(); got != 0 {
		t.Errorf("spanned=%d without a context span, want 0", got)
	}
}

// TestRetrySpanCap drives an outage storm past maxRetrySpans and checks
// the marker spans stop at the cap, with the last one flagged truncated,
// while the retry counter keeps the true total.
func TestRetrySpanCap(t *testing.T) {
	rec := obs.NewRecorder()
	root := rec.StartSpan("request")
	ctx := obs.ContextWithSpan(context.Background(), root)

	const calls = 40 // 2 retries each = 80 attempts, past the 64-span cap
	errsAll := make([]error, 3*calls)
	for i := range errsAll {
		errsAll[i] = ErrInjected
	}
	r := newRetrier(&scripted{errs: errsAll}, Config{MaxRetries: 2, RetryBase: time.Microsecond}, nil)
	for i := 0; i < calls; i++ {
		if _, err := r.PredictCtx(ctx, nil); !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d err=%v, want ErrInjected", i, err)
		}
	}
	root.End()

	if got := r.retries.Load(); got != 2*calls {
		t.Fatalf("retries=%d, want %d", got, 2*calls)
	}
	got := retryChildren(rec.Trace()[0])
	if len(got) != maxRetrySpans {
		t.Fatalf("retry spans=%d, want cap %d", len(got), maxRetrySpans)
	}
	last := got[len(got)-1]
	if last.Attrs["truncated"] != true {
		t.Errorf("final capped span lacks the truncated flag: %v", last.Attrs)
	}
}

// TestBreakerTransitionSpans trips a breaker and walks it back to
// closed, checking each state edge leaves a "breaker" marker child on
// the span carried by the triggering call's context.
func TestBreakerTransitionSpans(t *testing.T) {
	rec := obs.NewRecorder()
	root := rec.StartSpan("request")
	ctx := obs.ContextWithSpan(context.Background(), root)

	inner := &scripted{errs: []error{ErrInjected, ErrInjected}}
	b := NewBreaker(inner, Config{BreakerThreshold: 2, BreakerCooldownCalls: 1}, nil)

	for i := 0; i < 2; i++ {
		if _, err := b.PredictCtx(ctx, nil); !errors.Is(err, ErrInjected) {
			t.Fatalf("call %d err=%v", i, err)
		}
	}
	if _, err := b.PredictCtx(ctx, nil); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("cooldown rejection err=%v, want ErrBreakerOpen", err)
	}
	if y, err := b.PredictCtx(ctx, nil); err != nil || y != 1 {
		t.Fatalf("probe=(%d,%v), want (1,nil)", y, err)
	}
	root.End()

	want := []string{"closed->open", "open->half-open", "half-open->closed"}
	var got []string
	for _, c := range rec.Trace()[0].Children {
		if c.Name == "breaker" {
			got = append(got, c.Attrs["state"].(string))
		}
	}
	if len(got) != len(want) {
		t.Fatalf("breaker spans=%v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("breaker edge %d = %q, want %q", i, got[i], want[i])
		}
	}
}
