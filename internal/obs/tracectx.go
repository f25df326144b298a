package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
	"sync/atomic"
)

// TraceContext is the request-scoped distributed-tracing identity the
// serving stack threads through context.Context: a 128-bit trace ID
// shared by every span of one request's journey and a 64-bit span ID
// naming the current hop, both lowercase hex per the W3C Trace Context
// specification. The zero value is invalid (all-zero IDs are reserved).
type TraceContext struct {
	// TraceID is 32 lowercase hex characters, not all zero.
	TraceID string
	// SpanID is 16 lowercase hex characters, not all zero.
	SpanID string
	// Flags is the trace-flags octet (bit 0 = sampled).
	Flags byte
}

// Valid reports whether both IDs are well-formed (correct length,
// lowercase hex, not all zero).
func (tc TraceContext) Valid() bool {
	return validHexID(tc.TraceID, 32) && validHexID(tc.SpanID, 16)
}

// validHexID checks an n-character lowercase-hex ID that is not all
// zeros, per the traceparent grammar.
func validHexID(s string, n int) bool {
	return len(s) == n && isHex(s) && strings.Trim(s, "0") != ""
}

// Traceparent renders the context as a version-00 W3C traceparent
// header value: "00-<trace-id>-<span-id>-<flags>".
func (tc TraceContext) Traceparent() string {
	return fmt.Sprintf("00-%s-%s-%02x", tc.TraceID, tc.SpanID, tc.Flags)
}

// ParseTraceparent parses a W3C traceparent header value. Unknown
// versions are accepted as long as the first four fields are
// well-formed (the spec requires forward compatibility); version "ff"
// and malformed or all-zero IDs are rejected.
func ParseTraceparent(s string) (TraceContext, error) {
	parts := strings.Split(strings.TrimSpace(s), "-")
	if len(parts) < 4 {
		return TraceContext{}, fmt.Errorf("obs: traceparent %q: want version-traceid-spanid-flags", s)
	}
	version := strings.ToLower(parts[0])
	if len(version) != 2 || !isHex(version) || version == "ff" {
		return TraceContext{}, fmt.Errorf("obs: traceparent %q: bad version %q", s, parts[0])
	}
	if version == "00" && len(parts) != 4 {
		return TraceContext{}, fmt.Errorf("obs: traceparent %q: version 00 takes exactly four fields", s)
	}
	flagsHex := strings.ToLower(parts[3])
	if len(flagsHex) != 2 || !isHex(flagsHex) {
		return TraceContext{}, fmt.Errorf("obs: traceparent %q: bad flags %q", s, parts[3])
	}
	var flags byte
	if b, err := hex.DecodeString(flagsHex); err == nil {
		flags = b[0]
	}
	tc := TraceContext{
		TraceID: strings.ToLower(parts[1]),
		SpanID:  strings.ToLower(parts[2]),
		Flags:   flags,
	}
	if !tc.Valid() {
		return TraceContext{}, fmt.Errorf("obs: traceparent %q: invalid trace or span id", s)
	}
	return tc, nil
}

// isHex reports whether s is entirely lowercase hex.
func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= '0' && c <= '9' || c >= 'a' && c <= 'f') {
			return false
		}
	}
	return true
}

// NewTraceContext mints a fresh sampled trace: random trace and span
// IDs from the OS entropy source.
func NewTraceContext() TraceContext {
	return TraceContext{TraceID: randHex(16), SpanID: randHex(8), Flags: 1}
}

// Child derives the context of a new span within the same trace: the
// trace ID and flags are inherited, the span ID is fresh. The receiver
// becomes the child's parent.
func (tc TraceContext) Child() TraceContext {
	return TraceContext{TraceID: tc.TraceID, SpanID: randHex(8), Flags: tc.Flags}
}

// idCounter backs ID generation if the entropy source ever fails:
// process-local uniqueness is all the exemplar ring needs.
var idCounter atomic.Uint64

// randHex returns 2n lowercase hex characters of randomness, never all
// zero.
func randHex(n int) string {
	b := make([]byte, n)
	if _, err := crand.Read(b); err != nil {
		binary.BigEndian.PutUint64(b[len(b)-8:], idCounter.Add(1)|1<<63)
	}
	allZero := true
	for _, c := range b {
		if c != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		b[len(b)-1] = 1
	}
	return hex.EncodeToString(b)
}

// traceCtxKey and spanCtxKey key the context.Context plumbing.
type (
	traceCtxKey struct{}
	spanCtxKey  struct{}
)

// ContextWithTrace returns ctx carrying tc, so a request's trace
// identity survives the hop from the HTTP handler through the admission
// queue into the core explain paths. Invalid contexts are not attached.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	if !tc.Valid() {
		return ctx
	}
	return context.WithValue(ctx, traceCtxKey{}, tc)
}

// TraceFromContext extracts the trace identity attached by
// ContextWithTrace, reporting whether one was present.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	tc, ok := ctx.Value(traceCtxKey{}).(TraceContext)
	return tc, ok
}

// ContextWithSpan returns ctx carrying a live span, so layers deep in
// the stack (the fault chain's retries, breaker transitions, and
// degradation rungs) can attach child spans to the stage that invoked
// them without threading the span explicitly. A nil span is not
// attached.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, s)
}

// SpanFromContext extracts the span attached by ContextWithSpan (nil
// when absent, so the result can be used directly — span methods no-op
// on nil).
func SpanFromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(spanCtxKey{}).(*Span)
	return s
}

// RootContext returns a fresh detached context for lifecycle roots:
// server-lifetime cancellation and other state
// that deliberately outlives any single request. It is the repo's one
// sanctioned constructor for such roots — request paths must forward
// their incoming context instead (the ctxflow check enforces this on
// serve/fault packages and *Ctx functions), so grepping for
// obs.RootContext inventories every place a detached root is created
// on purpose.
func RootContext() context.Context {
	return context.Background()
}
