package router

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"time"

	"shahin/internal/obs"
	"shahin/internal/serve"
)

// Route is the routing provenance attached to every answer: which
// replica served the tuple, how many failovers it took to get there,
// and whether the routing itself was degraded (served by a fallback
// node instead of the affinity owner — pool reuse suffers but the
// answer is real).
type Route struct {
	Replica   string `json:"replica"`
	Failovers int    `json:"failovers,omitempty"`
	Degraded  bool   `json:"degraded,omitempty"`
}

// ExplainResponse is the router's POST /v1/explain answer: the serving
// replica's response plus routing provenance.
type ExplainResponse struct {
	serve.ExplainResponse
	Route Route `json:"route"`
}

// BatchResponse is the router's POST /v1/explain/batch answer, one
// ExplainResponse per input tuple in input order.
type BatchResponse = serve.BatchResponse[ExplainResponse]

// Handler returns the router's HTTP API: serve's explain protocol
// (serve.Protocol.Mount lists its endpoints), each tuple forwarded to
// its affinity replica, under the router's own admission bound, plus
// GET /replicas (per-replica health and breaker state). The caller's
// traceparent propagates through the hop — the replica's spans join the
// caller's trace.
func (rt *Router) Handler() http.Handler {
	width := 0
	if rt.cfg.Stats != nil {
		width = rt.cfg.Stats.NumAttrs()
	}
	mux := http.NewServeMux()
	serve.Protocol[ExplainResponse]{
		Width:   width,
		Ready:   func() bool { return rt.Healthy() > 0 },
		Unready: "no healthy replicas",
		Admit:   rt.admit,
		Bind: func(explainer string) (func(context.Context, []float64, obs.TraceContext, string) (ExplainResponse, int, error), error) {
			return func(ctx context.Context, tuple []float64, tc obs.TraceContext, _ string) (ExplainResponse, int, error) {
				return rt.explainOne(ctx, tuple, explainer, tc)
			}, nil
		},
		Replicas: func() any { return rt.Status() },
	}.Mount(mux)
	return mux
}

// admit takes one in-flight slot without blocking, or sheds the
// request. An admitted request — a batch of n forwards its n tuples
// under the one slot — is counted, and timed until release.
func (rt *Router) admit() (release func(), err error) {
	select {
	case rt.inflight <- struct{}{}:
	default:
		rt.rec.Counter(obs.CounterRouterShed).Inc()
		return nil, errors.New("router: too many in-flight requests")
	}
	start := time.Now() //shahinvet:allow walltime — request latency feeds the router histogram
	rt.rec.Counter(obs.CounterRouterRequests).Inc()
	return func() {
		if rt.rec != nil {
			rt.rec.Histogram(obs.HistRouterRequest).Observe(time.Since(start))
		}
		<-rt.inflight
	}, nil
}

// explainOne routes one tuple and relays its replica's answer and
// status code with the routing provenance attached. It never hangs and
// never drops: when no replica answers, the error says so (the caller's
// 503) and the response is the failed slot a batch keeps for the tuple.
func (rt *Router) explainOne(ctx context.Context, tuple []float64, explainer string, tc obs.TraceContext) (ExplainResponse, int, error) {
	seq := rt.route(tuple, nil, nil)
	preferred := seq[0]
	ordered := rt.orderByHealth(seq, make([]int, 0, len(seq)))

	body, err := json.Marshal(serve.ExplainRequest{Tuple: tuple, Explainer: explainer})
	if err != nil {
		return rejected(err), http.StatusInternalServerError, err
	}
	ans, served, failovers, err := rt.explainVia(ctx, ordered, body, tc.Traceparent())
	if err != nil {
		return rejected(err), http.StatusServiceUnavailable, err
	}
	return ExplainResponse{
		ExplainResponse: ans.resp,
		Route: Route{
			Replica:   rt.replicas[served].name,
			Failovers: failovers,
			Degraded:  served != preferred,
		},
	}, ans.status, nil
}

// rejected is the slot a batch keeps for a tuple no replica answered.
func rejected(err error) ExplainResponse {
	return ExplainResponse{ExplainResponse: serve.ExplainResponse{Status: "failed", Source: "rejected", Error: err.Error()}}
}
