package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"shahin/internal/core"
	"shahin/internal/obs"
	"shahin/internal/store"
)

// ExplainRequest is the POST /v1/explain body: one raw tuple in the
// dataset's column order (categorical cells as value indices, numeric
// cells as values — the same encoding shahin-datagen CSVs use).
//
// Explainer optionally names the explainer to answer with. Empty means
// the server's configured kind. "exactshap" requests the exact TreeSHAP
// fast path: when the backend qualifies (owned tree ensemble, no fault
// chain) the tuple is answered directly — no admission, no perturbation
// sampling — with Source "exact"; otherwise it is admitted like any
// other tuple and the server's configured kind answers. Any other
// name must match the server's kind or the request is rejected with
// 400.
type ExplainRequest struct {
	Tuple     []float64 `json:"tuple"`
	Explainer string    `json:"explainer,omitempty"`
}

// BatchRequest is the POST /v1/explain/batch body. Explainer applies to
// every tuple in the batch, with the same semantics as
// ExplainRequest.Explainer.
type BatchRequest struct {
	Tuples    [][]float64 `json:"tuples"`
	Explainer string      `json:"explainer,omitempty"`
}

// ExplainResponse is the per-tuple answer. Status mirrors
// core.Explanation.Status ("ok", "degraded", "failed"); Source is
// "store" for exact-repeat hits answered from the explanation store,
// "exact" for tuples answered by the exact TreeSHAP fast path, and
// "computed" for tuples the warm explainer computed. WaitMS is the time
// the request spent in the service, gate wait included; Stages breaks it
// down per pipeline stage, and TraceID is the request's trace identity
// (resolvable via GET /requests?trace=<id> while retained).
type ExplainResponse struct {
	Explanation core.Explanation    `json:"explanation"`
	Status      string              `json:"status"`
	Source      string              `json:"source"`
	WaitMS      float64             `json:"wait_ms"`
	TraceID     string              `json:"trace_id,omitempty"`
	Stages      *obs.StageBreakdown `json:"stages,omitempty"`
	// Error explains a rejected tuple (source "rejected"): "draining"
	// rejections answer 503, queue-full load shedding answers 429, both
	// with a Retry-After header. Empty on served tuples.
	Error string `json:"error,omitempty"`
}

// BatchResponse is the POST /v1/explain/batch answer: one per-tuple
// answer T — ExplainResponse here, the router's wrapper of it there —
// per input tuple, in input order.
type BatchResponse[T any] struct {
	Explanations []T `json:"explanations"`
	Count        int `json:"count"`
}

// Handler returns the service's HTTP API: the explain protocol
// (Protocol.Mount lists its endpoints) answered by this server's store,
// exact path and warm explainer, plus
//
//	GET  /snapshot          explanation-store snapshot (checksummed, versioned)
//	GET  /requests          slow-request exemplars (?trace=<id> for one)
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	Protocol[ExplainResponse]{
		Width:   s.warm.NumAttrs(),
		Ready:   func() bool { return !s.draining.Load() },
		Unready: "draining",
		Bind: func(explainer string) (func(context.Context, []float64, obs.TraceContext, string) (ExplainResponse, int, error), error) {
			wantExact, err := s.resolveExplainer(explainer)
			if err != nil {
				return nil, err
			}
			return func(ctx context.Context, tuple []float64, tc obs.TraceContext, parent string) (ExplainResponse, int, error) {
				resp, code := s.explainOne(ctx, tuple, wantExact, tc, parent)
				return resp, code, nil
			}, nil
		},
	}.Mount(mux)
	mux.HandleFunc("GET /snapshot", s.handleSnapshot)
	mux.HandleFunc("GET /requests", obs.RequestsHandler(s.rec))
	return mux
}

// Transport headers on GET /snapshot answers: the snapshot's schema
// version and an FNV-64a checksum over the response body, so a peer
// can reject a damaged or incompatible transfer before decoding it.
const (
	headerStoreVersion  = "X-Shahin-Store-Version"
	headerStoreChecksum = "X-Shahin-Store-Checksum"
	headerStoreCount    = "X-Shahin-Store-Count"
)

// handleSnapshot answers GET /snapshot with the explanation store in
// the versioned snapshot format store.Save writes, plus transport
// headers (version, checksum, entry count). It keeps answering during
// drain — a draining replica is exactly the peer a restarted neighbour
// wants to warm from.
func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	var buf bytes.Buffer
	s.storeMu.RLock()
	err := s.store.Save(&buf)
	count := s.store.Len()
	s.storeMu.RUnlock()
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	w.Header().Set(headerStoreVersion, strconv.FormatUint(uint64(store.SnapshotVersion), 10))
	w.Header().Set(headerStoreChecksum, fmt.Sprintf("%016x", store.Fingerprint(buf.Bytes())))
	w.Header().Set(headerStoreCount, strconv.Itoa(count))
	w.Write(buf.Bytes()) //shahinvet:allow errcheck — the status line is already sent; a broken client pipe has no recovery
}

// resolveExplainer validates a request's optional explainer field
// against the server's configuration. An exact-SHAP request is always
// admissible (it degrades to the computed path when the backend does
// not qualify); any other named kind must match the kind the warm server
// was started with, because the warm explainer computes with exactly
// one explainer.
func (s *Server) resolveExplainer(name string) (wantExact bool, err error) {
	if name == "" {
		return false, nil
	}
	kind, err := core.ParseKind(name)
	if err != nil {
		return false, err
	}
	if kind == core.ExactSHAP {
		return true, nil
	}
	if kind != s.warm.Kind() {
		return false, fmt.Errorf("explainer %q not served here (server runs %s)", name, s.warm.Kind())
	}
	return false, nil
}

// explainOne answers one tuple and accounts for it. answer picks the
// path — exact, store, computed — and reports what happened as one
// outcome; everything a request leaves behind is built from it here:
// the response, the request histogram, and the exemplar offered to the
// slow-request ring, which is also the request's span tree.
func (s *Server) explainOne(ctx context.Context, tuple []float64, wantExact bool, tc obs.TraceContext, parent string) (ExplainResponse, int) {
	start := time.Now() //shahinvet:allow walltime — request latency feeds the serving histograms
	s.rec.Counter(obs.CounterServeRequests).Inc()

	out := s.answer(ctx, tuple, wantExact, start)

	elapsed := time.Since(start)
	if s.rec != nil {
		s.rec.Histogram(obs.HistServeRequest).Observe(elapsed)
	}
	status := out.exp.Status.String()
	if out.code != http.StatusOK {
		status = core.StatusFailed.String()
	}
	resp := ExplainResponse{
		Explanation: out.exp,
		Status:      status,
		Source:      out.source,
		WaitMS:      float64(elapsed) / float64(time.Millisecond),
		TraceID:     tc.TraceID,
	}
	if out.err != nil {
		resp.Error = out.err.Error()
	}
	if !out.bd.IsZero() {
		// Time the stages cannot see (lookup and admission before the
		// call, the store write after it) is serving overhead too: it
		// is folded into the stage that owns the path, so the breakdown
		// explains the whole wait, measured by the same clock reading as
		// wait_ms.
		if residual := elapsed - out.bd.Total(); residual > 0 {
			if out.source == "computed" {
				out.bd.BatchAssembly += residual
			} else {
				out.bd.Solve += residual
			}
		}
		bd := out.bd // a copy, so only the breakdown moves to the heap
		resp.Stages = &bd
	}
	s.rec.OfferRequest(obs.RequestTrace{
		TraceID:  tc.TraceID,
		SpanID:   tc.SpanID,
		ParentID: parent,
		Name:     "request",
		Source:   out.source,
		Status:   status,
		Flush:    out.flush,
		DurMS:    resp.WaitMS,
		Stages:   out.bd,
		Start:    start,
	})
	return resp, out.code
}

// answer runs one tuple through the exact fast path, the store fast
// path, or admission and one Warm call, and maps what happened to a
// source and an HTTP status code. It never hangs: a refusal or a
// deadline is an outcome too.
func (s *Server) answer(ctx context.Context, tuple []float64, wantExact bool, start time.Time) outcome {
	// An exact-SHAP request bypasses both the store (which holds the
	// server kind's answers) and admission: the polynomial tree walk
	// is cheaper than either. When the backend does not qualify, the
	// request silently degrades to the computed path —
	// the serving analogue of core's exact_fallback.
	if wantExact {
		exp, cost, err := s.warm.ExplainExact(tuple)
		switch {
		case err == nil:
			return outcome{exp: exp, source: "exact", code: http.StatusOK, bd: cost.Stages}
		case !errors.Is(err, core.ErrExactUnavailable):
			return outcome{source: "exact", code: http.StatusInternalServerError, err: err}
		}
	}

	if exp, ok := s.lookup(tuple); ok {
		s.rec.Counter(obs.CounterServeStoreHits).Inc()
		// A store hit never waits or classifies: the whole elapsed time
		// is lookup, attributed to the solve stage so coverage stays total.
		return outcome{exp: exp, source: "store", code: http.StatusOK, bd: obs.StageBreakdown{Solve: time.Since(start)}}
	}

	if err := s.admit(); err != nil {
		// Draining is 503 (the replica is going away; a front tier
		// should fail over); a full queue is 429 load shedding (the
		// replica is alive but saturated; the caller should back off).
		// Both answer a JSON body naming the reason.
		code := http.StatusServiceUnavailable
		if errors.Is(err, errQueueFull) {
			code = http.StatusTooManyRequests
		}
		return outcome{source: "rejected", code: code, err: err}
	}
	defer s.release()
	return s.compute(ctx, tuple)
}
