package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"shahin/internal/obs"
)

// Protocol is the explain wire protocol, written once for both serving
// tiers (shahin-serve and the shahin-router in front of it). Mount owns
// everything a caller can observe that is not an explanation: the
// bounded strict body decode, batch and tuple-width validation, trace
// identity, the per-tuple fan-out, the status fold, Retry-After, the
// JSON writer and the two probes. A tier supplies only what differs —
// T is its per-tuple answer.
type Protocol[T any] struct {
	// Width is the tuple width a request must carry; 0 leaves it unchecked.
	Width int
	// Ready is the readiness predicate behind GET /readyz; Unready is
	// the line its 503 says while Ready is false.
	Ready   func() bool
	Unready string
	// Admit, when set, runs before the body is read and brackets the
	// whole request: an error sheds it with 429, otherwise release runs
	// once the answer is written. One request is one admission however
	// many tuples it carries.
	Admit func() (release func(), err error)
	// Bind checks the request's explainer name (an error is the
	// request's 400) and returns the function that explains one tuple
	// under trace context tc, whose parent span is parent. That function
	// returns the tuple's answer and HTTP status; its error is non-nil
	// when the tier has no answer to relay at all — alone, such a tuple
	// is answered with the bare error body every refusal gets; in a
	// batch, T keeps its slot.
	Bind func(explainer string) (func(ctx context.Context, tuple []float64, tc obs.TraceContext, parent string) (T, int, error), error)
	// Replicas, when set, is the tier's fleet view, GET /replicas.
	Replicas func() any
}

// maxBodyBytes bounds request bodies; a batch of a few thousand wide
// tuples fits comfortably.
const maxBodyBytes = 8 << 20

// Mount registers the protocol on mux:
//
//	POST /v1/explain        explain one tuple; answers the bare T
//	POST /v1/explain/batch  explain a batch; answers BatchResponse[T]
//	GET  /healthz           liveness (200 while the process runs)
//	GET  /readyz            readiness (503 + the Unready line)
//	GET  /replicas          the fleet view, when the tier has one
//
// The explain endpoints honour an incoming W3C traceparent header (the
// answer joins the caller's trace as a child) and always echo the
// resolved identity back via Traceparent and X-Shahin-Trace-Id.
func (p Protocol[T]) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/explain", func(w http.ResponseWriter, r *http.Request) { p.explain(w, r, true) })
	mux.HandleFunc("POST /v1/explain/batch", func(w http.ResponseWriter, r *http.Request) { p.explain(w, r, false) })
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if !p.Ready() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, p.Unready)
			return
		}
		fmt.Fprintln(w, "ready")
	})
	if p.Replicas != nil {
		mux.HandleFunc("GET /replicas", func(w http.ResponseWriter, _ *http.Request) {
			writeJSON(w, http.StatusOK, p.Replicas())
		})
	}
}

// explain answers both explain endpoints: POST /v1/explain is a batch
// of one whose answer is written without the batch envelope. Tuples are
// explained concurrently and individually — on shahin-serve each is a
// Warm call of its own like a single's, on the router each keeps its
// own affinity — the answer keeps input
// order, and the HTTP status is the worst per-tuple status.
func (p Protocol[T]) explain(w http.ResponseWriter, r *http.Request, single bool) {
	if p.Admit != nil {
		release, err := p.Admit()
		if err != nil {
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		defer release()
	}
	var (
		one  ExplainRequest
		req  BatchRequest
		body any = &req
	)
	if single {
		body = &one
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(body); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decoding request body: %w", err))
		return
	}
	if single {
		req = BatchRequest{Tuples: [][]float64{one.Tuple}, Explainer: one.Explainer}
	}
	if len(req.Tuples) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("empty tuple batch"))
		return
	}
	for i, tuple := range req.Tuples {
		if p.Width > 0 && len(tuple) != p.Width {
			err := fmt.Errorf("tuple has %d cells, schema expects %d", len(tuple), p.Width)
			if !single {
				err = fmt.Errorf("tuple %d: %w", i, err)
			}
			writeError(w, http.StatusBadRequest, err)
			return
		}
	}
	explain, err := p.Bind(req.Explainer)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	// The request's identity is a child of the caller's traceparent when
	// a valid one came in (parent is then the caller's span), a fresh
	// root trace otherwise. It is echoed in full for propagation-aware
	// callers and as the bare trace ID for humans correlating against
	// GET /requests.
	tc, parent := obs.NewTraceContext(), ""
	if in, err := obs.ParseTraceparent(r.Header.Get("traceparent")); err == nil {
		tc, parent = in.Child(), in.SpanID
	}
	w.Header().Set("Traceparent", tc.Traceparent())
	w.Header().Set("X-Shahin-Trace-Id", tc.TraceID)

	// A batch shares one trace: its identity parents one child context
	// per tuple, so every tuple's span carries the batch's trace ID with
	// a span ID of its own. A lone tuple is the request.
	resp := BatchResponse[T]{Explanations: make([]T, len(req.Tuples)), Count: len(req.Tuples)}
	codes := make([]int, len(req.Tuples))
	refusals := make([]error, len(req.Tuples)) // read for a lone tuple only; a batched refusal's text is in its slot
	var wg sync.WaitGroup
	for i, tuple := range req.Tuples {
		itc, iparent := tc, parent
		if !single {
			itc, iparent = tc.Child(), tc.SpanID
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp.Explanations[i], codes[i], refusals[i] = explain(r.Context(), tuple, itc, iparent)
		}()
	}
	wg.Wait()
	worst := http.StatusOK
	for _, c := range codes {
		worst = max(worst, c)
	}
	switch {
	case !single:
		writeJSON(w, worst, resp)
	case refusals[0] != nil:
		writeError(w, worst, refusals[0])
	default:
		writeJSON(w, worst, resp.Explanations[0])
	}
}

// errorResponse is the JSON body of every answer that carries no
// per-tuple result.
type errorResponse struct {
	Error string `json:"error"`
}

// writeError writes a JSON error body with the given status code.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, errorResponse{Error: err.Error()})
}

// writeJSON writes v as compact JSON with the given status code. Shed
// (429) and unavailable (503) answers are marked retryable so clients
// and front tiers back off instead of hammering.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if code == http.StatusServiceUnavailable || code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v) //shahinvet:allow errcheck — the status line is already sent; a broken client pipe has no recovery
}
