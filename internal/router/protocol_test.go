package router

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"shahin/internal/core"
	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/explain/lime"
	"shahin/internal/obs"
	"shahin/internal/rf"
	"shahin/internal/serve"
)

// protoEnv is what both tiers of the conformance test are built over.
type protoEnv struct {
	st     *dataset.Stats
	tuples [][]float64
}

func newProtoEnv(t *testing.T) *protoEnv {
	t.Helper()
	cfg := &datagen.Config{
		Name: "proto",
		Cat:  []datagen.CatSpec{{Card: 4, Skew: 1.2}, {Card: 3, Skew: 1.0}, {Card: 5, Skew: 1.2}},
		Num:  []datagen.NumSpec{{Mean: 0, Std: 1}},
	}
	d, err := cfg.Generate(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	return &protoEnv{st: st, tuples: d.Rows(0, 8)}
}

// firstIsZero is the toy model every conformance replica serves.
func firstIsZero(x []float64) int {
	if int(x[0]) == 0 {
		return 1
	}
	return 0
}

// replica starts one real serve.Server over cls, drained at cleanup.
func (e *protoEnv) replica(t *testing.T, cls rf.Classifier, cfg serve.Config) *serve.Server {
	t.Helper()
	warm, err := core.NewWarm(e.st, cls, core.Options{
		Explainer: core.LIME, LIME: lime.Config{NumSamples: 100}, Tau: 20, Seed: 7,
	}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(warm, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Drain(context.Background()) })
	return srv
}

// routerOver fronts the given replicas with a Router.
func (e *protoEnv) routerOver(t *testing.T, cfg Config, replicas ...*serve.Server) *Router {
	t.Helper()
	for _, srv := range replicas {
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		cfg.Replicas = append(cfg.Replicas, ts.URL)
	}
	cfg.Stats, cfg.ProbeInterval = e.st, time.Hour
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

// protoTier is one side of the table: the tier healthy, the tier
// saturated (its next request is shed; undo unblocks it), and the tier
// with nothing behind it that can answer.
type protoTier struct {
	name        string
	live        http.Handler
	saturated   func(t *testing.T) (h http.Handler, undo func())
	unavailable func(t *testing.T) http.Handler
	unready     string // its /readyz refusal line
	refusal     string // what its 503 says
}

func protoTiers(t *testing.T, e *protoEnv) []protoTier {
	model := rf.Func{Classes: 2, F: firstIsZero}
	fast := serve.Config{}
	drained := func(t *testing.T) *serve.Server {
		srv := e.replica(t, model, fast)
		if err := srv.Drain(context.Background()); err != nil {
			t.Fatal(err)
		}
		return srv
	}
	return []protoTier{{
		name: "serve",
		live: e.replica(t, model, fast).Handler(),
		saturated: func(t *testing.T) (http.Handler, func()) {
			// One call is parked in the classifier and the one queue
			// slot is taken: the next tuple has nowhere to go.
			entered, release := make(chan struct{}), make(chan struct{})
			var once sync.Once
			gated := rf.Func{Classes: 2, F: func(x []float64) int {
				once.Do(func() { close(entered) })
				<-release
				return firstIsZero(x)
			}}
			rec := obs.NewRecorder()
			h := e.replica(t, gated, serve.Config{QueueCap: 1, Recorder: rec}).Handler()
			var wg sync.WaitGroup
			park := func(tuple []float64) {
				wg.Add(1)
				go func() {
					defer wg.Done()
					exchange(h, http.MethodPost, "/v1/explain", jsonBody(t, serve.ExplainRequest{Tuple: tuple}), nil)
				}()
			}
			park(e.tuples[0])
			<-entered
			park(e.tuples[1])
			for rec.Gauge(obs.GaugeServeQueueDepth).Value() < 1 {
				time.Sleep(time.Millisecond)
			}
			return h, func() { close(release); wg.Wait() }
		},
		unavailable: func(t *testing.T) http.Handler { return drained(t).Handler() },
		unready:     "draining",
		refusal:     "serve: draining",
	}, {
		name: "router",
		live: e.routerOver(t, Config{}, e.replica(t, model, fast), e.replica(t, model, fast)).Handler(),
		saturated: func(t *testing.T) (http.Handler, func()) {
			rt := e.routerOver(t, Config{MaxInflight: 1}, e.replica(t, model, fast))
			rt.inflight <- struct{}{}
			return rt.Handler(), func() { <-rt.inflight }
		},
		unavailable: func(t *testing.T) http.Handler {
			// A draining replica still answers /healthz: it is the failed
			// forwards that take it out of /readyz.
			return e.routerOver(t, Config{}, drained(t), drained(t)).Handler()
		},
		unready: "no healthy replicas",
		refusal: "router: every replica failed",
	}}
}

// protoAnswer is what the table compares of one exchange.
type protoAnswer struct {
	code    int
	headers string // sorted response header names
	header  http.Header
	raw     []byte
	// err is the answer's error text: the body's "error" field, or the
	// first batch slot's that has one.
	err string
}

func exchange(h http.Handler, method, path string, body []byte, header http.Header) protoAnswer {
	req := httptest.NewRequest(method, path, bytes.NewReader(body))
	for k, vs := range header {
		req.Header[k] = vs
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	a := protoAnswer{code: w.Code, header: w.Header(), raw: w.Body.Bytes()}
	var names []string
	for k := range w.Header() {
		names = append(names, k)
	}
	sort.Strings(names)
	a.headers = strings.Join(names, ",")
	var one struct {
		Error        string
		Explanations []struct{ Error string }
	}
	if json.Unmarshal(a.raw, &one) == nil {
		a.err = one.Error
		for _, s := range one.Explanations {
			if a.err == "" {
				a.err = s.Error
			}
		}
	}
	return a
}

func jsonBody(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestProtocolConformance runs one table against (*serve.Server).Handler
// and (*Router).Handler: the explain protocol is written once
// (serve.Protocol), so whatever it decides — status, header names, error
// text — must come out the same from either tier, and what the tiers
// decide themselves must fit the same shape.
func TestProtocolConformance(t *testing.T) {
	e := newProtoEnv(t)
	tiers := protoTiers(t, e)
	width := len(e.tuples[0])
	const traceHeaders = "Content-Type,Traceparent,X-Shahin-Trace-Id"
	caller := obs.NewTraceContext()
	oversize := append(append([]byte(`{"tuple": [`), bytes.Repeat([]byte("0, "), 3<<20)...), "0]}"...)

	// explanations collects, per tier, the explanation each tuple got
	// when it was sent alone; the batch row must repeat them in order.
	explanations := map[string][]string{}
	type row struct {
		name, method, path string
		body               []byte
		header             http.Header
		code               int
		headers            string
		err                string // substring of the error text; "" for none
		check              func(t *testing.T, tier string, a protoAnswer)
	}
	post := func(name, path string, body []byte, code int, headers, err string) row {
		return row{name: name, method: http.MethodPost, path: path, body: body, code: code, headers: headers, err: err}
	}
	rows := []row{
		post("malformed JSON", "/v1/explain", []byte(`not json`), 400, "Content-Type", "decoding request body: invalid character"),
		post("malformed JSON, batch", "/v1/explain/batch", []byte(`{"tuples": [[1,`), 400, "Content-Type", "decoding request body: unexpected EOF"),
		post("unknown field", "/v1/explain", []byte(`{"unknown_field": 1}`), 400, "Content-Type", `decoding request body: json: unknown field "unknown_field"`),
		post("the other endpoint's field", "/v1/explain/batch", []byte(`{"tuple": [1]}`), 400, "Content-Type", `decoding request body: json: unknown field "tuple"`),
		post("body over 8 MiB", "/v1/explain", oversize, 400, "Content-Type", "decoding request body: http: request body too large"),
		post("empty batch", "/v1/explain/batch", []byte(`{"tuples": []}`), 400, "Content-Type", "empty tuple batch"),
		post("empty tuple", "/v1/explain", []byte(`{"tuple": []}`), 400, "Content-Type", "tuple has 0 cells, schema expects 4"),
		post("wrong width", "/v1/explain", []byte(`{"tuple": [1, 2]}`), 400, "Content-Type", "tuple has 2 cells, schema expects 4"),
		post("wrong width, batch of one", "/v1/explain/batch", []byte(`{"tuples": [[1]]}`), 400, "Content-Type", "tuple 0: tuple has 1 cells, schema expects 4"),
		post("wrong width at tuple 2", "/v1/explain/batch",
			jsonBody(t, serve.BatchRequest{Tuples: [][]float64{e.tuples[0], e.tuples[1], make([]float64, width+1)}}),
			400, "Content-Type", "tuple 2: tuple has 5 cells, schema expects 4"),
		post("explainer the replica does not run", "/v1/explain",
			jsonBody(t, serve.ExplainRequest{Tuple: e.tuples[0], Explainer: "anchor"}), 400, "", `explainer "anchor" not served here (server runs LIME)`),
		post("explainer nobody knows, batch", "/v1/explain/batch",
			jsonBody(t, serve.BatchRequest{Tuples: e.tuples[:2], Explainer: "no-such"}), 400, "", `core: unknown explainer "no-such"`),
	}
	for i, tuple := range e.tuples[:3] {
		r := post("valid single", "/v1/explain", jsonBody(t, serve.ExplainRequest{Tuple: tuple}), 200, traceHeaders, "")
		r.check = func(t *testing.T, tier string, a protoAnswer) {
			var got ExplainResponse // serve's answer is the same object without the route
			if err := json.Unmarshal(a.raw, &got); err != nil {
				t.Fatal(err)
			}
			if got.Status != "ok" || got.Source != "computed" || got.Explanation.Attribution == nil || got.TraceID != a.header.Get("X-Shahin-Trace-Id") {
				t.Errorf("tuple %d: status %q, source %q, trace %q: %s", i, got.Status, got.Source, got.TraceID, a.raw)
			}
			explanations[tier] = append(explanations[tier], string(jsonBody(t, got.Explanation)))
		}
		rows = append(rows, r)
	}
	batch := post("valid batch, in input order", "/v1/explain/batch",
		jsonBody(t, serve.BatchRequest{Tuples: [][]float64{e.tuples[2], e.tuples[0], e.tuples[1]}}), 200, traceHeaders, "")
	batch.check = func(t *testing.T, tier string, a protoAnswer) {
		var got BatchResponse
		if err := json.Unmarshal(a.raw, &got); err != nil {
			t.Fatal(err)
		}
		if got.Count != 3 || len(got.Explanations) != 3 {
			t.Fatalf("%d answers, count %d, for 3 tuples", len(got.Explanations), got.Count)
		}
		for slot, tuple := range []int{2, 0, 1} {
			x := got.Explanations[slot]
			if x.Source != "store" || string(jsonBody(t, x.Explanation)) != explanations[tier][tuple] {
				t.Errorf("slot %d (source %q) does not repeat what tuple %d got alone", slot, x.Source, tuple)
			}
		}
	}
	traced := post("traceparent honoured and echoed", "/v1/explain", jsonBody(t, serve.ExplainRequest{Tuple: e.tuples[0]}), 200, traceHeaders, "")
	traced.header = http.Header{"Traceparent": {caller.Traceparent()}}
	traced.check = func(t *testing.T, _ string, a protoAnswer) {
		echo, err := obs.ParseTraceparent(a.header.Get("Traceparent"))
		if err != nil {
			t.Fatalf("echoed traceparent %q: %v", a.header.Get("Traceparent"), err)
		}
		if echo.TraceID != caller.TraceID || a.header.Get("X-Shahin-Trace-Id") != caller.TraceID || echo.SpanID == caller.SpanID {
			t.Errorf("caller %s answered under %s: want the caller's trace and a span of the tier's own", caller.Traceparent(), echo.Traceparent())
		}
	}
	tracedBatch := traced
	tracedBatch.name, tracedBatch.path = "traceparent honoured and echoed, batch", "/v1/explain/batch"
	tracedBatch.body = jsonBody(t, serve.BatchRequest{Tuples: e.tuples[:2]})
	rows = append(rows, batch, traced, tracedBatch,
		row{name: "healthz", method: http.MethodGet, path: "/healthz", code: 200, headers: "Content-Type", check: wantText("ok\n")},
		row{name: "readyz", method: http.MethodGet, path: "/readyz", code: 200, headers: "Content-Type", check: wantText("ready\n")},
	)

	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			var first protoAnswer
			for i, tier := range tiers {
				a := exchange(tier.live, r.method, r.path, r.body, r.header)
				if a.code != r.code || (r.headers != "" && a.headers != r.headers) || !strings.Contains(a.err, r.err) || (r.err == "") != (a.err == "") {
					t.Errorf("%s: HTTP %d, headers %s, error %q; want %d, %s, %q", tier.name, a.code, a.headers, a.err, r.code, r.headers, r.err)
				}
				if r.check != nil {
					r.check(t, tier.name, a)
				}
				if i == 0 {
					first = a
				} else if a.code != first.code || a.err != first.err || (r.headers != "" && a.headers != first.headers) {
					t.Errorf("%s answers HTTP %d [%s] %q, %s answers HTTP %d [%s] %q", tiers[0].name, first.code, first.headers, first.err, tier.name, a.code, a.headers, a.err)
				}
			}
		})
	}

	// The two refusals are each tier's own decision — a replica sheds a
	// tuple it has traced, a router sheds a request it has not read — so
	// only what the protocol adds is compared: the status, Retry-After,
	// and an error text in the place the tier's answers carry one.
	refused := func(t *testing.T, tier protoTier, h http.Handler, code int, reason string) {
		t.Helper()
		for _, req := range []struct {
			path string
			body []byte
		}{
			{"/v1/explain", jsonBody(t, serve.ExplainRequest{Tuple: e.tuples[5]})},
			{"/v1/explain/batch", jsonBody(t, serve.BatchRequest{Tuples: e.tuples[5:7]})},
		} {
			a := exchange(h, http.MethodPost, req.path, req.body, nil)
			if a.code != code || a.header.Get("Retry-After") != "1" || !strings.Contains(a.err, reason) {
				t.Errorf("%s %s: HTTP %d, Retry-After %q, error %q; want %d, \"1\", %q", tier.name, req.path, a.code, a.header.Get("Retry-After"), a.err, code, reason)
			}
		}
	}
	t.Run("shed is 429 with Retry-After", func(t *testing.T) {
		for _, tier := range tiers {
			h, undo := tier.saturated(t)
			reason := "serve: admission queue full"
			if tier.name == "router" {
				reason = "router: too many in-flight requests"
			}
			refused(t, tier, h, http.StatusTooManyRequests, reason)
			undo()
		}
	})
	t.Run("nothing to answer is 503 with Retry-After", func(t *testing.T) {
		for _, tier := range tiers {
			h := tier.unavailable(t)
			refused(t, tier, h, http.StatusServiceUnavailable, tier.refusal)
			if a := exchange(h, http.MethodGet, "/readyz", nil, nil); a.code != http.StatusServiceUnavailable || string(a.raw) != tier.unready+"\n" {
				t.Errorf("%s /readyz: HTTP %d %q, want 503 %q", tier.name, a.code, a.raw, tier.unready)
			}
			if a := exchange(h, http.MethodGet, "/healthz", nil, nil); a.code != http.StatusOK {
				t.Errorf("%s /healthz: HTTP %d, want 200 whatever is behind the tier", tier.name, a.code)
			}
		}
	})
}

// wantText checks a probe's plain-text body.
func wantText(want string) func(*testing.T, string, protoAnswer) {
	return func(t *testing.T, tier string, a protoAnswer) {
		if string(a.raw) != want {
			t.Errorf("%s: body %q, want %q", tier, a.raw, want)
		}
	}
}
