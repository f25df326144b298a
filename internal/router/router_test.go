package router

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shahin/internal/core"
	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/explain/lime"
	"shahin/internal/fault"
	"shahin/internal/obs"
	"shahin/internal/rf"
	"shahin/internal/serve"
)

func testStats(t *testing.T) *dataset.Stats {
	t.Helper()
	cfg := &datagen.Config{
		Name: "router",
		Cat: []datagen.CatSpec{
			{Card: 4, Skew: 1.2}, {Card: 3, Skew: 1.0}, {Card: 5, Skew: 1.2},
		},
		Num: []datagen.NumSpec{{Mean: 0, Std: 1}},
	}
	d, err := cfg.Generate(1000, 1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestSignatureDeterministicAndDiscretised(t *testing.T) {
	st := testStats(t)
	a := []float64{1, 2, 3, 0.5}
	b := []float64{1, 2, 3, 0.5}
	sa := Signature(st.ItemizeRow(a, nil))
	sb := Signature(st.ItemizeRow(b, nil))
	if sa != sb {
		t.Fatalf("identical tuples: signatures %#x != %#x", sa, sb)
	}
	// A different categorical value must (with these cards) change a bin
	// and therefore the signature.
	c := []float64{2, 2, 3, 0.5}
	if sc := Signature(st.ItemizeRow(c, nil)); sc == sa {
		t.Fatalf("distinct bins collided: %#x", sc)
	}
	// Numeric values inside the same quartile bin share the signature.
	items := st.ItemizeRow(a, nil)
	itemsShift := st.ItemizeRow([]float64{1, 2, 3, 0.5000001}, nil)
	if fmt.Sprint(items) == fmt.Sprint(itemsShift) && Signature(items) != Signature(itemsShift) {
		t.Fatal("same item vector, different signature")
	}
}

func TestRingDeterminismAndCoverage(t *testing.T) {
	r1 := NewRing(3, 64)
	r2 := NewRing(3, 64)
	hit := map[int]int{}
	for i := 0; i < 10_000; i++ {
		sig := mix64(uint64(i))
		a, b := r1.Lookup(sig), r2.Lookup(sig)
		if a != b {
			t.Fatalf("rings disagree at %#x: %d vs %d", sig, a, b)
		}
		hit[a]++
	}
	for rep := 0; rep < 3; rep++ {
		if hit[rep] < 1000 {
			t.Fatalf("replica %d owns only %d/10000 keys — ring badly unbalanced: %v", rep, hit[rep], hit)
		}
	}
	// Sequence: every replica exactly once, owner first.
	for i := 0; i < 100; i++ {
		sig := mix64(uint64(i) ^ 0xabcdef)
		seq := r1.Sequence(sig, nil)
		if len(seq) != 3 {
			t.Fatalf("Sequence len=%d, want 3", len(seq))
		}
		if seq[0] != r1.Lookup(sig) {
			t.Fatalf("Sequence head %d != Lookup %d", seq[0], r1.Lookup(sig))
		}
		seen := map[int]bool{}
		for _, rep := range seq {
			if seen[rep] {
				t.Fatalf("Sequence repeats replica %d: %v", rep, seq)
			}
			seen[rep] = true
		}
	}
}

// fakeReplica is a minimal shahin-serve stand-in: /healthz and
// /v1/explain with a canned answer, a togglable failure mode, and a
// request count.
type fakeReplica struct {
	ts       *httptest.Server
	calls    atomic.Int64
	failing  atomic.Bool
	flooding atomic.Bool  // answer 200 with floodBytes of body, unless the router hangs up first
	flooded  atomic.Bool  // a flood was read to the end
	lastTP   atomic.Value // last traceparent header seen
}

// floodBytes is what a flooding fakeReplica tries to send: far past the
// router's answer bound and any socket buffering, small enough that a
// router which did read it all is a failed test and not a dead machine.
const floodBytes = 16 * maxAnswerBytes

func newFakeReplica(t *testing.T, name string) *fakeReplica {
	t.Helper()
	f := &fakeReplica{}
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		if f.failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("POST /v1/explain", func(w http.ResponseWriter, r *http.Request) {
		if f.failing.Load() {
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		if f.flooding.Load() {
			chunk := bytes.Repeat([]byte(" "), 64<<10)
			for sent := 0; sent < floodBytes; sent += len(chunk) {
				if _, err := w.Write(chunk); err != nil {
					return // the router hung up
				}
			}
			f.flooded.Store(true)
			return
		}
		f.calls.Add(1)
		f.lastTP.Store(r.Header.Get("traceparent"))
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.ExplainResponse{Status: "ok", Source: name})
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func newTestRouter(t *testing.T, st *dataset.Stats, rec *obs.Recorder, replicas ...*fakeReplica) *Router {
	t.Helper()
	urls := make([]string, len(replicas))
	for i, f := range replicas {
		urls[i] = f.ts.URL
	}
	rt, err := New(Config{
		Replicas:      urls,
		Stats:         st,
		ProbeInterval: time.Hour, // tests drive probes via ProbeNow
		Breaker:       fault.Config{BreakerThreshold: 2, BreakerCooldownCalls: 1},
		Recorder:      rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)
	return rt
}

func postTuple(t *testing.T, url string, tuple []float64, header http.Header) (ExplainResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(serve.ExplainRequest{Tuple: tuple})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/explain", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, vs := range header {
		for _, v := range vs {
			req.Header.Add(k, v)
		}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ExplainResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("decoding router response: %v", err)
		}
	}
	return out, resp
}

// TestRouterAffinityPinsTuples: the same tuple always lands on the
// same replica, and the response names it.
func TestRouterAffinityPinsTuples(t *testing.T) {
	st := testStats(t)
	a, b, c := newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")
	rt := newTestRouter(t, st, nil, a, b, c)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	tuple := []float64{1, 2, 3, 0.25}
	first, resp := postTuple(t, ts.URL, tuple, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("HTTP %d", resp.StatusCode)
	}
	if first.Route.Degraded || first.Route.Failovers != 0 {
		t.Fatalf("clean route marked degraded: %+v", first.Route)
	}
	for i := 0; i < 5; i++ {
		again, _ := postTuple(t, ts.URL, tuple, nil)
		if again.Route.Replica != first.Route.Replica {
			t.Fatalf("tuple moved: %s then %s", first.Route.Replica, again.Route.Replica)
		}
	}
	total := a.calls.Load() + b.calls.Load() + c.calls.Load()
	if total != 6 {
		t.Fatalf("replicas saw %d calls, want 6", total)
	}
	// All six went to one replica.
	if a.calls.Load() != 6 && b.calls.Load() != 6 && c.calls.Load() != 6 {
		t.Fatalf("affinity split calls: a=%d b=%d c=%d", a.calls.Load(), b.calls.Load(), c.calls.Load())
	}
}

// TestRouterFailoverMarksDegraded: with the affinity owner down, the
// request fails over in ring order, is answered, and is marked
// degraded — never dropped.
func TestRouterFailoverMarksDegraded(t *testing.T) {
	st := testStats(t)
	a, b, c := newFakeReplica(t, "a"), newFakeReplica(t, "b"), newFakeReplica(t, "c")
	replicas := []*fakeReplica{a, b, c}
	rec := obs.NewRecorder()
	rt := newTestRouter(t, st, rec, a, b, c)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	tuple := []float64{1, 2, 3, 0.25}
	first, _ := postTuple(t, ts.URL, tuple, nil)
	var owner *fakeReplica
	for i, f := range replicas {
		if fmt.Sprintf("replica%d", i) == first.Route.Replica {
			owner = f
		}
	}
	if owner == nil {
		t.Fatalf("unknown owner %q", first.Route.Replica)
	}

	owner.failing.Store(true)
	out, resp := postTuple(t, ts.URL, tuple, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("failover request: HTTP %d", resp.StatusCode)
	}
	if !out.Route.Degraded || out.Route.Failovers == 0 {
		t.Fatalf("failover not marked degraded: %+v", out.Route)
	}
	if out.Route.Replica == first.Route.Replica {
		t.Fatalf("still routed to the dead owner %s", out.Route.Replica)
	}
	if rec.Counter(obs.CounterRouterFailovers).Value() == 0 {
		t.Fatal("failover counter not incremented")
	}

	// Once the owner is marked unhealthy, requests route around it
	// without retrying — it's the active prober that accumulates the
	// failures that trip its breaker (threshold 2).
	rt.ProbeNow()
	rt.ProbeNow()
	st2 := rt.Status()
	tripped := false
	for _, s := range st2 {
		if s.Name == first.Route.Replica && s.Breaker != "closed" {
			tripped = true
		}
	}
	if !tripped {
		t.Fatalf("owner breaker still closed after repeated failures: %+v", st2)
	}

	// Recovery: owner comes back, probes close the breaker, and
	// affinity routing resumes.
	owner.failing.Store(false)
	for i := 0; i < 5; i++ {
		rt.ProbeNow()
	}
	back, _ := postTuple(t, ts.URL, tuple, nil)
	if back.Route.Replica != first.Route.Replica || back.Route.Degraded {
		t.Fatalf("affinity did not recover: %+v", back.Route)
	}
}

// TestRouterAllReplicasDown: when the whole fleet is down the answer
// is a 503 with a JSON error body — not a hang, not a dropped tuple.
func TestRouterAllReplicasDown(t *testing.T) {
	st := testStats(t)
	a, b := newFakeReplica(t, "a"), newFakeReplica(t, "b")
	rec := obs.NewRecorder()
	rt := newTestRouter(t, st, rec, a, b)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()
	a.failing.Store(true)
	b.failing.Store(true)

	body, _ := json.Marshal(serve.ExplainRequest{Tuple: []float64{1, 2, 3, 0.25}})
	resp, err := http.Post(ts.URL+"/v1/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d, want 503", resp.StatusCode)
	}
	if !strings.HasPrefix(resp.Header.Get("Content-Type"), "application/json") {
		t.Fatalf("Content-Type %q", resp.Header.Get("Content-Type"))
	}
	var er struct{ Error string }
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(er.Error, "every replica failed") {
		t.Fatalf("error %q", er.Error)
	}
	if rec.Counter(obs.CounterRouterUnrouted).Value() == 0 {
		t.Fatal("unrouted counter not incremented")
	}
}

// TestRouterBreakerOpensOnHangingReplica: a replica that never answers
// costs each forward its ForwardTimeout and each probe its ProbeTimeout.
// That expiry is the replica's fault — the caller's context is still
// live — so BreakerThreshold timeouts open its breaker, and the next
// forward is refused by the breaker without a network round trip.
func TestRouterBreakerOpensOnHangingReplica(t *testing.T) {
	st := testStats(t)
	for _, via := range []string{"forwards", "probes"} {
		t.Run(via, func(t *testing.T) {
			hang := httptest.NewServer(http.HandlerFunc(func(_ http.ResponseWriter, r *http.Request) {
				// Only once the body is read does the server watch the
				// connection, and end r's context when the router hangs up.
				io.Copy(io.Discard, r.Body)
				<-r.Context().Done()
			}))
			defer hang.Close()
			rec := obs.NewRecorder()
			rt, err := New(Config{
				Replicas:       []string{hang.URL},
				Stats:          st,
				ForwardTimeout: 20 * time.Millisecond,
				ProbeInterval:  time.Hour, // the test drives probes via ProbeNow
				ProbeTimeout:   20 * time.Millisecond,
				Breaker:        fault.Config{BreakerThreshold: 2, BreakerCooldownCalls: 100},
				Recorder:       rec,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer rt.Close()
			req := serve.ExplainRequest{Tuple: []float64{1, 2, 3, 0.25}}
			for i := 0; i < 2; i++ {
				if via == "probes" {
					rt.ProbeNow()
				} else if w := postJSON(t, rt, "/v1/explain", req); w.Code != http.StatusServiceUnavailable {
					t.Fatalf("forward %d to a hanging replica: HTTP %d, want 503", i, w.Code)
				}
			}
			if s := rt.Status()[0]; s.Breaker != "open" || s.Healthy {
				t.Fatalf("after 2 timeouts: %+v, want an unhealthy replica with its breaker open", s)
			}
			if got := rec.Counter(obs.CounterBreakerOpens).Value(); got != 1 {
				t.Fatalf("fault_breaker_opens=%d, want 1", got)
			}
			w := postJSON(t, rt, "/v1/explain", req)
			if w.Code != http.StatusServiceUnavailable || !strings.Contains(w.Body.String(), fault.ErrBreakerOpen.Error()) {
				t.Fatalf("forward past an open breaker: HTTP %d %s, want a 503 naming the open breaker", w.Code, w.Body)
			}
			if got := rec.Counter(obs.CounterBreakerRejected).Value(); got != 1 {
				t.Fatalf("fault_breaker_rejected=%d, want 1", got)
			}
		})
	}
}

// TestRouterBatchKeepsRefusalText: a tuple no replica answered keeps
// its slot in the batch, and the slot says what the router would have
// said had the tuple come alone — not just the status code.
func TestRouterBatchKeepsRefusalText(t *testing.T) {
	st := testStats(t)
	a, b := newFakeReplica(t, "a"), newFakeReplica(t, "b")
	rt := newTestRouter(t, st, nil, a, b)
	a.failing.Store(true)
	b.failing.Store(true)
	w := postJSON(t, rt, "/v1/explain/batch", serve.BatchRequest{Tuples: [][]float64{{1, 2, 3, 0.25}, {0, 1, 2, 0.5}}})
	var down BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &down); err != nil || w.Code != http.StatusServiceUnavailable || w.Header().Get("Retry-After") == "" {
		t.Fatalf("fleet down: HTTP %d, Retry-After %q, %v: %s", w.Code, w.Header().Get("Retry-After"), err, w.Body)
	}
	if down.Count != 2 || len(down.Explanations) != 2 {
		t.Fatalf("fleet down: %d slots, count %d, for 2 tuples", len(down.Explanations), down.Count)
	}
	for i, e := range down.Explanations {
		if e.Status != "failed" || e.Source != "rejected" || !strings.Contains(e.Error, "router: every replica failed") {
			t.Errorf("fleet down, slot %d: status %q, source %q, error %q", i, e.Status, e.Source, e.Error)
		}
	}

	// One real replica, draining: what it already stored it still
	// answers, what it would have to compute it refuses, and the batch
	// shows both in place.
	e := newProtoEnv(t)
	srv := e.replica(t, rf.Func{Classes: 2, F: firstIsZero}, serve.Config{})
	rt = e.routerOver(t, Config{}, srv)
	if w := postJSON(t, rt, "/v1/explain", serve.ExplainRequest{Tuple: e.tuples[0]}); w.Code != http.StatusOK {
		t.Fatalf("priming the store: HTTP %d %s", w.Code, w.Body)
	}
	if err := srv.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	w = postJSON(t, rt, "/v1/explain/batch", serve.BatchRequest{Tuples: e.tuples[:2]})
	var draining BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &draining); err != nil || w.Code != http.StatusServiceUnavailable || len(draining.Explanations) != 2 {
		t.Fatalf("draining replica: HTTP %d, %v: %s", w.Code, err, w.Body)
	}
	if got := draining.Explanations[0]; got.Status != "ok" || got.Source != "store" || got.Route.Replica != "replica0" {
		t.Errorf("draining replica, stored tuple: status %q, source %q, route %+v", got.Status, got.Source, got.Route)
	}
	if got := draining.Explanations[1]; got.Status != "failed" || got.Source != "rejected" ||
		!strings.Contains(got.Error, "router: every replica failed") || !strings.Contains(got.Error, "replica0 answered 503") {
		t.Errorf("draining replica, new tuple: status %q, source %q, error %q", got.Status, got.Source, got.Error)
	}
}

// TestRouterBatchFeedsRequestHistogram: router_request_ns is the
// router-side latency of a request, and a batch is one request.
func TestRouterBatchFeedsRequestHistogram(t *testing.T) {
	rec := obs.NewRecorder()
	rt := newTestRouter(t, testStats(t), rec, newFakeReplica(t, "a"))
	w := postJSON(t, rt, "/v1/explain/batch", serve.BatchRequest{Tuples: [][]float64{{1, 2, 3, 0.25}, {0, 1, 2, 0.5}}})
	if w.Code != http.StatusOK {
		t.Fatalf("batch: HTTP %d %s", w.Code, w.Body)
	}
	if n := rec.Histogram(obs.HistRouterRequest).Count(); n != 1 {
		t.Errorf("%s count = %d after one batch request, want 1", obs.HistRouterRequest, n)
	}
	if n := rec.Counter(obs.CounterRouterRequests).Value(); n != 1 {
		t.Errorf("%s = %d after one batch request, want 1", obs.CounterRouterRequests, n)
	}
}

// TestRouterBoundsReplicaAnswer: a replica that answers 200 and then
// streams far more than an explanation is cut off at the answer bound
// and treated like any other failed replica — failed over, marked
// unhealthy — so the caller gets a routed-degraded answer, not a hang
// or a router that buffers whatever it is sent.
func TestRouterBoundsReplicaAnswer(t *testing.T) {
	st := testStats(t)
	replicas := []*fakeReplica{newFakeReplica(t, "a"), newFakeReplica(t, "b")}
	rec := obs.NewRecorder()
	rt := newTestRouter(t, st, rec, replicas...)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	tuple := []float64{1, 2, 3, 0.25}
	first, _ := postTuple(t, ts.URL, tuple, nil)
	for i, f := range replicas {
		if fmt.Sprintf("replica%d", i) == first.Route.Replica {
			f.flooding.Store(true)
		}
	}
	out, resp := postTuple(t, ts.URL, tuple, nil)
	if resp.StatusCode != http.StatusOK || !out.Route.Degraded || out.Route.Failovers != 1 || out.Route.Replica == first.Route.Replica {
		t.Fatalf("flooding owner %s: HTTP %d, route %+v; want a degraded 200 from the other replica", first.Route.Replica, resp.StatusCode, out.Route)
	}
	if rec.Counter(obs.CounterRouterFailovers).Value() != 1 {
		t.Errorf("failover counter = %d, want 1", rec.Counter(obs.CounterRouterFailovers).Value())
	}
	for i, s := range rt.Status() {
		if s.Name != first.Route.Replica {
			continue
		}
		if s.Healthy {
			t.Errorf("flooding replica still marked healthy: %+v", s)
		}
		if replicas[i].flooded.Load() {
			t.Errorf("the router read all %d bytes of the flood; its bound is %d", floodBytes, maxAnswerBytes)
		}
	}
}

// TestRouterShedsPastMaxInflight: with the admission semaphore
// saturated, requests are shed with 429 + Retry-After.
func TestRouterShedsPastMaxInflight(t *testing.T) {
	st := testStats(t)
	a := newFakeReplica(t, "a")
	rec := obs.NewRecorder()
	rt, err := New(Config{
		Replicas:      []string{a.ts.URL},
		Stats:         st,
		MaxInflight:   1,
		ProbeInterval: time.Hour,
		Recorder:      rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	rt.inflight <- struct{}{} // saturate the semaphore
	body, _ := json.Marshal(serve.ExplainRequest{Tuple: []float64{1, 2, 3, 0.25}})
	resp, err := http.Post(ts.URL+"/v1/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("HTTP %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("no Retry-After header")
	}
	if rec.Counter(obs.CounterRouterShed).Value() != 1 {
		t.Fatalf("shed counter = %d, want 1", rec.Counter(obs.CounterRouterShed).Value())
	}
	<-rt.inflight
	if _, resp := postTuple(t, ts.URL, []float64{1, 2, 3, 0.25}, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-release request: HTTP %d", resp.StatusCode)
	}
}

// TestRouterTracePropagation: the router joins the caller's trace and
// forwards a child traceparent so the replica joins the same trace.
func TestRouterTracePropagation(t *testing.T) {
	st := testStats(t)
	a := newFakeReplica(t, "a")
	rt := newTestRouter(t, st, nil, a)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	in := obs.NewTraceContext()
	hdr := http.Header{}
	hdr.Set("traceparent", in.Traceparent())
	_, resp := postTuple(t, ts.URL, []float64{1, 2, 3, 0.25}, hdr)
	echo := resp.Header.Get("X-Shahin-Trace-Id")
	if echo != in.TraceID {
		t.Fatalf("router echoed trace %q, want caller's %q", echo, in.TraceID)
	}
	fwd, _ := a.lastTP.Load().(string)
	parsed, err := obs.ParseTraceparent(fwd)
	if err != nil {
		t.Fatalf("replica saw traceparent %q: %v", fwd, err)
	}
	if parsed.TraceID != in.TraceID {
		t.Fatalf("replica trace %q, want %q", parsed.TraceID, in.TraceID)
	}
	if parsed.SpanID == in.SpanID {
		t.Fatal("router forwarded the caller's span ID instead of a child")
	}
}

// TestRouterReadyzAndReplicas: readiness tracks replica health and
// GET /replicas reports the per-replica view.
func TestRouterReadyzAndReplicas(t *testing.T) {
	st := testStats(t)
	a := newFakeReplica(t, "a")
	rt := newTestRouter(t, st, nil, a)
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz HTTP %d with a healthy replica", resp.StatusCode)
	}

	a.failing.Store(true)
	// Two probes: the first opens nothing (threshold 2), the second
	// trips the breaker; either way the health flag drops immediately.
	rt.ProbeNow()
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz HTTP %d with no healthy replicas, want 503", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/replicas")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var status []ReplicaStatus
	if err := json.NewDecoder(resp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	if len(status) != 1 || status[0].Healthy || status[0].Name != "replica0" {
		t.Fatalf("replica status %+v", status)
	}
}

// TestRouterRoundRobinSpreads: the baseline policy ignores content and
// cycles the fleet.
func TestRouterRoundRobinSpreads(t *testing.T) {
	st := testStats(t)
	a, b := newFakeReplica(t, "a"), newFakeReplica(t, "b")
	rt, err := New(Config{
		Replicas:      []string{a.ts.URL, b.ts.URL},
		Stats:         st,
		Policy:        PolicyRoundRobin,
		ProbeInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	ts := httptest.NewServer(rt.Handler())
	defer ts.Close()

	tuple := []float64{1, 2, 3, 0.25}
	for i := 0; i < 6; i++ {
		if _, resp := postTuple(t, ts.URL, tuple, nil); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: HTTP %d", i, resp.StatusCode)
		}
	}
	if a.calls.Load() != 3 || b.calls.Load() != 3 {
		t.Fatalf("round robin split a=%d b=%d, want 3/3", a.calls.Load(), b.calls.Load())
	}
}

// postJSON posts body to the router's handler and returns the recorded
// answer.
func postJSON(t *testing.T, rt *Router, path string, body any) *httptest.ResponseRecorder {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	rt.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(raw)))
	return w
}

// TestRouterForwardsExplainer: the explainer a caller names reaches the
// replica, on both endpoints — an exactshap request through the router
// is answered by the exact path of a real shahin-serve replica, not by
// its default explainer, and a name the replica refuses comes back as
// the replica's 400.
func TestRouterForwardsExplainer(t *testing.T) {
	spec, err := datagen.Spec("recidivism")
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(1500, 80)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := rf.Train(d, rf.Config{NumTrees: 10, MaxDepth: 6, Seed: 81})
	if err != nil {
		t.Fatal(err)
	}
	warm, err := core.NewWarm(st, forest, core.Options{
		Explainer: core.LIME, LIME: lime.Config{NumSamples: 200}, Tau: 50, Seed: 82,
	}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := serve.New(warm, serve.Config{})
	if err != nil {
		t.Fatal(err)
	}
	replica := httptest.NewServer(srv.Handler())
	defer replica.Close()
	defer srv.Drain(context.Background())
	rt, err := New(Config{Replicas: []string{replica.URL}, Stats: st, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	tuples := d.Rows(0, 4)

	w := postJSON(t, rt, "/v1/explain", serve.ExplainRequest{Tuple: tuples[0], Explainer: "exactshap"})
	var one ExplainResponse
	if err := json.Unmarshal(w.Body.Bytes(), &one); err != nil || w.Code != http.StatusOK {
		t.Fatalf("routed exactshap: HTTP %d, %v: %s", w.Code, err, w.Body)
	}
	if one.Source != "exact" || one.Route.Replica != "replica0" {
		t.Fatalf("routed exactshap answered with source %q by %q, want exact by replica0", one.Source, one.Route.Replica)
	}

	w = postJSON(t, rt, "/v1/explain/batch", serve.BatchRequest{Tuples: tuples[1:], Explainer: "exactshap"})
	var batch BatchResponse
	if err := json.Unmarshal(w.Body.Bytes(), &batch); err != nil || w.Code != http.StatusOK {
		t.Fatalf("routed exactshap batch: HTTP %d, %v: %s", w.Code, err, w.Body)
	}
	if batch.Count != 3 {
		t.Fatalf("batch answered %d tuples, want 3", batch.Count)
	}
	for i, e := range batch.Explanations {
		if e.Source != "exact" {
			t.Errorf("batch tuple %d answered with source %q, want exact", i, e.Source)
		}
	}

	// No explainer named: the replica's own kind answers, as before.
	w = postJSON(t, rt, "/v1/explain", serve.ExplainRequest{Tuple: tuples[0]})
	if err := json.Unmarshal(w.Body.Bytes(), &one); err != nil || w.Code != http.StatusOK || one.Source != "computed" {
		t.Fatalf("routed default request: HTTP %d, %v, source %q, want 200 computed", w.Code, err, one.Source)
	}

	for _, name := range []string{"no-such-explainer", "anchor"} {
		w = postJSON(t, rt, "/v1/explain", serve.ExplainRequest{Tuple: tuples[0], Explainer: name})
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), name) {
			t.Errorf("routed explainer %q: HTTP %d %s, want the replica's 400 naming it", name, w.Code, w.Body)
		}
		w = postJSON(t, rt, "/v1/explain/batch", serve.BatchRequest{Tuples: tuples[:2], Explainer: name})
		if w.Code != http.StatusBadRequest {
			t.Errorf("routed batch explainer %q: HTTP %d, want 400", name, w.Code)
		}
	}
}

// TestRouterDefaultClientKeepsBatchConnections: a batch forwards its
// tuples concurrently, so the router's own client must keep that many
// idle connections to a replica — the next batch then dials nothing —
// and Close must shut every one of them.
func TestRouterDefaultClientKeepsBatchConnections(t *testing.T) {
	const width = 16
	var opened, closed atomic.Int64
	var mu sync.Mutex
	arrived, gate := 0, make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/explain", func(w http.ResponseWriter, _ *http.Request) {
		// Hold every forward until the whole batch is in flight, so a
		// batch needs width connections at once.
		mu.Lock()
		arrived++
		g := gate
		if arrived%width == 0 {
			close(gate)
			gate = make(chan struct{})
		}
		mu.Unlock()
		select {
		case <-g:
		case <-time.After(10 * time.Second):
			w.WriteHeader(http.StatusInternalServerError)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(serve.ExplainResponse{Status: "ok", Source: "computed"})
	})
	replica := httptest.NewUnstartedServer(mux)
	replica.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		switch s {
		case http.StateNew:
			opened.Add(1)
		case http.StateClosed:
			closed.Add(1)
		}
	}
	replica.Start()
	defer replica.Close()

	st := testStats(t)
	rt, err := New(Config{Replicas: []string{replica.URL}, Stats: st, ProbeInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	req := serve.BatchRequest{Tuples: make([][]float64, width)}
	for i := range req.Tuples {
		req.Tuples[i] = []float64{float64(i % 4), float64(i % 3), float64(i % 5), 0.25}
	}
	batch := func() int64 {
		before := opened.Load()
		if w := postJSON(t, rt, "/v1/explain/batch", req); w.Code != http.StatusOK {
			t.Fatalf("batch: HTTP %d %s", w.Code, w.Body)
		}
		return opened.Load() - before
	}
	if n := batch(); n != width {
		t.Fatalf("first batch of %d concurrent forwards opened %d connections", width, n)
	}
	// A connection rejoins the idle pool just after its answer has been
	// read, so the batch right behind the first may still dial a few.
	reused := false
	for try := 0; try < 20 && !reused; try++ {
		reused = batch() == 0
	}
	if !reused {
		t.Fatalf("every batch dialled anew: the client does not keep %d idle connections per replica", width)
	}

	rt.Close()
	deadline := time.Now().Add(10 * time.Second)
	for closed.Load() < opened.Load() {
		if time.Now().After(deadline) {
			t.Fatalf("Close left %d of %d connections to the replica open", opened.Load()-closed.Load(), opened.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
