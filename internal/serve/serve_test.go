package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shahin/internal/core"
	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/explain/lime"
	"shahin/internal/obs"
	"shahin/internal/rf"
)

// testEnv bundles the fixtures the serving tests share.
type testEnv struct {
	st     *dataset.Stats
	cls    rf.Classifier
	tuples [][]float64
}

func newEnv(t *testing.T, seed int64, batch int) *testEnv {
	t.Helper()
	cfg := &datagen.Config{
		Name: "serve",
		Cat: []datagen.CatSpec{
			{Card: 4, Skew: 1.2}, {Card: 3, Skew: 1.0}, {Card: 5, Skew: 1.2},
			{Card: 4, Skew: 1.0}, {Card: 6, Skew: 1.4},
		},
		Num: []datagen.NumSpec{{Mean: 0, Std: 1}},
	}
	d, err := cfg.Generate(4000, seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	cls := rf.Func{Classes: 2, F: func(x []float64) int {
		if int(x[0]) == 0 {
			return 1
		}
		return 0
	}}
	return &testEnv{st: st, cls: cls, tuples: d.Rows(0, batch)}
}

func newWarm(t *testing.T, env *testEnv, seed int64) *core.Warm {
	t.Helper()
	opts := core.Options{
		Explainer: core.LIME,
		LIME:      lime.Config{NumSamples: 300},
		Tau:       50,
		Seed:      seed,
	}
	w, err := core.NewWarm(env.st, env.cls, opts, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// postExplain sends one tuple to /v1/explain and decodes the response.
func postExplain(t *testing.T, url string, tuple []float64) (ExplainResponse, int) {
	t.Helper()
	body, err := json.Marshal(ExplainRequest{Tuple: tuple})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/explain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out ExplainResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding /v1/explain response: %v", err)
	}
	return out, resp.StatusCode
}

// TestServeSingleThenStoreHit answers one tuple through a Warm call, then
// repeats it and requires the store fast path to answer.
func TestServeSingleThenStoreHit(t *testing.T) {
	env := newEnv(t, 1, 10)
	rec := obs.NewRecorder()
	s, err := New(newWarm(t, env, 1), Config{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(t.Context())

	first, code := postExplain(t, ts.URL, env.tuples[0])
	if code != http.StatusOK {
		t.Fatalf("first request: HTTP %d", code)
	}
	if first.Source != "computed" || first.Status != "ok" || first.Explanation.Attribution == nil {
		t.Fatalf("first request: source=%q status=%q attribution=%v", first.Source, first.Status, first.Explanation.Attribution)
	}
	again, code := postExplain(t, ts.URL, env.tuples[0])
	if code != http.StatusOK || again.Source != "store" {
		t.Fatalf("repeat request: HTTP %d source=%q, want store hit", code, again.Source)
	}
	// The store is a cache, not an approximation: the repeat carries the
	// bytes the first request got.
	a, _ := json.Marshal(first.Explanation)
	b, _ := json.Marshal(again.Explanation)
	if !bytes.Equal(a, b) {
		t.Fatalf("repeat diverged from its original explanation:\n%s\n%s", a, b)
	}
	if got := rec.Counter(obs.CounterServeStoreHits).Value(); got != 1 {
		t.Fatalf("store-hit counter = %d, want 1", got)
	}
	if s.StoreLen() != 1 {
		t.Fatalf("StoreLen = %d, want 1", s.StoreLen())
	}
}

// TestServeRequestsShareTheWarmPool: tuples from separate requests are
// explained against one warm pool, so later requests reuse samples
// labelled for earlier ones.
func TestServeRequestsShareTheWarmPool(t *testing.T) {
	env := newEnv(t, 2, 40)
	warm := newWarm(t, env, 2)
	s, err := New(warm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(t.Context())

	for i, tuple := range env.tuples {
		if out := s.answer(t.Context(), tuple, false, time.Now()); out.code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d, err %v", i, out.code, out.err)
		}
	}
	if rep := warm.Report(); rep.ReusedSamples == 0 {
		t.Fatalf("no cross-request sample reuse through the warm pool")
	}
}

// TestServeAnswersAreAStream: requests posted one after another get the
// bytes a Stream gives the same tuples in the same order — a served
// tuple is one stream call, whatever else the server does around it.
func TestServeAnswersAreAStream(t *testing.T) {
	env := newEnv(t, 11, 30)
	s, err := New(newWarm(t, env, 11), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(t.Context())
	opts := core.Options{Explainer: core.LIME, LIME: lime.Config{NumSamples: 300}, Tau: 50, Seed: 11, StreamRecompute: 10_000}
	stream, err := core.NewStream(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}

	for i, tuple := range env.tuples {
		got, code := postExplain(t, ts.URL, tuple)
		if code != http.StatusOK || got.Source != "computed" {
			t.Fatalf("tuple %d: HTTP %d source=%q", i, code, got.Source)
		}
		want, err := stream.Explain(tuple)
		if err != nil {
			t.Fatal(err)
		}
		a, _ := json.Marshal(got.Explanation)
		b, _ := json.Marshal(want)
		if !bytes.Equal(a, b) {
			t.Fatalf("tuple %d: served\n%s\nstream\n%s", i, a, b)
		}
	}
}

// TestServeWireKeys pins the key set of one /v1/explain answer: the
// explanation is spelled in lower case once, and an attribution answer
// carries no rule and no zero status.
func TestServeWireKeys(t *testing.T) {
	env := newEnv(t, 12, 1)
	s, err := New(newWarm(t, env, 12), Config{Recorder: obs.NewRecorder()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(t.Context())

	body, err := postJSON(ts.URL+"/v1/explain", fmt.Sprintf(`{"tuple": %s}`, mustMarshal(t, env.tuples[0])))
	if err != nil {
		t.Fatal(err)
	}
	var answer map[string]json.RawMessage
	mustUnmarshal(t, body.raw, &answer)
	var exp, attr map[string]json.RawMessage
	mustUnmarshal(t, answer["explanation"], &exp)
	mustUnmarshal(t, exp["attribution"], &attr)
	got := fmt.Sprintf("%s %s %s", sortedKeys(answer), sortedKeys(exp), sortedKeys(attr))
	want := "[explanation source stages status trace_id wait_ms] [attribution] [class intercept weights]"
	if got != want {
		t.Fatalf("answer keys %s, want %s\n%s", got, want, body.raw)
	}
}

// sortedKeys lists a JSON object's keys in order.
func sortedKeys(m map[string]json.RawMessage) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// mustMarshal encodes v as JSON or fails the test.
func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestServeBatchEndpoint exercises POST /v1/explain/batch ordering and
// the per-tuple response statuses.
func TestServeBatchEndpoint(t *testing.T) {
	env := newEnv(t, 3, 12)
	s, err := New(newWarm(t, env, 3), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(t.Context())

	body, err := json.Marshal(BatchRequest{Tuples: env.tuples})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/explain/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch endpoint: HTTP %d", resp.StatusCode)
	}
	var out BatchResponse[ExplainResponse]
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count != len(env.tuples) || len(out.Explanations) != len(env.tuples) {
		t.Fatalf("batch answered %d/%d tuples", len(out.Explanations), len(env.tuples))
	}
	for i, e := range out.Explanations {
		if e.Status != "ok" || e.Explanation.Attribution == nil {
			t.Fatalf("batch tuple %d: status=%q", i, e.Status)
		}
	}
}

// TestServeDrainAnswersQueuedAndSnapshotsStore is the graceful-drain
// contract: admitted requests are answered, the store lands on disk,
// readiness flips, and new requests are rejected.
func TestServeDrainAnswersQueuedAndSnapshotsStore(t *testing.T) {
	env := newEnv(t, 4, 9)
	// The first 8 tuples are explained through the warm explainer; the
	// 9th stays unseen so the post-drain probe cannot hit the store fast
	// path.
	extra := env.tuples[8]
	env.tuples = env.tuples[:8]
	storePath := filepath.Join(t.TempDir(), "serve.store")
	rec := obs.NewRecorder()
	entered, release := make(chan struct{}), make(chan struct{})
	env.cls = gatedClassifier(entered, release)
	s, err := New(newWarm(t, env, 4), Config{StorePath: storePath, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code := getStatus(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain: HTTP %d", code)
	}
	// Park the first tuple's call in the classifier so the other seven
	// wait at the gate when Drain starts; release it once Drain has shut
	// admission.
	outs := make([]chan outcome, len(env.tuples))
	for i, tuple := range env.tuples {
		outs[i] = make(chan outcome, 1)
		go func() { outs[i] <- s.answer(t.Context(), tuple, false, time.Now()) }()
		if i == 0 {
			<-entered
		}
	}
	for s.pending.Load() < int64(len(env.tuples)) {
		runtime.Gosched()
	}
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(t.Context()) }()
	for !s.draining.Load() {
		runtime.Gosched()
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i, ch := range outs {
		if out := <-ch; out.code != http.StatusOK || out.exp.Status != core.StatusOK {
			t.Fatalf("admitted request %d after drain: HTTP %d, status %v, err %v", i, out.code, out.exp.Status, out.err)
		}
	}

	if code := getStatus(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz during drain: HTTP %d, want 503", code)
	}
	if code := getStatus(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz during drain: HTTP %d, want 200", code)
	}
	if _, code := postExplain(t, ts.URL, extra); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request: HTTP %d, want 503", code)
	}
	// Store hits are read-only and keep answering during drain.
	if out, code := postExplain(t, ts.URL, env.tuples[0]); code != http.StatusOK || out.Source != "store" {
		t.Fatalf("post-drain store hit: HTTP %d source=%q, want 200/store", code, out.Source)
	}

	if _, err := os.Stat(storePath); err != nil {
		t.Fatalf("store snapshot missing: %v", err)
	}
	events := rec.Events()
	var drains int
	for _, e := range events {
		if e.Type == obs.EventServeDrain {
			drains++
		}
	}
	if drains != 1 {
		t.Fatalf("serve_drain events = %d, want 1", drains)
	}

	// A fresh server restores the snapshot and answers the same tuples
	// from the store without a single Warm call.
	warm2 := newWarm(t, env, 4)
	s2, err := New(warm2, Config{StorePath: storePath})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer ts2.Close()
	defer s2.Drain(t.Context())
	if s2.StoreLen() != len(env.tuples) {
		t.Fatalf("restored store holds %d explanations, want %d", s2.StoreLen(), len(env.tuples))
	}
	out, code := postExplain(t, ts2.URL, env.tuples[3])
	if code != http.StatusOK || out.Source != "store" {
		t.Fatalf("restored lookup: HTTP %d source=%q", code, out.Source)
	}
	if warm2.Flushes() != 0 {
		t.Fatalf("restored store hit still called the warm explainer %d times", warm2.Flushes())
	}

	// The snapshot must be byte-stable: draining the restored server
	// rewrites an identical file (store contents unchanged).
	before, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(storePath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("store snapshot not deterministic across save/load/save")
	}
}

// TestServeRequestTimeout bounds a request's wait: waiting at the gate
// behind a call parked in the classifier, the request times out with 504.
func TestServeRequestTimeout(t *testing.T) {
	env := newEnv(t, 5, 4)
	entered, release := make(chan struct{}), make(chan struct{})
	env.cls = gatedClassifier(entered, release)
	rec := obs.NewRecorder()
	s, err := New(newWarm(t, env, 5), Config{
		// Long enough for the parked call to reach the classifier
		// before its own deadline.
		RequestTimeout: 100 * time.Millisecond,
		Recorder:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(t.Context())
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark()

	parked := make(chan outcome, 1)
	go func() { parked <- s.answer(t.Context(), env.tuples[1], false, time.Now()) }()
	select {
	case <-entered:
	case out := <-parked:
		t.Fatalf("parked call ended before reaching the classifier: HTTP %d", out.code)
	}
	type answer struct {
		out  ExplainResponse
		code int
	}
	got := make(chan answer, 1)
	go func() {
		out, code := postExplain(t, ts.URL, env.tuples[0])
		got <- answer{out, code}
	}()
	select {
	case a := <-got:
		if a.code != http.StatusGatewayTimeout || a.out.Status != "failed" {
			t.Fatalf("timed-out request: HTTP %d status=%q, want 504/failed", a.code, a.out.Status)
		}
	case <-time.After(10 * time.Second): // a watchdog, not a synchroniser
		unpark()
		t.Fatalf("a request with a 100ms deadline still waits after 10s")
	}
	if rec.Counter(obs.CounterServeTimeouts).Value() == 0 {
		t.Fatalf("timeout counter not incremented")
	}
}

// TestServeCancelAtGateCostsNothing: a request whose caller goes while it
// waits at the gate is answered 504 and spends no classifier call — the
// parked call's twin, explaining its tuple alone, costs the same calls
// the whole server did.
func TestServeCancelAtGateCostsNothing(t *testing.T) {
	env := newEnv(t, 13, 2)
	plain := env.cls
	entered, release := make(chan struct{}), make(chan struct{})
	var calls atomic.Int64
	gated := gatedClassifier(entered, release)
	env.cls = rf.Func{Classes: 2, F: func(x []float64) int { calls.Add(1); return gated.F(x) }}
	s, err := New(newWarm(t, env, 13), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(t.Context())

	parked := make(chan outcome, 1)
	go func() { parked <- s.answer(t.Context(), env.tuples[0], false, time.Now()) }()
	<-entered
	ctx, cancel := context.WithCancel(t.Context())
	gone := make(chan outcome, 1)
	go func() { gone <- s.answer(ctx, env.tuples[1], false, time.Now()) }()
	for s.pending.Load() < 2 {
		runtime.Gosched()
	}
	cancel()
	close(release)
	if out := <-gone; out.code != http.StatusGatewayTimeout {
		t.Fatalf("cancelled request: HTTP %d, want 504", out.code)
	}
	if out := <-parked; out.code != http.StatusOK {
		t.Fatalf("parked request: HTTP %d, err %v", out.code, out.err)
	}

	env.cls = plain
	twin := newWarm(t, env, 13)
	if _, err := twin.ExplainAll(env.tuples[:1]); err != nil {
		t.Fatal(err)
	}
	if got, want := calls.Load(), twin.Report().Invocations; got != want {
		t.Fatalf("server spent %d classifier calls, the parked tuple alone costs %d", got, want)
	}
}

// TestServeRejectsWhenQueueFull caps admission at QueueCap tuples waiting
// behind the one being explained.
func TestServeRejectsWhenQueueFull(t *testing.T) {
	env := newEnv(t, 6, 8)
	rec := obs.NewRecorder()
	entered, release := make(chan struct{}), make(chan struct{})
	env.cls = gatedClassifier(entered, release)
	s, err := New(newWarm(t, env, 6), Config{QueueCap: 2, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(t.Context())
	defer close(release)

	// Park one call in the classifier, then admit directly: two
	// admissions fit, the other four are shed.
	go s.answer(t.Context(), env.tuples[0], false, time.Now())
	<-entered
	rejected := 0
	for i := 0; i < 6; i++ {
		if err := s.admit(); err != nil {
			rejected++
		} else {
			defer s.release()
		}
	}
	if rejected != 4 {
		t.Fatalf("%d of 6 admissions rejected with QueueCap=2 and one call parked, want 4", rejected)
	}
	if rec.Counter(obs.CounterServeRejected).Value() != 4 {
		t.Fatalf("rejection counter = %d, want 4", rec.Counter(obs.CounterServeRejected).Value())
	}
}

// getStatus GETs a URL and returns the status code.
func getStatus(t *testing.T, url string) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestServeConfigDefaults pins the documented defaults.
func TestServeConfigDefaults(t *testing.T) {
	if got := (Config{}).withDefaults().QueueCap; got != 1024 {
		t.Fatalf("default QueueCap = %d, want 1024", got)
	}
}

// TestServeStoreSizeGauge: the store-size gauge is truthful at startup
// (restored snapshots included) and after each computed answer's store
// write.
func TestServeStoreSizeGauge(t *testing.T) {
	env := newEnv(t, 9, 10)
	rec := obs.NewRecorder()
	s, err := New(newWarm(t, env, 9), Config{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(t.Context())

	g := rec.Gauge(obs.GaugeServeStoreSize)
	if g.Value() != 0 {
		t.Fatalf("gauge at startup = %d, want 0", g.Value())
	}
	for i := 0; i < 3; i++ {
		if _, code := postExplain(t, ts.URL, env.tuples[i]); code != http.StatusOK {
			t.Fatalf("request %d: HTTP %d", i, code)
		}
		if got := g.Value(); got != int64(s.StoreLen()) {
			t.Fatalf("after request %d: gauge = %d, StoreLen = %d", i, got, s.StoreLen())
		}
	}
	if g.Value() != 3 {
		t.Fatalf("gauge after 3 distinct tuples = %d, want 3", g.Value())
	}
	// A store hit leaves the size unchanged.
	if _, code := postExplain(t, ts.URL, env.tuples[0]); code != http.StatusOK {
		t.Fatal("repeat request failed")
	}
	if g.Value() != 3 {
		t.Fatalf("gauge after store hit = %d, want 3", g.Value())
	}
}
