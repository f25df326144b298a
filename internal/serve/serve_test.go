package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
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

// TestServeSingleThenStoreHit answers one tuple through a flush, then
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

// TestServeBatchSharesFlushes: requests that queue behind a busy batcher
// share its next flush — the whole point of the admission queue. The
// batcher is parked inside flush 1, which holds the lone first tuple, so
// flush 2 holds the other 39.
func TestServeBatchSharesFlushes(t *testing.T) {
	env := newEnv(t, 2, 40)
	entered, release := make(chan struct{}), make(chan struct{})
	env.cls = gatedClassifier(entered, release)
	warm := newWarm(t, env, 2)
	rec := obs.NewRecorder()
	s, err := New(warm, Config{BatchMax: 64, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(t.Context())

	reqs := make([]*request, len(env.tuples))
	for i, tuple := range env.tuples {
		if reqs[i], err = s.admit(t.Context(), tuple); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-entered
		}
	}
	close(release)
	for i, req := range reqs {
		want := min(i+1, 2)
		if out := <-req.done; out.err != nil || out.exp.Status != core.StatusOK || out.flush != want {
			t.Fatalf("request %d: flush %d, status %v, err %v; want flush %d", i, out.flush, out.exp.Status, out.err, want)
		}
	}
	if f := warm.Flushes(); f != 2 {
		t.Fatalf("%d requests took %d flushes, want 2", len(env.tuples), f)
	}
	if rep := warm.Report(); rep.ReusedSamples == 0 {
		t.Fatalf("no cross-request sample reuse through the warm pool")
	}
	// A flush is counted after its answers go out: drain to wait for it.
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := rec.Counter(obs.CounterServeFlushes).Value(); got != int64(warm.Flushes()) {
		t.Fatalf("flush counter = %d, warm reports %d", got, warm.Flushes())
	}
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
// contract: queued requests are flushed and answered, the store lands
// on disk, readiness flips, and new requests are rejected.
func TestServeDrainAnswersQueuedAndSnapshotsStore(t *testing.T) {
	env := newEnv(t, 4, 9)
	// The first 8 tuples are explained through the queue; the 9th stays
	// unseen so the post-drain probe cannot hit the store fast path.
	extra := env.tuples[8]
	env.tuples = env.tuples[:8]
	storePath := filepath.Join(t.TempDir(), "serve.store")
	rec := obs.NewRecorder()
	entered, release := make(chan struct{}), make(chan struct{})
	env.cls = gatedClassifier(entered, release)
	s, err := New(newWarm(t, env, 4), Config{BatchMax: 64, StorePath: storePath, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if code := getStatus(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz before drain: HTTP %d", code)
	}
	// Park the batcher inside the first tuple's flush so the other seven
	// are still queued when Drain starts; release it once Drain has shut
	// admission.
	reqs := make([]*request, len(env.tuples))
	for i, tuple := range env.tuples {
		if reqs[i], err = s.admit(t.Context(), tuple); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			<-entered
		}
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
	for i, req := range reqs {
		if out := <-req.done; out.err != nil || out.exp.Status != core.StatusOK {
			t.Fatalf("queued request %d after drain: status %v, err %v", i, out.exp.Status, out.err)
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
	// from the store without a single flush.
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
		t.Fatalf("restored store hit still flushed %d times", warm2.Flushes())
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

// TestServeRequestTimeout bounds a request's wait: queued behind a flush
// parked in the classifier, the request times out with 504.
func TestServeRequestTimeout(t *testing.T) {
	env := newEnv(t, 5, 4)
	entered, release := make(chan struct{}), make(chan struct{})
	env.cls = gatedClassifier(entered, release)
	rec := obs.NewRecorder()
	s, err := New(newWarm(t, env, 5), Config{
		// Long enough for the parking flush to reach the classifier
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
	defer close(release)

	parked, err := s.admit(t.Context(), env.tuples[1])
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-entered:
	case out := <-parked.done:
		t.Fatalf("parking flush ended before reaching the classifier: %v", out.err)
	}
	out, code := postExplain(t, ts.URL, env.tuples[0])
	if code != http.StatusGatewayTimeout || out.Status != "failed" {
		t.Fatalf("timed-out request: HTTP %d status=%q, want 504/failed", code, out.Status)
	}
	if rec.Counter(obs.CounterServeTimeouts).Value() == 0 {
		t.Fatalf("timeout counter not incremented")
	}
}

// TestServeRejectsWhenQueueFull caps admission at QueueCap.
func TestServeRejectsWhenQueueFull(t *testing.T) {
	env := newEnv(t, 6, 8)
	rec := obs.NewRecorder()
	entered, release := make(chan struct{}), make(chan struct{})
	env.cls = gatedClassifier(entered, release)
	s, err := New(newWarm(t, env, 6), Config{BatchMax: 64, QueueCap: 2, Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(t.Context())
	defer close(release)

	// Park the batcher inside a flush, then fill the queue directly: two
	// admissions fit, the other four are shed.
	if _, err := s.admit(t.Context(), env.tuples[0]); err != nil {
		t.Fatal(err)
	}
	<-entered
	rejected := 0
	for i := 0; i < 6; i++ {
		if _, err := s.admit(t.Context(), env.tuples[i%len(env.tuples)]); err != nil {
			rejected++
		}
	}
	if rejected != 4 {
		t.Fatalf("%d of 6 admissions rejected with QueueCap=2 and the batcher busy, want 4", rejected)
	}
	if rec.Counter(obs.CounterServeRejected).Value() == 0 {
		t.Fatalf("rejection counter not incremented")
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

// TestServeFlushesWhenFree: an idle batcher flushes a lone tuple before
// any other is admitted, and the tuples admitted while that flush
// computes ride the next one, BatchMax at a time.
func TestServeFlushesWhenFree(t *testing.T) {
	env := newEnv(t, 10, 8)
	entered, release := make(chan struct{}), make(chan struct{})
	env.cls = gatedClassifier(entered, release)
	warm := newWarm(t, env, 10)
	s, err := New(warm, Config{BatchMax: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Drain(t.Context())

	lone, err := s.admit(t.Context(), env.tuples[0])
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	queued := make([]*request, 6)
	for i := range queued {
		if queued[i], err = s.admit(t.Context(), env.tuples[1+i]); err != nil {
			t.Fatal(err)
		}
	}
	close(release)

	if out := <-lone.done; out.err != nil || out.flush != 1 {
		t.Fatalf("lone tuple: flush %d, err %v; want flush 1 alone", out.flush, out.err)
	}
	for i, req := range queued {
		want := 2 + i/4 // BatchMax 4: four ride flush 2, the rest flush 3
		if out := <-req.done; out.err != nil || out.flush != want {
			t.Fatalf("queued tuple %d: flush %d, err %v; want flush %d", i, out.flush, out.err, want)
		}
	}
	if f := warm.Flushes(); f != 3 {
		t.Fatalf("%d flushes, want 3", f)
	}
}

// TestServeConfigDefaults pins the documented defaults.
func TestServeConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	want := fmt.Sprintf("%d/%d", 64, 1024)
	got := fmt.Sprintf("%d/%d", c.BatchMax, c.QueueCap)
	if got != want {
		t.Fatalf("defaults = %s, want %s", got, want)
	}
}

// TestServeStoreSizeGauge: the store-size gauge is truthful at startup
// (restored snapshots included) and after each flush's store writes.
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
