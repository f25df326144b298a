package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"

	"shahin/internal/rf"
	"shahin/internal/store"
)

// httpBody captures the parts of a raw HTTP answer these tests assert.
type httpBody struct {
	code        int
	contentType string
	retryAfter  string
	raw         []byte
}

// postJSON posts a raw JSON body and returns the undecoded answer.
func postJSON(url, body string) (httpBody, error) {
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		return httpBody{}, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return httpBody{}, err
	}
	return httpBody{
		code:        resp.StatusCode,
		contentType: resp.Header.Get("Content-Type"),
		retryAfter:  resp.Header.Get("Retry-After"),
		raw:         raw,
	}, nil
}

// mustUnmarshal decodes raw JSON or fails the test.
func mustUnmarshal(t *testing.T, raw []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(raw, v); err != nil {
		t.Fatalf("unmarshalling %q: %v", raw, err)
	}
}

// gatedClassifier returns a classifier whose first Predict call closes
// entered and every call blocks until release is closed, so a test can
// hold a Warm call in flight deterministically.
func gatedClassifier(entered, release chan struct{}) rf.Func {
	var once sync.Once
	return rf.Func{Classes: 2, F: func(x []float64) int {
		once.Do(func() { close(entered) })
		<-release
		if int(x[0]) == 0 {
			return 1
		}
		return 0
	}}
}

// TestServeDrainRejects503JSON: a request arriving while the server is
// mid-drain is answered immediately with a 503, a JSON body naming the
// reason, and a Retry-After header — never a hung connection.
func TestServeDrainRejects503JSON(t *testing.T) {
	env := newEnv(t, 31, 4)
	entered := make(chan struct{})
	release := make(chan struct{})
	env.cls = gatedClassifier(entered, release)
	s, err := New(newWarm(t, env, 31), Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Park a call inside the classifier so the drain stays in flight.
	inFlight := make(chan int, 1)
	go func() {
		_, code := postExplain(t, ts.URL, env.tuples[0])
		inFlight <- code
	}()
	<-entered

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(t.Context()) }()
	for !s.draining.Load() {
		runtime.Gosched()
	}

	// The server is draining and a call is in flight: a fresh tuple must
	// be turned away right now, with the full JSON contract.
	body, err := postJSON(ts.URL+"/v1/explain", `{"tuple": [1,1,1,1,1,0.5]}`)
	if err != nil {
		t.Fatal(err)
	}
	if body.code != http.StatusServiceUnavailable {
		t.Fatalf("mid-drain request: HTTP %d, want 503", body.code)
	}
	if ct := body.contentType; !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("mid-drain request: Content-Type %q, want application/json", ct)
	}
	if body.retryAfter == "" {
		t.Fatal("mid-drain request: no Retry-After header")
	}
	var resp ExplainResponse
	mustUnmarshal(t, body.raw, &resp)
	if resp.Source != "rejected" || !strings.Contains(resp.Error, "draining") {
		t.Fatalf("mid-drain request: source=%q error=%q, want rejected/draining", resp.Source, resp.Error)
	}

	// Release the call: the in-flight request is still answered (drain
	// never drops admitted work) and the drain completes cleanly.
	close(release)
	if code := <-inFlight; code != http.StatusOK {
		t.Fatalf("in-flight request: HTTP %d, want 200", code)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestServeShedsWithRetryAfter: a full admission queue is load-shed
// with 429 + Retry-After (the replica is saturated, not going away).
func TestServeShedsWithRetryAfter(t *testing.T) {
	env := newEnv(t, 32, 4)
	entered := make(chan struct{})
	release := make(chan struct{})
	env.cls = gatedClassifier(entered, release)
	s, err := New(newWarm(t, env, 32), Config{QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	unpark := sync.OnceFunc(func() { close(release) })
	defer unpark() // before Close, which waits for the parked request

	first := make(chan int, 1)
	go func() {
		_, code := postExplain(t, ts.URL, env.tuples[0])
		first <- code
	}()
	<-entered // the first call is parked in the classifier

	// Fill the single queue slot directly, then overflow it over HTTP.
	if err := s.admit(); err != nil {
		t.Fatalf("filling queue: %v", err)
	}
	body, err := postJSON(ts.URL+"/v1/explain", `{"tuple": [1,1,1,1,1,0.5]}`)
	if err != nil {
		t.Fatal(err)
	}
	if body.code != http.StatusTooManyRequests {
		t.Fatalf("overflow request: HTTP %d, want 429", body.code)
	}
	if body.retryAfter == "" {
		t.Fatal("overflow request: no Retry-After header")
	}
	var resp ExplainResponse
	mustUnmarshal(t, body.raw, &resp)
	if resp.Source != "rejected" || !strings.Contains(resp.Error, "queue full") {
		t.Fatalf("overflow request: source=%q error=%q, want rejected/queue full", resp.Source, resp.Error)
	}

	s.release()
	unpark()
	if code := <-first; code != http.StatusOK {
		t.Fatalf("first request: HTTP %d, want 200", code)
	}
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotEndpointAndPeerRestore: GET /snapshot serves the store in
// the versioned format with transport headers, and a fresh server warms
// from it through RestoreFromPeers, answering the restored tuple from
// its store without recomputing.
func TestSnapshotEndpointAndPeerRestore(t *testing.T) {
	env := newEnv(t, 33, 4)
	a, err := New(newWarm(t, env, 33), Config{})
	if err != nil {
		t.Fatal(err)
	}
	tsA := httptest.NewServer(a.Handler())
	defer tsA.Close()
	defer a.Drain(t.Context())

	if _, code := postExplain(t, tsA.URL, env.tuples[0]); code != http.StatusOK {
		t.Fatalf("seeding request: HTTP %d", code)
	}

	resp, err := http.Get(tsA.URL + "/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/snapshot: HTTP %d", resp.StatusCode)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if v := resp.Header.Get(headerStoreVersion); v != "1" {
		t.Fatalf("%s=%q, want 1", headerStoreVersion, v)
	}
	if resp.Header.Get(headerStoreChecksum) == "" {
		t.Fatalf("missing %s header", headerStoreChecksum)
	}
	if c := resp.Header.Get(headerStoreCount); c != "1" {
		t.Fatalf("%s=%q, want 1", headerStoreCount, c)
	}
	st, err := store.Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("decoding /snapshot body: %v", err)
	}
	if st.Len() != 1 {
		t.Fatalf("snapshot holds %d entries, want 1", st.Len())
	}

	// A fresh peer warms from A and serves the tuple from its store.
	b, err := New(newWarm(t, env, 33), Config{})
	if err != nil {
		t.Fatal(err)
	}
	tsB := httptest.NewServer(b.Handler())
	defer tsB.Close()
	defer b.Drain(t.Context())
	n, err := b.RestoreFromPeers(t.Context(), []string{tsA.URL}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("RestoreFromPeers restored %d entries, want 1", n)
	}
	out, code := postExplain(t, tsB.URL, env.tuples[0])
	if code != http.StatusOK || out.Source != "store" {
		t.Fatalf("restored tuple: HTTP %d source=%q, want 200/store", code, out.Source)
	}

	// A peer serving a corrupted body must be rejected, and the error
	// must name the checksum, not a gob panic.
	corrupt := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set(headerStoreChecksum, "0000000000000000")
		w.Write(raw)
	}))
	defer corrupt.Close()
	if _, err := b.RestoreFromPeers(t.Context(), []string{corrupt.URL}, nil); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("corrupt peer: err=%v, want checksum error", err)
	}
}
