package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"shahin/internal/core"
	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/explain/lime"
	"shahin/internal/obs"
	"shahin/internal/rf"
)

// newForestEnv is the exact-path fixture: the classifier is an owned
// random forest, so the warm server answers ExplainExact.
func newForestEnv(t *testing.T, seed int64, batch int) *testEnv {
	t.Helper()
	cfg, err := datagen.Spec("recidivism")
	if err != nil {
		t.Fatal(err)
	}
	d, err := cfg.Generate(1500, seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := rf.Train(d, rf.Config{NumTrees: 10, MaxDepth: 6, Seed: seed + 1})
	if err != nil {
		t.Fatal(err)
	}
	return &testEnv{st: st, cls: forest, tuples: d.Rows(0, batch)}
}

// postExplainKind is postExplain with an explicit explainer field.
func postExplainKind(t *testing.T, url string, tuple []float64, kind string) (ExplainResponse, int) {
	t.Helper()
	body, err := json.Marshal(ExplainRequest{Tuple: tuple, Explainer: kind})
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

// TestServeExactFastPath requests exact SHAP from a LIME-kind server
// over an owned forest: the answer must come from the exact path —
// never the queue — and be accounted like any other explanation: the
// exact_shap provenance event, the progress counters, the split stages.
// Core and the server share one recorder, as in shahin-serve.
func TestServeExactFastPath(t *testing.T) {
	env := newForestEnv(t, 70, 6)
	rec := obs.NewRecorder()
	opts := core.Options{
		Explainer: core.LIME,
		LIME:      lime.Config{NumSamples: 300},
		Tau:       50,
		Seed:      71,
		Recorder:  rec,
	}
	warm, err := core.NewWarm(env.st, env.cls, opts, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(warm, Config{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(t.Context())

	out, code := postExplainKind(t, ts.URL, env.tuples[0], "exactshap")
	if code != http.StatusOK {
		t.Fatalf("exact request: HTTP %d", code)
	}
	if out.Source != "exact" || out.Status != "ok" || out.Explanation.Attribution == nil {
		t.Fatalf("exact request: source=%q status=%q attribution=%v",
			out.Source, out.Status, out.Explanation.Attribution)
	}
	if out.Stages == nil || out.Stages.Solve <= 0 || out.Stages.Classify <= 0 {
		t.Fatalf("exact request missing solve- and classify-stage attribution: %+v", out.Stages)
	}
	events := rec.Events()
	found := false
	for _, e := range events {
		if e.Type == obs.EventExactShap {
			found = true
			if e.NodeVisits <= 0 || e.Fresh != 1 || e.Tuple != 0 {
				t.Fatalf("exact_shap event tuple=%d visits=%d fresh=%d", e.Tuple, e.NodeVisits, e.Fresh)
			}
		}
	}
	if !found {
		t.Fatal("no exact_shap event emitted")
	}
	done := rec.Counter(obs.CounterTuplesDone)
	calls := rec.Counter(obs.CounterInvocations)
	if done.Value() != 1 || calls.Value() != 1 {
		t.Fatalf("after one exact answer: tuples_done=%d classifier_invocations=%d, want 1 and 1", done.Value(), calls.Value())
	}

	// The same tuple without the field still goes through the server's
	// configured LIME pipeline — the fast path is opt-in per request.
	computed, code := postExplain(t, ts.URL, env.tuples[0])
	if code != http.StatusOK || computed.Source != "computed" {
		t.Fatalf("default request: HTTP %d source=%q, want computed", code, computed.Source)
	}

	// Batch requests carry the field too.
	doneBefore, callsBefore := done.Value(), calls.Value()
	body, err := json.Marshal(BatchRequest{Tuples: env.tuples[1:4], Explainer: "exactshap"})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/explain/batch", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var batch BatchResponse[ExplainResponse]
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || batch.Count != 3 {
		t.Fatalf("batch: HTTP %d count=%d", resp.StatusCode, batch.Count)
	}
	for i, e := range batch.Explanations {
		if e.Source != "exact" || e.Explanation.Attribution == nil {
			t.Fatalf("batch tuple %d: source=%q", i, e.Source)
		}
	}
	// With the single request above that is four exact answers: each is
	// one tuple done and one classifier call.
	if d, c := done.Value()-doneBefore, calls.Value()-callsBefore; d != 3 || c != 3 {
		t.Errorf("a batch of three exact answers moved tuples_done by %d and classifier_invocations by %d", d, c)
	}
}

// TestServeExactFallsThroughToQueue requests exact SHAP from a server
// whose classifier is opaque: the request must still be answered, via
// the normal queue, with Source "computed".
func TestServeExactFallsThroughToQueue(t *testing.T) {
	env := newEnv(t, 72, 5)
	s, err := New(newWarm(t, env, 73), Config{Recorder: obs.NewRecorder()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(t.Context())

	out, code := postExplainKind(t, ts.URL, env.tuples[0], "exactshap")
	if code != http.StatusOK {
		t.Fatalf("HTTP %d", code)
	}
	if out.Source != "computed" || out.Explanation.Attribution == nil {
		t.Fatalf("source=%q, want computed fallback", out.Source)
	}
}

// TestServeExplainerMismatch rejects a named non-exact kind that the
// server was not started with.
func TestServeExplainerMismatch(t *testing.T) {
	env := newEnv(t, 74, 5)
	s, err := New(newWarm(t, env, 75), Config{Recorder: obs.NewRecorder()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(t.Context())

	if _, code := postExplainKind(t, ts.URL, env.tuples[0], "anchor"); code != http.StatusBadRequest {
		t.Fatalf("mismatched explainer: HTTP %d, want 400", code)
	}
	if _, code := postExplainKind(t, ts.URL, env.tuples[0], "nonsense"); code != http.StatusBadRequest {
		t.Fatalf("unknown explainer: HTTP %d, want 400", code)
	}
	// The server's own kind is always accepted by name.
	if out, code := postExplainKind(t, ts.URL, env.tuples[0], "lime"); code != http.StatusOK || out.Source != "computed" {
		t.Fatalf("matching explainer: HTTP %d source=%q", code, out.Source)
	}
}
