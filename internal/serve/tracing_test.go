package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"shahin/internal/core"
	"shahin/internal/explain/lime"
	"shahin/internal/obs"
)

// postTraced sends one explain request, optionally carrying a
// traceparent header, and returns the decoded response, status code,
// and response headers.
func postTraced(url string, tuple []float64, traceparent string) (ExplainResponse, int, http.Header, error) {
	var out ExplainResponse
	body, err := json.Marshal(ExplainRequest{Tuple: tuple})
	if err != nil {
		return out, 0, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, url+"/v1/explain", bytes.NewReader(body))
	if err != nil {
		return out, 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return out, 0, nil, err
	}
	defer resp.Body.Close()
	err = json.NewDecoder(resp.Body).Decode(&out)
	return out, resp.StatusCode, resp.Header, err
}

// checkTimeIdentity asserts an answer's stages are the whole of its
// reported wait: explainOne folds what no stage saw into the stage that
// owns the path, off the same clock reading as wait_ms, so the two
// differ only by the wire's float milliseconds.
func checkTimeIdentity(t *testing.T, label string, r ExplainResponse) {
	t.Helper()
	if r.Stages == nil {
		t.Fatalf("%s: no stage breakdown", label)
	}
	wait := time.Duration(r.WaitMS * float64(time.Millisecond))
	if diff := r.Stages.Total() - wait; diff > time.Microsecond || diff < -time.Microsecond {
		t.Fatalf("%s (%s): stages sum to %v, wait is %v", label, r.Source, r.Stages.Total(), wait)
	}
}

// TestServeTraceReconciliation fires concurrent requests and reconciles
// every answer against the tracing surfaces: each request carries a
// unique trace ID, resolves to exactly one retained root span whose
// children's durations sum to no more than the root's, its stage
// breakdown sums to the reported wait — for computed, store and exact
// answers alike — the exemplar ring retains one entry per request, and
// no request root leaks into the recorder's span forest.
func TestServeTraceReconciliation(t *testing.T) {
	const n = 16
	env := newForestEnv(t, 3, n)
	rec := obs.NewRecorder()
	s, err := New(newWarm(t, env, 3), Config{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(t.Context())

	resps := make([]ExplainResponse, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var code int
			resps[i], code, _, errs[i] = postTraced(ts.URL, env.tuples[i], "")
			if errs[i] == nil && code != http.StatusOK {
				errs[i] = fmt.Errorf("HTTP %d", code)
			}
		}()
	}
	wg.Wait()

	seen := make(map[string]bool, n)
	for i, r := range resps {
		if errs[i] != nil {
			t.Fatalf("request %d: %v", i, errs[i])
		}
		if r.TraceID == "" {
			t.Fatalf("request %d: no trace id in response", i)
		}
		if seen[r.TraceID] {
			t.Fatalf("request %d: duplicate trace id %s", i, r.TraceID)
		}
		seen[r.TraceID] = true

		rt, ok := rec.RequestByTrace(r.TraceID)
		if !ok {
			t.Fatalf("request %d: trace %s not retained in the ring", i, r.TraceID)
		}
		if rt.Root == nil || rt.Root.Name != "request" || rt.Root.TraceID != r.TraceID {
			t.Fatalf("request %d: malformed root %+v", i, rt.Root)
		}
		var childSum float64
		for _, c := range rt.Root.Children {
			childSum += c.DurMS
		}
		if childSum > rt.Root.DurMS*1.001+0.01 {
			t.Fatalf("request %d: children sum %.3fms exceeds root %.3fms", i, childSum, rt.Root.DurMS)
		}
		if r.Source != "computed" {
			t.Fatalf("request %d: source %q, want computed", i, r.Source)
		}
		checkTimeIdentity(t, fmt.Sprintf("request %d", i), r)
	}

	if sum := rec.RequestsSummary(); sum.Count != n {
		t.Fatalf("ring retains %d requests, want %d", sum.Count, n)
	}
	if got := rec.Histogram(obs.HistServeRequest).Count(); got != n {
		t.Fatalf("request-latency histogram holds %d observations, want %d", got, n)
	}
	for _, d := range rec.Trace() {
		if d.Name == "request" {
			t.Fatal("request root leaked into the recorder's span forest")
		}
	}

	// The two paths that never queue keep the same identity.
	replay, code := postExplain(t, ts.URL, env.tuples[0])
	if code != http.StatusOK || replay.Source != "store" {
		t.Fatalf("replay: HTTP %d source=%q, want store", code, replay.Source)
	}
	checkTimeIdentity(t, "replay", replay)
	exact, code := postExplainKind(t, ts.URL, env.tuples[1], "exactshap")
	if code != http.StatusOK || exact.Source != "exact" {
		t.Fatalf("exact request: HTTP %d source=%q, want exact", code, exact.Source)
	}
	checkTimeIdentity(t, "exact", exact)
}

// TestServeTraceparentEcho checks W3C trace propagation end to end: an
// incoming traceparent is adopted (same trace, fresh span), echoed on
// the response headers and body, resolvable through /requests?trace=,
// shared by every tuple of a batch call, and replaced by a fresh valid
// identity when the incoming header is malformed.
func TestServeTraceparentEcho(t *testing.T) {
	env := newEnv(t, 4, 8)
	rec := obs.NewRecorder()
	s, err := New(newWarm(t, env, 4), Config{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(t.Context())

	const (
		upTrace = "0af7651916cd43dd8448eb211c80319c"
		upSpan  = "b7ad6b7169203331"
	)
	out, code, hdr, err := postTraced(ts.URL, env.tuples[0], "00-"+upTrace+"-"+upSpan+"-01")
	if err != nil || code != http.StatusOK {
		t.Fatalf("traced request: HTTP %d, %v", code, err)
	}
	if got := hdr.Get("X-Shahin-Trace-Id"); got != upTrace {
		t.Fatalf("X-Shahin-Trace-Id = %q, want %q", got, upTrace)
	}
	echoed, err := obs.ParseTraceparent(hdr.Get("Traceparent"))
	if err != nil {
		t.Fatalf("echoed traceparent %q: %v", hdr.Get("Traceparent"), err)
	}
	if echoed.TraceID != upTrace || echoed.SpanID == upSpan {
		t.Fatalf("echoed traceparent %+v must keep the trace and mint a new span", echoed)
	}
	if out.TraceID != upTrace {
		t.Fatalf("response body trace %q, want %q", out.TraceID, upTrace)
	}

	// The retained exemplar names the caller's span as its parent.
	resp, err := http.Get(ts.URL + "/requests?trace=" + upTrace)
	if err != nil {
		t.Fatal(err)
	}
	var rt obs.RequestTrace
	if err := json.NewDecoder(resp.Body).Decode(&rt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || rt.TraceID != upTrace || rt.ParentID != upSpan {
		t.Fatalf("/requests?trace: HTTP %d, %+v", resp.StatusCode, rt)
	}

	// An unknown trace answers 404.
	resp, err = http.Get(ts.URL + "/requests?trace=ffffffffffffffffffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown trace: HTTP %d, want 404", resp.StatusCode)
	}

	// Every tuple of a batch call shares the caller's trace ID.
	body, err := json.Marshal(BatchRequest{Tuples: env.tuples[1:4]})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/explain/batch", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", "00-"+upTrace+"-"+upSpan+"-01")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var batch BatchResponse[ExplainResponse]
	if err := json.NewDecoder(resp.Body).Decode(&batch); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: HTTP %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Shahin-Trace-Id"); got != upTrace {
		t.Fatalf("batch X-Shahin-Trace-Id = %q", got)
	}
	for i, e := range batch.Explanations {
		if e.TraceID != upTrace {
			t.Fatalf("batch tuple %d trace %q, want shared %q", i, e.TraceID, upTrace)
		}
	}

	// A malformed traceparent falls back to a fresh valid identity.
	out, code, hdr, err = postTraced(ts.URL, env.tuples[4], "garbage")
	if err != nil || code != http.StatusOK {
		t.Fatalf("malformed traceparent request: HTTP %d, %v", code, err)
	}
	fresh, err := obs.ParseTraceparent(hdr.Get("Traceparent"))
	if err != nil {
		t.Fatalf("fresh traceparent %q: %v", hdr.Get("Traceparent"), err)
	}
	if fresh.TraceID == upTrace || out.TraceID != fresh.TraceID {
		t.Fatalf("fresh trace %+v vs body %q", fresh, out.TraceID)
	}
}

// exemplarTimes masks what differs between two runs of one request —
// every millisecond reading that is not zero — so the rest of an
// exemplar compares as bytes.
var exemplarTimes = regexp.MustCompile(`("[a-z_]*_ms": )[0-9.e+-]*[1-9][0-9.e+-]*`)

// TestRequestExemplarGolden pins what a served request leaves behind,
// one row per path: the body of GET /requests?trace=<id> and the request
// track of the Chrome trace with its flow pair to the flush that served
// it. Ids are the ones the test sent; times are masked, and checked
// instead for what they must add up to.
func TestRequestExemplarGolden(t *testing.T) {
	env := newForestEnv(t, 80, 17)
	rec := obs.NewRecorder()
	warm, err := core.NewWarm(env.st, env.cls, core.Options{
		Explainer: core.LIME,
		LIME:      lime.Config{NumSamples: 300},
		Tau:       50,
		Seed:      81,
		Recorder:  rec,
	}, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	// A cold Warm explains its first fifteen tuples without a pool, so the
	// computed answer, flush 2, follows a flush that warms it up.
	if _, err := warm.ExplainAll(env.tuples[1:17]); err != nil {
		t.Fatal(err)
	}
	s, err := New(warm, Config{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	defer s.Drain(t.Context())

	const caller = "b7ad6b7169203331"
	rows := []struct {
		trace, kind, source string
		body, track         string
	}{
		{
			trace: "c0000000000000000000000000000001", source: "computed",
			body: `{ "trace_id": "TRACE", "span_id": "SPAN", "parent_span_id": "CALLER", "name": "request", "source": "computed", "status": "ok", "flush": 2, "dur_ms": T,` +
				` "stages": { "queue_wait_ms": T, "batch_assembly_ms": T, "pool_sample_ms": T, "classify_ms": T, "solve_ms": T },` +
				` "root": { "name": "request", "trace_id": "TRACE", "span_id": "SPAN", "parent_span_id": "CALLER", "start_ms": T, "dur_ms": T,` +
				` "attrs": { "flush": 2, "source": "computed", "status": "ok" }, "children": [` +
				` { "name": "queue_wait", "trace_id": "TRACE", "start_ms": T, "dur_ms": T },` +
				` { "name": "batch_assembly", "trace_id": "TRACE", "start_ms": T, "dur_ms": T },` +
				` { "name": "pool_sample", "trace_id": "TRACE", "start_ms": T, "dur_ms": T },` +
				` { "name": "classify", "trace_id": "TRACE", "start_ms": T, "dur_ms": T },` +
				` { "name": "solve", "trace_id": "TRACE", "start_ms": T, "dur_ms": T } ] } }`,
			track: `X request{flush=2 source=computed status=ok trace_id=TRACE} X queue_wait{trace_id=TRACE} X batch_assembly{trace_id=TRACE}` +
				` X pool_sample{trace_id=TRACE} X classify{trace_id=TRACE} X solve{trace_id=TRACE} s request-flush f request-flush bp=e on warm-flush 2`,
		},
		{
			trace: "50000000000000000000000000000002", source: "store",
			body: `{ "trace_id": "TRACE", "span_id": "SPAN", "parent_span_id": "CALLER", "name": "request", "source": "store", "status": "ok", "dur_ms": T,` +
				` "stages": { "queue_wait_ms": 0, "batch_assembly_ms": 0, "pool_sample_ms": 0, "classify_ms": 0, "solve_ms": T },` +
				` "root": { "name": "request", "trace_id": "TRACE", "span_id": "SPAN", "parent_span_id": "CALLER", "start_ms": T, "dur_ms": T,` +
				` "attrs": { "source": "store", "status": "ok" }, "children": [` +
				` { "name": "solve", "trace_id": "TRACE", "start_ms": T, "dur_ms": T } ] } }`,
			track: `X request{source=store status=ok trace_id=TRACE} X solve{trace_id=TRACE}`,
		},
		{
			trace: "e0000000000000000000000000000003", kind: "exactshap", source: "exact",
			body: `{ "trace_id": "TRACE", "span_id": "SPAN", "parent_span_id": "CALLER", "name": "request", "source": "exact", "status": "ok", "dur_ms": T,` +
				` "stages": { "queue_wait_ms": 0, "batch_assembly_ms": 0, "pool_sample_ms": 0, "classify_ms": T, "solve_ms": T },` +
				` "root": { "name": "request", "trace_id": "TRACE", "span_id": "SPAN", "parent_span_id": "CALLER", "start_ms": T, "dur_ms": T,` +
				` "attrs": { "source": "exact", "status": "ok" }, "children": [` +
				` { "name": "classify", "trace_id": "TRACE", "start_ms": T, "dur_ms": T },` +
				` { "name": "solve", "trace_id": "TRACE", "start_ms": T, "dur_ms": T } ] } }`,
			track: `X request{source=exact status=ok trace_id=TRACE} X classify{trace_id=TRACE} X solve{trace_id=TRACE}`,
		},
	}
	for _, row := range rows {
		body, err := json.Marshal(ExplainRequest{Tuple: env.tuples[0], Explainer: row.kind})
		if err != nil {
			t.Fatal(err)
		}
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/explain", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("traceparent", "00-"+row.trace+"-"+caller+"-01")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		var out ExplainResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || out.Source != row.source {
			t.Fatalf("%s request: HTTP %d source=%q, %v", row.source, resp.StatusCode, out.Source, err)
		}
	}

	chrome := rec.ChromeTrace()
	for _, row := range rows {
		resp, err := http.Get(ts.URL + "/requests?trace=" + row.trace)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: GET /requests?trace: HTTP %d, %v", row.source, resp.StatusCode, err)
		}
		var rt obs.RequestTrace
		if err := json.Unmarshal(raw, &rt); err != nil {
			t.Fatal(err)
		}
		ids := strings.NewReplacer(row.trace, "TRACE", rt.SpanID, "SPAN", caller, "CALLER")
		got := exemplarTimes.ReplaceAllString(ids.Replace(strings.Join(strings.Fields(string(raw)), " ")), "${1}T")
		if got != row.body {
			t.Errorf("%s exemplar:\n got %s\nwant %s", row.source, got, row.body)
		}

		// The children lie end to end from the request's start and never
		// outlast the root.
		at, sum := rt.Root.StartMS, 0.0
		for _, c := range rt.Root.Children {
			if c.StartMS < at-0.01 {
				t.Errorf("%s: child %s starts at %.4fms, before %.4fms", row.source, c.Name, c.StartMS, at)
			}
			at, sum = c.StartMS+c.DurMS, sum+c.DurMS
		}
		if sum > rt.Root.DurMS*1.001+0.01 {
			t.Errorf("%s: children sum %.3fms exceeds root %.3fms", row.source, sum, rt.Root.DurMS)
		}

		// Its Chrome track: one complete event per span of the dump, in
		// dump order, then — for the one request a flush served — the flow
		// pair from the request's track to that flush's.
		spans := map[string]obs.ChromeEvent{}
		var flows []string
		flushTID := 0
		for _, ev := range chrome {
			switch {
			case ev.Name == obs.StageWarmFlush && ev.Args["flush"] == rt.Flush:
				flushTID = ev.TID
			case ev.Args["trace_id"] == row.trace && ev.Cat == "shahin":
				spans[ev.Name] = ev
			case ev.ID == row.trace && ev.Ph == "s" && ev.TID == spans["request"].TID:
				flows = append(flows, "s "+ev.Name)
			case ev.ID == row.trace && ev.Ph == "f" && ev.TID == flushTID:
				flows = append(flows, fmt.Sprintf("f %s bp=%s on %s %d", ev.Name, ev.BP, obs.StageWarmFlush, rt.Flush))
			}
		}
		var track []string
		for _, d := range append([]*obs.SpanDump{rt.Root}, rt.Root.Children...) {
			ev := spans[d.Name]
			if ev.TID != spans["request"].TID {
				t.Errorf("%s: span %s is on track %d, its root on %d", row.source, d.Name, ev.TID, spans["request"].TID)
			}
			args := make([]string, 0, len(ev.Args))
			for k, v := range ev.Args {
				args = append(args, fmt.Sprintf("%s=%v", k, v))
			}
			sort.Strings(args)
			track = append(track, fmt.Sprintf("%s %s{%s}", ev.Ph, ev.Name, ids.Replace(strings.Join(args, " "))))
		}
		track = append(track, flows...)
		if got := strings.Join(track, " "); got != row.track {
			t.Errorf("%s chrome track:\n got %s\nwant %s", row.source, got, row.track)
		}
	}
}
