package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestServeEndpoints(t *testing.T) {
	rec := NewRecorder()
	rec.Counter(CounterTuplesDone).Add(5)
	rec.Gauge(GaugeTuplesTotal).Set(10)
	rec.Histogram(HistPredict).Observe(20 * time.Microsecond)
	span := rec.StartSpan(StageBatch)
	span.Child(StageMine).End()
	span.End()

	srv, err := Serve("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() == "" {
		t.Fatal("no bound address")
	}
	base := "http://" + srv.Addr()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
		}
		return body
	}

	var m Metrics
	if err := json.Unmarshal(get("/metrics"), &m); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if m.Counters[CounterTuplesDone] != 5 || m.Histograms[HistPredict].Count != 1 {
		t.Fatalf("metrics %+v", m)
	}

	if m.Gauges[GaugeTuplesTotal] != 10 {
		t.Fatalf("metrics gauges %+v", m.Gauges)
	}

	var chrome []ChromeEvent
	if err := json.Unmarshal(get("/trace"), &chrome); err != nil {
		t.Fatalf("/trace not JSON: %v", err)
	}
	if len(chrome) != 2 || chrome[0].Name != StageBatch || chrome[1].Name != StageMine {
		t.Fatalf("trace %+v", chrome)
	}

	// The index and the mux are one table: everything mounted answers
	// and is listed.
	index := string(get("/"))
	for _, e := range endpoints(rec) {
		get(e.path)
		if !strings.Contains(index, "\n"+e.path) {
			t.Errorf("index does not list %s:\n%s", e.path, index)
		}
	}
	// The index lists exactly what is mounted; anything else is 404.
	want := "shahin observability\n\n/metrics\n/trace\n/events\n/requests (?trace=<id>)\n/debug/pprof/\n"
	if index != want {
		t.Errorf("index =\n%s\nwant\n%s", index, want)
	}
	for _, path := range []string{"/progress", "/nope"} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}
}

// TestServeFormatsAndEvents covers the encodings on the HTTP surface:
// JSON at /metrics, Chrome trace-event JSON at /trace, and the JSONL
// event log at /events.
func TestServeFormatsAndEvents(t *testing.T) {
	rec := NewRecorder()
	rec.Counter(CounterInvocations).Add(7)
	span := rec.StartSpan(StageBatch)
	span.End()
	rec.Emit(Event{Type: EventTupleExplained, Tuple: 0, Explainer: "LIME", Fresh: 121})
	rec.Emit(Event{Type: EventTupleExplained, Tuple: 1, Explainer: "LIME", Pooled: 80, Fresh: 41})

	srv, err := Serve("127.0.0.1:0", rec)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + srv.Addr()

	get := func(path, wantType string) []byte {
		t.Helper()
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != wantType {
			t.Errorf("GET %s: Content-Type %q, want %q", path, ct, wantType)
		}
		return body
	}

	var m Metrics
	if err := json.Unmarshal(get("/metrics", "application/json"), &m); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if m.Counters[CounterInvocations] != 7 {
		t.Errorf("/metrics missing counter: %+v", m.Counters)
	}

	var chrome []ChromeEvent
	if err := json.Unmarshal(get("/trace", "application/json"), &chrome); err != nil {
		t.Fatalf("chrome trace not a JSON array: %v", err)
	}
	if len(chrome) != 1 || chrome[0].Name != StageBatch || chrome[0].Ph != "X" {
		t.Fatalf("chrome events %+v", chrome)
	}

	lines := strings.Split(strings.TrimRight(string(get("/events", "application/x-ndjson")), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d event lines", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[1]), &ev); err != nil {
		t.Fatalf("event line not JSON: %v", err)
	}
	if ev.Tuple != 1 || ev.Pooled != 80 {
		t.Fatalf("event %+v", ev)
	}
}

func TestServeNilRecorder(t *testing.T) {
	if _, err := Serve("127.0.0.1:0", nil); err == nil {
		t.Fatal("Serve(nil) should fail")
	}
}

func TestServerNilSafety(t *testing.T) {
	var s *Server
	if s.Addr() != "" {
		t.Fatal("nil server address")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestServeBadAddr(t *testing.T) {
	if _, err := Serve("256.0.0.1:bad", NewRecorder()); err == nil {
		t.Fatal("bad address should fail")
	}
}

func ExampleServe() {
	rec := NewRecorder()
	srv, err := Serve("127.0.0.1:0", rec)
	if err != nil {
		fmt.Println(err)
		return
	}
	defer srv.Close()
	fmt.Println(srv.Addr() != "")
	// Output: true
}
