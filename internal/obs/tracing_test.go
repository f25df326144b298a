package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestParseTraceparent(t *testing.T) {
	const tp = "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01"
	tc, err := ParseTraceparent(tp)
	if err != nil {
		t.Fatalf("ParseTraceparent(%q): %v", tp, err)
	}
	if tc.TraceID != "4bf92f3577b34da6a3ce929d0e0e4736" || tc.SpanID != "00f067aa0ba902b7" || tc.Flags != 1 {
		t.Fatalf("parsed %+v", tc)
	}
	if got := tc.Traceparent(); got != tp {
		t.Fatalf("Traceparent() = %q, want %q", got, tp)
	}

	// Uppercase hex is normalised to lowercase.
	up, err := ParseTraceparent("00-4BF92F3577B34DA6A3CE929D0E0E4736-00F067AA0BA902B7-01")
	if err != nil || up.TraceID != tc.TraceID || up.SpanID != tc.SpanID {
		t.Fatalf("uppercase parse: %+v, %v", up, err)
	}

	// A future version with extra fields still parses (forward compat).
	if _, err := ParseTraceparent("01-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01-extra"); err != nil {
		t.Fatalf("future version rejected: %v", err)
	}

	bad := []string{
		"",
		"00-short-00f067aa0ba902b7-01",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01", // all-zero trace
		"00-4bf92f3577b34da6a3ce929d0e0e4736-0000000000000000-01", // all-zero span
		"ff-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // forbidden version
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7",    // missing flags
		"00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-zz", // bad flags
		"00-xyz92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01", // non-hex
	}
	for _, s := range bad {
		if _, err := ParseTraceparent(s); err == nil {
			t.Errorf("ParseTraceparent(%q) accepted malformed input", s)
		}
	}
}

func TestTraceContextChild(t *testing.T) {
	tc := NewTraceContext()
	if !tc.Valid() {
		t.Fatalf("NewTraceContext invalid: %+v", tc)
	}
	c := tc.Child()
	if c.TraceID != tc.TraceID {
		t.Fatalf("child changed trace ID: %q vs %q", c.TraceID, tc.TraceID)
	}
	if c.SpanID == tc.SpanID || !c.Valid() {
		t.Fatalf("child span ID not fresh: %+v", c)
	}
	if strings.Count(tc.Traceparent(), "-") != 3 {
		t.Fatalf("malformed traceparent %q", tc.Traceparent())
	}
}

func TestTraceContextOnContext(t *testing.T) {
	tc := NewTraceContext()
	ctx := ContextWithTrace(t.Context(), tc)
	got, ok := TraceFromContext(ctx)
	if !ok || got != tc {
		t.Fatalf("TraceFromContext = %+v, %v", got, ok)
	}
	if _, ok := TraceFromContext(t.Context()); ok {
		t.Fatal("bare context reported a trace")
	}
}

func TestRequestRingTopK(t *testing.T) {
	ring := newRequestRing(3)
	for i, ms := range []float64{5, 1, 9, 3, 7} {
		ring.offer(RequestTrace{TraceID: strings.Repeat("a", 31) + string(rune('0'+i)), DurMS: ms})
	}
	snap := ring.snapshot(false)
	if len(snap) != 3 {
		t.Fatalf("ring holds %d entries, want 3", len(snap))
	}
	// Slowest-first, the three slowest of {5,1,9,3,7}.
	if snap[0].DurMS != 9 || snap[1].DurMS != 7 || snap[2].DurMS != 5 {
		t.Fatalf("ring kept %v %v %v", snap[0].DurMS, snap[1].DurMS, snap[2].DurMS)
	}
}

func TestRequestRingDuplicateTrace(t *testing.T) {
	ring := newRequestRing(4)
	id := strings.Repeat("b", 32)
	ring.offer(RequestTrace{TraceID: id, DurMS: 2, Source: "store"})
	ring.offer(RequestTrace{TraceID: id, DurMS: 8, Source: "computed"})
	ring.offer(RequestTrace{TraceID: id, DurMS: 1, Source: "store"})
	got, ok := ring.byTrace(id)
	if !ok || got.DurMS != 8 || got.Source != "computed" {
		t.Fatalf("duplicate trace kept %+v ok=%v", got, ok)
	}
	if snap := ring.snapshot(false); len(snap) != 1 {
		t.Fatalf("duplicates occupy %d slots", len(snap))
	}
}

func TestRecorderRequests(t *testing.T) {
	rec := NewRecorder()
	rec.OfferRequest(RequestTrace{
		TraceID: strings.Repeat("c", 32), SpanID: strings.Repeat("1", 16),
		Name: "request", Source: "computed", DurMS: 4,
		Start: time.Now(), Stages: StageBreakdown{QueueWait: time.Millisecond},
	})

	sum := rec.RequestsSummary()
	if sum.Count != 1 || sum.Capacity != DefaultRequestCapacity || len(sum.Requests) != 1 {
		t.Fatalf("summary %+v", sum)
	}
	if sum.Requests[0].Root != nil {
		t.Fatal("summary kept span dumps; they belong only to the full view")
	}
	full := rec.Requests()
	if len(full) != 1 || full[0].Root == nil || len(full[0].Root.Children) != 1 {
		t.Fatalf("full view %+v", full)
	}
	if _, ok := rec.RequestByTrace(strings.Repeat("c", 32)); !ok {
		t.Fatal("RequestByTrace missed a retained trace")
	}
	if _, ok := rec.RequestByTrace("missing"); ok {
		t.Fatal("RequestByTrace resolved an unknown trace")
	}

	// Request roots must not leak into the recorder's span forest.
	for _, d := range rec.Trace() {
		if d.Name == "request" {
			t.Fatal("request root landed in the trace forest")
		}
	}

	var nilRec *Recorder
	nilRec.OfferRequest(RequestTrace{TraceID: "x"})
	if s := nilRec.RequestsSummary(); s.Count != 0 {
		t.Fatalf("nil recorder summary %+v", s)
	}
}

func TestStageBreakdownJSON(t *testing.T) {
	bd := StageBreakdown{
		QueueWait:     2 * time.Millisecond,
		BatchAssembly: time.Millisecond,
		PoolSample:    500 * time.Microsecond,
		Classify:      3 * time.Millisecond,
		Solve:         4 * time.Millisecond,
	}
	if bd.IsZero() {
		t.Fatal("populated breakdown reported zero")
	}
	if got, want := bd.Total(), 10500*time.Microsecond; got != want {
		t.Fatalf("Total() = %v, want %v", got, want)
	}
	b, err := bd.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	var back StageBreakdown
	if err := back.UnmarshalJSON(b); err != nil {
		t.Fatal(err)
	}
	if back != bd {
		t.Fatalf("round trip %+v != %+v", back, bd)
	}
	if !new(StageBreakdown).IsZero() {
		t.Fatal("zero breakdown not IsZero")
	}
}

func TestObserveStagesSkipsZero(t *testing.T) {
	rec := NewRecorder()
	rec.ObserveStages(StageBreakdown{QueueWait: time.Millisecond})
	m := rec.Metrics()
	if h, ok := m.Histograms[HistStageQueueWait]; !ok || h.Count != 1 {
		t.Fatalf("queue_wait histogram %+v", m.Histograms[HistStageQueueWait])
	}
	for _, name := range []string{HistStageBatchAssembly, HistStagePoolSample, HistStageClassify, HistStageSolve} {
		if h, ok := m.Histograms[name]; ok && h.Count != 0 {
			t.Fatalf("zero stage %s was observed: %+v", name, h)
		}
	}
	var nilRec *Recorder
	nilRec.ObserveStages(StageBreakdown{Solve: time.Second}) // must not panic
}

func TestSpanTraceIdentity(t *testing.T) {
	rec := NewRecorder()
	s := rec.StartSpan("root")
	s.SetTrace("trace-1", "span-1", "parent-1")
	c := s.Child("child")
	g := c.Child("grandchild")
	a := s.Child("stage")
	a.SetAttr("k", 1)
	g.End()
	c.End()
	a.End()
	s.End()

	d := s.dump()
	if d.TraceID != "trace-1" || d.SpanID != "span-1" || d.ParentID != "parent-1" {
		t.Fatalf("root dump %+v", d)
	}
	for _, cd := range d.Children {
		if cd.TraceID != "trace-1" {
			t.Fatalf("child %q lost trace identity: %+v", cd.Name, cd)
		}
	}
	if d.Children[1].Attrs["k"] != 1 {
		t.Fatalf("child attrs %+v", d.Children[1].Attrs)
	}
	if d.Children[0].Children[0].TraceID != "trace-1" {
		t.Fatal("grandchild lost trace identity")
	}
}

// TestSpanDrainRace hammers one span tree from many goroutines — child
// creation, attribute writes, ends, and concurrent dumps/trace walks —
// to prove the locking drains cleanly under the race detector.
func TestSpanDrainRace(t *testing.T) {
	rec := NewRecorder()
	root := rec.StartSpan("root")
	root.SetTrace(strings.Repeat("d", 32), strings.Repeat("2", 16), "")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				c := root.Child("work")
				c.SetAttr("i", i)
				gc := c.Child("sub")
				gc.End()
				_ = gc.dump()
				c.End()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			_ = root.dump()
			_ = rec.Trace()
			root.SetTrace(strings.Repeat("d", 32), strings.Repeat("2", 16), "")
		}
	}()
	wg.Wait()
	root.End()
	d := root.dump()
	if len(d.Children) != 8*50 {
		t.Fatalf("root holds %d children, want %d", len(d.Children), 8*50)
	}
}

func TestChromeTraceFlowEvents(t *testing.T) {
	rec := NewRecorder()
	flush := rec.StartSpan(StageWarmFlush)
	flush.SetAttr("flush", 3)
	flush.End()

	traceID := strings.Repeat("e", 32)
	rec.OfferRequest(RequestTrace{
		TraceID: traceID, SpanID: strings.Repeat("3", 16), Name: "request", Flush: 3, DurMS: 5,
		Start: time.Now(), Stages: StageBreakdown{QueueWait: time.Millisecond},
	})
	// A store hit (flush 0) must not grow a flow arrow.
	rec.OfferRequest(RequestTrace{TraceID: strings.Repeat("f", 32), Name: "request", DurMS: 1, Start: time.Now()})

	events := rec.ChromeTrace()
	var start, finish *ChromeEvent
	var flushTID, reqTID int
	for i := range events {
		ev := &events[i]
		switch {
		case ev.Name == StageWarmFlush:
			flushTID = ev.TID
		case ev.Name == "request" && ev.Args["trace_id"] == traceID:
			reqTID = ev.TID
		case ev.Cat == "shahin-flow" && ev.Ph == "s":
			start = ev
		case ev.Cat == "shahin-flow" && ev.Ph == "f":
			finish = ev
		}
	}
	if start == nil || finish == nil {
		t.Fatalf("flow pair missing: start=%v finish=%v", start, finish)
	}
	if start.ID != traceID || finish.ID != traceID {
		t.Fatalf("flow IDs %q / %q, want trace ID", start.ID, finish.ID)
	}
	if start.TID != reqTID {
		t.Fatalf("flow start on tid %d, request track is %d", start.TID, reqTID)
	}
	if finish.TID != flushTID || finish.BP != "e" {
		t.Fatalf("flow finish %+v, want flush tid %d bp e", finish, flushTID)
	}
	// Exactly one pair: the store hit contributed none.
	var flows int
	for _, ev := range events {
		if ev.Cat == "shahin-flow" {
			flows++
		}
	}
	if flows != 2 {
		t.Fatalf("%d flow events, want 2", flows)
	}
}
