package obs

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"
)

func TestChromeTrace(t *testing.T) {
	r := NewRecorder()
	batch := r.StartSpan(StageBatch)
	batch.SetAttr("tuples", 3)
	mine := batch.Child(StageMine)
	time.Sleep(time.Millisecond)
	mine.End()
	batch.Child(StageExplain).End()
	batch.End()
	stream := r.StartSpan(StageStream) // second root, left in flight

	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []ChromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not a JSON array: %v\n%s", err, buf.String())
	}
	if len(events) != 4 {
		t.Fatalf("got %d events, want 4", len(events))
	}

	lastTS := map[int]float64{}
	names := map[string]ChromeEvent{}
	for _, e := range events {
		if e.Ph != "X" || e.Cat != "shahin" || e.PID != 1 {
			t.Errorf("event %+v not a complete shahin event", e)
		}
		if e.TID < 1 {
			t.Errorf("event %q has tid %d", e.Name, e.TID)
		}
		if prev, ok := lastTS[e.TID]; ok && e.TS < prev {
			t.Errorf("ts not monotone on tid %d: %v after %v (%q)", e.TID, e.TS, prev, e.Name)
		}
		lastTS[e.TID] = e.TS
		names[e.Name] = e
	}
	if names[StageMine].TID != names[StageBatch].TID {
		t.Error("child span landed on a different tid than its root")
	}
	if names[StageStream].TID == names[StageBatch].TID {
		t.Error("second root should get its own tid")
	}
	if names[StageBatch].Args["tuples"] != float64(3) {
		t.Errorf("batch args %+v", names[StageBatch].Args)
	}
	if names[StageStream].Args["in_flight"] != true {
		t.Errorf("in-flight root args %+v", names[StageStream].Args)
	}
	if names[StageMine].Dur <= 0 {
		t.Errorf("mine dur = %v", names[StageMine].Dur)
	}
	stream.End()
}

func TestChromeTraceNil(t *testing.T) {
	var r *Recorder
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var events []ChromeEvent
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("nil trace not a JSON array: %v", err)
	}
	if len(events) != 0 {
		t.Fatalf("nil recorder produced %d events", len(events))
	}
}
