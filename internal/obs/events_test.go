package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"testing"
)

func TestEventLogOrderAndFields(t *testing.T) {
	r := NewRecorder()
	r.Emit(Event{Type: EventPoolBuild, Tuple: -1, Itemsets: 7, Fresh: 700})
	r.Emit(Event{Type: EventTupleExplained, Tuple: 0, Explainer: "LIME", Itemset: "{age=3}", Pooled: 80, Fresh: 20})
	r.Emit(Event{Type: EventTupleExplained, Tuple: 1, Explainer: "LIME", Fresh: 100})

	events := r.Events()
	if dropped := r.Counter(CounterEventsDropped).Value(); dropped != 0 {
		t.Fatalf("dropped = %d, want 0", dropped)
	}
	if len(events) != 3 {
		t.Fatalf("got %d events", len(events))
	}
	for i, e := range events {
		if e.Seq != int64(i) {
			t.Errorf("event %d has seq %d", i, e.Seq)
		}
		if e.TMS < 0 {
			t.Errorf("event %d has negative t_ms %v", i, e.TMS)
		}
	}
	if events[0].Type != EventPoolBuild || events[0].Tuple != -1 || events[0].Itemsets != 7 {
		t.Errorf("pool_build event %+v", events[0])
	}
	if events[1].Itemset != "{age=3}" || events[1].Pooled != 80 {
		t.Errorf("tuple_explained event %+v", events[1])
	}
}

func TestEventLogBoundedCapacityDrops(t *testing.T) {
	r := NewRecorder()
	r.events.cap = 4
	for i := 0; i < 10; i++ {
		r.Emit(Event{Type: EventTupleExplained, Tuple: i})
	}
	events := r.Events()
	if got := r.Counter(CounterEventsDropped).Value(); got != 6 {
		t.Fatalf("events_dropped counter = %d, want 6", got)
	}
	// A truncated log is visible to whoever scrapes the run.
	if got := r.Metrics().Counters["events_dropped"]; got != 6 {
		t.Fatalf("events_dropped metric = %d, want 6", got)
	}
	if len(events) != 4 {
		t.Fatalf("retained %d events, want 4", len(events))
	}
	// The newest events survive, in emission order, with global seqs.
	for i, e := range events {
		if want := 6 + i; e.Tuple != want || e.Seq != int64(want) {
			t.Errorf("retained[%d] = tuple %d seq %d, want %d", i, e.Tuple, e.Seq, want)
		}
	}
}

func TestEventLogJSONL(t *testing.T) {
	r := NewRecorder()
	r.Emit(Event{Type: EventTupleExplained, Tuple: 0, Explainer: "SHAP", Pooled: 3})
	r.Emit(Event{Type: EventCacheEvict, Tuple: -1})

	var buf bytes.Buffer
	if err := r.WriteEvents(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var lines []map[string]any
	for sc.Scan() {
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %q not JSON: %v", sc.Text(), err)
		}
		lines = append(lines, m)
	}
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines", len(lines))
	}
	// Tuple index 0 must stay visible (no omitempty on the field), and
	// unset optional fields must marshal away.
	if v, ok := lines[0]["tuple"]; !ok || v.(float64) != 0 {
		t.Errorf("first line lost tuple index 0: %v", lines[0])
	}
	if _, ok := lines[0]["fresh_samples"]; ok {
		t.Errorf("zero fresh_samples should be omitted: %v", lines[0])
	}
	if lines[1]["type"] != string(EventCacheEvict) || lines[1]["tuple"].(float64) != -1 {
		t.Errorf("second line %v", lines[1])
	}
}

func TestEventLogNilSafety(t *testing.T) {
	var r *Recorder
	r.Emit(Event{Type: EventPoolBuild})
	if events := r.Events(); events != nil {
		t.Fatalf("nil recorder events = %v", events)
	}
	if r.Counter(CounterEventsDropped).Value() != 0 {
		t.Fatal("nil recorder should report 0 drops")
	}
	if err := r.WriteEvents(io.Discard); err != nil {
		t.Fatal(err)
	}
}

// TestEventLogConcurrent hammers Emit from many goroutines with live
// snapshot readers; under -race it proves the log is goroutine-safe,
// and retained + dropped must account for every emission.
func TestEventLogConcurrent(t *testing.T) {
	r := NewRecorder()
	r.events.cap = 64
	var wg sync.WaitGroup
	const workers, per = 8, 500
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				r.Emit(Event{Type: EventTupleExplained, Tuple: w*per + i})
				if i%100 == 0 {
					r.Events()
				}
			}
		}(w)
	}
	wg.Wait()
	events, dropped := r.Events(), r.Counter(CounterEventsDropped).Value()
	if got := int64(len(events)) + dropped; got != workers*per {
		t.Fatalf("retained %d + dropped %d = %d, want %d", len(events), dropped, got, workers*per)
	}
	if len(events) != 64 {
		t.Fatalf("retained %d, want capacity 64", len(events))
	}
}
