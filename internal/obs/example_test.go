package obs_test

import (
	"fmt"

	"shahin/internal/obs"
)

// ExampleRecorder_Emit records one structured provenance event and
// reads it back. The event log is a bounded ring; the events_dropped
// counter reports how many older entries the capacity bound dropped.
func ExampleRecorder_Emit() {
	rec := obs.NewRecorder()
	rec.Emit(obs.Event{
		Type:      obs.EventTupleExplained,
		Tuple:     7,
		Explainer: "lime",
		Itemset:   "{education=HS, sex=M}",
		Pooled:    250,
		Fresh:     50,
	})

	events, dropped := rec.Events(), rec.Counter(obs.CounterEventsDropped).Value()
	e := events[0]
	fmt.Printf("%d event(s), %d dropped\n", len(events), dropped)
	fmt.Printf("%s tuple=%d pooled=%d fresh=%d via %s\n", e.Type, e.Tuple, e.Pooled, e.Fresh, e.Itemset)
	// Output:
	// 1 event(s), 0 dropped
	// tuple_explained tuple=7 pooled=250 fresh=50 via {education=HS, sex=M}
}
