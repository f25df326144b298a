package core

import (
	"strings"
	"testing"

	"shahin/internal/obs"
	"shahin/internal/rf"
)

// largeAlloc is over the 32 KiB small-object limit: runtime/metrics
// counts such an object when it is allocated, not when a span is handed
// back, so a run's allocation columns see every one.
const largeAlloc = 33 << 10

// allocSink keeps largeAllocating's objects from being optimised away.
var allocSink []byte

// largeAllocating allocates one large object on every Predict.
type largeAllocating struct {
	rf.Classifier
	calls int64
}

func (c *largeAllocating) Predict(x []float64) int {
	c.calls++
	allocSink = make([]byte, largeAlloc)
	return c.Classifier.Predict(x)
}

// TestBatchAllocAttribution: an instrumented batch run records at least
// the large object each classifier call allocates — in the run-wide
// columns and in each stage's — and the stage columns stay within the
// run-wide total (all read the same monotone counters).
func TestBatchAllocAttribution(t *testing.T) {
	env := newEnv(t, 61, 20)
	opts := smallOpts(LIME, 62)
	opts.Recorder = obs.NewRecorder()
	cls := &largeAllocating{Classifier: env.cls}

	b, err := NewBatch(env.st, cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAll(env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Invocations != cls.calls || rep.PoolInvocations == 0 || rep.PoolInvocations >= rep.Invocations {
		t.Fatalf("%d calls reported (%d pooling), the classifier saw %d", rep.Invocations, rep.PoolInvocations, cls.calls)
	}
	for _, c := range []struct {
		name         string
		bytes, calls int64
	}{
		{"run", rep.AllocBytes, rep.Invocations},
		{"pool stage", rep.PoolAllocBytes, rep.PoolInvocations},
		{"explain stage", rep.ExplainAllocBytes, rep.Invocations - rep.PoolInvocations},
	} {
		if c.bytes < c.calls*largeAlloc {
			t.Errorf("%s: %d B recorded over %d calls that allocated %d B each", c.name, c.bytes, c.calls, largeAlloc)
		}
	}
	if rep.AllocObjects < rep.Invocations || rep.PoolAllocObjects <= 0 || rep.ExplainAllocObjects <= 0 {
		t.Errorf("objects recorded: run %d, pool %d, explain %d over %d calls", rep.AllocObjects, rep.PoolAllocObjects, rep.ExplainAllocObjects, rep.Invocations)
	}
	if rep.PoolAllocBytes > rep.AllocBytes || rep.ExplainAllocBytes > rep.AllocBytes {
		t.Errorf("stage bytes exceed run total: pool=%d explain=%d total=%d",
			rep.PoolAllocBytes, rep.ExplainAllocBytes, rep.AllocBytes)
	}
	bpt, opt := rep.AllocPerTuple()
	if bpt <= 0 || opt <= 0 {
		t.Fatalf("AllocPerTuple = (%v, %v), want positive", bpt, opt)
	}
}

// TestUninstrumentedReportOmitsAllocColumns: a run without a recorder
// records no allocations, and its summary prints no allocation line.
func TestUninstrumentedReportOmitsAllocColumns(t *testing.T) {
	env := newEnv(t, 63, 8)
	b, err := NewBatch(env.st, env.cls, smallOpts(LIME, 64))
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAll(env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.AllocBytes != 0 || res.Report.PoolAllocBytes != 0 {
		t.Fatalf("uninstrumented run recorded allocations: %+v", res.Report)
	}
	if s := res.Report.String(); strings.Contains(s, "allocation:") {
		t.Errorf("uninstrumented report prints an allocation line:\n%s", s)
	}
}
