package core

import (
	"strings"
	"testing"

	"shahin/internal/obs"
)

// TestBatchAllocAttribution: an instrumented batch run records nonzero
// process-wide and per-stage allocation deltas, and the stage columns
// stay within the run-wide total (all read the same monotone counters).
func TestBatchAllocAttribution(t *testing.T) {
	env := newEnv(t, 61, 20)
	opts := smallOpts(LIME, 62)
	opts.Recorder = obs.NewRecorder()

	b, err := NewBatch(env.st, env.cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAll(env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.AllocBytes <= 0 || rep.AllocObjects <= 0 {
		t.Fatalf("instrumented run recorded no allocations: bytes=%d objects=%d", rep.AllocBytes, rep.AllocObjects)
	}
	if rep.PoolAllocBytes <= 0 || rep.ExplainAllocBytes <= 0 {
		t.Fatalf("stage columns empty: pool=%d explain=%d", rep.PoolAllocBytes, rep.ExplainAllocBytes)
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
