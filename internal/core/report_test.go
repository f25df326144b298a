package core

import (
	"strings"
	"testing"
	"time"

	"shahin/internal/cache"
)

func TestReportZeroValues(t *testing.T) {
	var r Report
	if got := r.OverheadFraction(); got != 0 {
		t.Fatalf("OverheadFraction with zero wall time = %v, want 0", got)
	}
	if got := r.PerTuple(); got != 0 {
		t.Fatalf("PerTuple with zero tuples = %v, want 0", got)
	}
	if got := r.ReuseRate(); got != 0 {
		t.Fatalf("ReuseRate with no traffic = %v, want 0", got)
	}
	// Overhead recorded but nothing explained: still no division by zero.
	r.OverheadTime = time.Second
	if got := r.OverheadFraction(); got != 0 {
		t.Fatalf("OverheadFraction with zero wall time = %v, want 0", got)
	}
}

func TestReportDerivedMetrics(t *testing.T) {
	r := Report{
		Tuples:        4,
		WallTime:      2 * time.Second,
		OverheadTime:  200 * time.Millisecond,
		Invocations:   300,
		ReusedSamples: 700,
	}
	if got := r.PerTuple(); got != 500*time.Millisecond {
		t.Fatalf("PerTuple = %v", got)
	}
	if got := r.OverheadFraction(); got != 0.1 {
		t.Fatalf("OverheadFraction = %v", got)
	}
	if got := r.ReuseRate(); got != 0.7 {
		t.Fatalf("ReuseRate = %v", got)
	}
}

func TestReportString(t *testing.T) {
	r := Report{
		Tuples:           5,
		WallTime:         time.Second,
		OverheadTime:     50 * time.Millisecond,
		MineTime:         10 * time.Millisecond,
		PoolTime:         40 * time.Millisecond,
		ExplainTime:      950 * time.Millisecond,
		Invocations:      100,
		PoolInvocations:  60,
		ReusedSamples:    300,
		FrequentItemsets: 7,
		Cache:            cache.Stats{Hits: 3, Misses: 1, Entries: 7, BytesUsed: 1 << 20},
	}
	s := r.String()
	for _, want := range []string{
		"5 explanations",
		"stages: mine",
		"classifier invocations: 100 (60 pre-labelling the pool)",
		"300 samples reused (75.0% reuse)",
		"7 frequent itemsets",
		"1.0MiB used",
		"75.0% hit rate",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}

	// A baseline report (no stage split, no pool) stays terse.
	seq := Report{Tuples: 3, WallTime: 300 * time.Millisecond, Invocations: 900}
	if s := seq.String(); strings.Contains(s, "stages:") || strings.Contains(s, "pool:") {
		t.Errorf("baseline String() should omit stages and pool:\n%s", s)
	}
}

func TestFormatBytes(t *testing.T) {
	for n, want := range map[int64]string{
		512:     "512B",
		2 << 10: "2.0KiB",
		3 << 20: "3.0MiB",
		5 << 30: "5.0GiB",
	} {
		if got := formatBytes(n); got != want {
			t.Errorf("formatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}
