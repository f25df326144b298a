package core

import (
	"fmt"
	"strings"
	"time"

	"shahin/internal/cache"
	"shahin/internal/explain"
)

// Explanation is the per-tuple output: an attribution for LIME/SHAP or a
// rule for Anchor (exactly one field is set). Status reports whether the
// explanation was answered cleanly; its zero value (StatusOK) marshals
// away so infallible runs serialise exactly as before the failure model.
type Explanation struct {
	Attribution *explain.Attribution
	Rule        *explain.Rule
	Status      Status `json:",omitempty"`
}

// Report captures the cost accounting of one run: wall time, classifier
// invocations, reuse, and the housekeeping overhead the paper's Figure 5
// measures (itemset mining plus pooled-perturbation retrieval).
type Report struct {
	Tuples int

	// WallTime is the end-to-end time of the run, including pool
	// construction.
	WallTime time.Duration
	// OverheadTime is the housekeeping share: frequent itemset mining
	// (the mine stage), a stream's window tracking, and retrieval of
	// pooled perturbations (the sum of the tuples' pool_sample stages;
	// the mean over workers on a parallel run) — not their generation or
	// labelling, which replace baseline work rather than adding to it.
	OverheadTime time.Duration

	// MineTime, PoolTime, and ExplainTime break the wall time into
	// pipeline stages: frequent-itemset mining (re-mining for streams),
	// pool construction including perturbation pre-labelling, and the
	// per-tuple explain loop.
	MineTime    time.Duration
	PoolTime    time.Duration
	ExplainTime time.Duration

	// Invocations is the total classifier Predict calls, including pool
	// pre-labelling.
	Invocations int64
	// PoolInvocations is the subset of Invocations spent labelling pooled
	// perturbations up front.
	PoolInvocations int64
	// ReusedSamples counts labelled perturbations served from the pool
	// instead of fresh classifier calls.
	ReusedSamples int64

	// FrequentItemsets is how many itemsets received pooled perturbations.
	FrequentItemsets int
	// Cache summarises the perturbation repository at the end of the run.
	Cache cache.Stats

	// NodeVisits counts tree nodes walked by the exact TreeSHAP path
	// recursion (0 for sampled explainers) — the exact path's unit of
	// work, mirroring what ReusedSamples measures for the pooled paths.
	NodeVisits int64
	// ExactFallback records that the run requested the ExactSHAP
	// explainer but the backend did not qualify (fault chain installed,
	// or the classifier is not an owned tree ensemble) and the run
	// silently proceeded with KernelSHAP. An exact_fallback event with
	// the reason accompanies it when a recorder is attached.
	ExactFallback bool

	// Retries counts classifier re-attempts after transient failures.
	Retries int64
	// Degraded counts tuples answered at least partly by the degradation
	// ladder (label cache, pooled labels, majority class); Failed counts
	// tuples cancelled, never attempted, or unanswerable by any fallback.
	Degraded int
	Failed   int

	// AllocBytes / AllocObjects is the heap allocation activity during
	// the run, measured from runtime/metrics deltas around the run when
	// a recorder is attached (zero — and omitted from JSON — otherwise,
	// so uninstrumented runs serialise byte-identically). The counters
	// are process-wide: on the gate-serialised flush paths that is the
	// run's own work plus whatever background goroutines allocate, which
	// is the documented precision of these columns.
	AllocBytes   int64
	AllocObjects int64
	// PoolAllocBytes / PoolAllocObjects covers the mine + pool-build
	// stage; ExplainAllocBytes / ExplainAllocObjects the per-tuple
	// explain loop — the allocation mirror of MineTime+PoolTime and
	// ExplainTime. Resolution: runtime/metrics counts an object over
	// 32 KiB when it is allocated but a small one only when its span is
	// handed back, so a stage that allocates a few KiB of small objects
	// can read zero, and another stage can be charged for them.
	PoolAllocBytes      int64
	PoolAllocObjects    int64
	ExplainAllocBytes   int64
	ExplainAllocObjects int64
}

// add folds another run's report into r: costs and counts sum, the
// pool's size and cache state are o's (the later run's).
func (r *Report) add(o Report) {
	r.Tuples += o.Tuples
	r.WallTime += o.WallTime
	r.OverheadTime += o.OverheadTime
	r.MineTime += o.MineTime
	r.PoolTime += o.PoolTime
	r.ExplainTime += o.ExplainTime
	r.Invocations += o.Invocations
	r.PoolInvocations += o.PoolInvocations
	r.ReusedSamples += o.ReusedSamples
	r.FrequentItemsets = o.FrequentItemsets
	r.Cache = o.Cache
	r.NodeVisits += o.NodeVisits
	r.ExactFallback = r.ExactFallback || o.ExactFallback
	r.Retries += o.Retries
	r.Degraded += o.Degraded
	r.Failed += o.Failed
	r.AllocBytes += o.AllocBytes
	r.AllocObjects += o.AllocObjects
	r.PoolAllocBytes += o.PoolAllocBytes
	r.PoolAllocObjects += o.PoolAllocObjects
	r.ExplainAllocBytes += o.ExplainAllocBytes
	r.ExplainAllocObjects += o.ExplainAllocObjects
}

// AllocPerTuple returns the average heap bytes and objects allocated
// per explanation (zero for an empty or uninstrumented run) — the
// steady-state number the zero-alloc perturbation work gates on.
func (r *Report) AllocPerTuple() (bytes, objects float64) {
	if r.Tuples == 0 {
		return 0, 0
	}
	n := float64(r.Tuples)
	return float64(r.AllocBytes) / n, float64(r.AllocObjects) / n
}

// OverheadFraction returns OverheadTime / WallTime (the paper's Figure 5
// metric), 0 for an empty run.
func (r *Report) OverheadFraction() float64 {
	if r.WallTime <= 0 {
		return 0
	}
	return float64(r.OverheadTime) / float64(r.WallTime)
}

// PerTuple returns the average wall time per explanation.
func (r *Report) PerTuple() time.Duration {
	if r.Tuples == 0 {
		return 0
	}
	return r.WallTime / time.Duration(r.Tuples)
}

// ReuseRate returns the fraction of labelled perturbations served from
// the pool instead of fresh classifier calls:
// ReusedSamples / (ReusedSamples + Invocations), 0 with no traffic.
func (r *Report) ReuseRate() float64 {
	total := r.ReusedSamples + r.Invocations
	if total == 0 {
		return 0
	}
	return float64(r.ReusedSamples) / float64(total)
}

// ms converts a duration to the milliseconds the event shapes use.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// String renders the human-readable end-of-run summary the CLIs print.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d explanations in %v (%.2f ms/tuple)",
		r.Tuples, r.WallTime.Round(time.Millisecond),
		float64(r.PerTuple().Microseconds())/1000)
	if r.MineTime > 0 || r.PoolTime > 0 || r.ExplainTime > 0 {
		fmt.Fprintf(&b, "\nstages: mine %v · pool pre-label %v · explain %v; housekeeping overhead %.1f%%",
			r.MineTime.Round(time.Microsecond), r.PoolTime.Round(time.Microsecond),
			r.ExplainTime.Round(time.Microsecond), 100*r.OverheadFraction())
	}
	fmt.Fprintf(&b, "\nclassifier invocations: %d (%d pre-labelling the pool); %d samples reused (%.1f%% reuse)",
		r.Invocations, r.PoolInvocations, r.ReusedSamples, 100*r.ReuseRate())
	if r.FrequentItemsets > 0 {
		fmt.Fprintf(&b, "\npool: %d frequent itemsets", r.FrequentItemsets)
		if total := r.Cache.Hits + r.Cache.Misses; total > 0 || r.Cache.Entries > 0 {
			fmt.Fprintf(&b, "; cache: %d entries, %s used", r.Cache.Entries, formatBytes(r.Cache.BytesUsed))
			if r.Cache.Budget > 0 {
				fmt.Fprintf(&b, " of %s", formatBytes(r.Cache.Budget))
			}
			fmt.Fprintf(&b, ", %.1f%% hit rate, %d evictions",
				100*r.Cache.HitRate(), r.Cache.Evictions)
		}
	}
	if r.NodeVisits > 0 {
		fmt.Fprintf(&b, "\nexact path: %d tree-node visits, zero perturbation sampling", r.NodeVisits)
	}
	if r.ExactFallback {
		b.WriteString("\nexact path unavailable: fell back to KernelSHAP")
	}
	if r.Retries > 0 || r.Degraded > 0 || r.Failed > 0 {
		fmt.Fprintf(&b, "\nrobustness: %d retries · %d degraded tuples · %d failed tuples",
			r.Retries, r.Degraded, r.Failed)
	}
	if r.AllocBytes > 0 {
		perBytes, perObjs := r.AllocPerTuple()
		fmt.Fprintf(&b, "\nallocation: %s total (%s/tuple, %.0f objects/tuple); pool %s · explain %s",
			formatBytes(r.AllocBytes), formatBytes(int64(perBytes)), perObjs,
			formatBytes(r.PoolAllocBytes), formatBytes(r.ExplainAllocBytes))
	}
	return b.String()
}

// formatBytes renders a byte count with a binary unit suffix.
func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// Result is the output of a batch-style run over a set of tuples.
type Result struct {
	Explanations []Explanation
	Report       Report
	// Costs is what each tuple cost, aligned with Explanations — the
	// records Report is the fold of; nil when the run had no recorder.
	// It lives beside Explanations rather than on them so explanation
	// JSON stays byte-identical across same-seed runs.
	Costs []Cost
	// Flush is the warm-flush sequence number that produced this result
	// (0 for plain batch runs); the serving layer stamps it onto request
	// spans so traces join the shared flush fan-in.
	Flush int
}
