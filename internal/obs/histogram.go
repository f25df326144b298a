package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// Histogram is a log-scale latency histogram: 64 power-of-two buckets
// over nanoseconds (bucket i counts observations in [2^(i-1), 2^i)),
// plus exact count, sum, min, and max. Observe is a handful of atomic
// operations, cheap enough for per-Predict call sites; quantiles are
// bucket-resolution estimates (within a factor of two), which is the
// right fidelity for "where does the time go" questions.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64
	max     atomic.Int64
	buckets [64]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// bucketOf maps a nanosecond value to its power-of-two bucket index.
func bucketOf(ns int64) int {
	idx := bits.Len64(uint64(ns))
	if idx > 63 {
		idx = 63
	}
	return idx
}

// Observe records one duration (negative clamps to 0). No-op on a nil
// receiver.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil {
		return
	}
	ns := d.Nanoseconds()
	if ns < 0 {
		ns = 0
	}
	h.count.Add(1)
	h.sum.Add(ns)
	h.buckets[bucketOf(ns)].Add(1)
	for {
		cur := h.min.Load()
		if ns >= cur || h.min.CompareAndSwap(cur, ns) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if ns <= cur || h.max.CompareAndSwap(cur, ns) {
			break
		}
	}
}

// Count returns the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Quantile estimates the q-th quantile at bucket resolution: the upper
// bound of the bucket holding the q-th ranked observation, clamped into
// the observed [min, max] so a single-sample histogram answers that
// sample for every q. q is clamped to [0, 1]: q <= 0 returns the
// observed min, q >= 1 the observed max. Returns 0 when empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q <= 0 || math.IsNaN(q) {
		return time.Duration(h.min.Load())
	}
	if q >= 1 {
		return time.Duration(h.max.Load())
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Load()
		if cum >= rank {
			upper := int64(1)<<uint(i) - 1
			if m := h.max.Load(); upper > m {
				upper = m
			}
			if m := h.min.Load(); upper < m {
				upper = m
			}
			return time.Duration(upper)
		}
	}
	return time.Duration(h.max.Load())
}

// HistogramBucket is one non-empty bucket of a snapshot: Count
// observations at or below UpperNS (and above the previous bucket's
// upper bound).
type HistogramBucket struct {
	UpperNS int64 `json:"upper_ns"`
	Count   int64 `json:"count"`
}

// HistogramSnapshot is the JSON-friendly view of a histogram.
type HistogramSnapshot struct {
	Count   int64             `json:"count"`
	SumNS   int64             `json:"sum_ns"`
	MeanNS  float64           `json:"mean_ns"`
	MinNS   int64             `json:"min_ns"`
	MaxNS   int64             `json:"max_ns"`
	P50NS   int64             `json:"p50_ns"`
	P90NS   int64             `json:"p90_ns"`
	P95NS   int64             `json:"p95_ns"`
	P99NS   int64             `json:"p99_ns"`
	Buckets []HistogramBucket `json:"buckets,omitempty"`
}

// Snapshot captures the histogram's current state (zero value on a nil
// receiver or when empty).
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	if h == nil {
		return s
	}
	s.Count = h.count.Load()
	if s.Count == 0 {
		return s
	}
	s.SumNS = h.sum.Load()
	s.MeanNS = float64(s.SumNS) / float64(s.Count)
	s.MinNS = h.min.Load()
	s.MaxNS = h.max.Load()
	s.P50NS = h.Quantile(0.50).Nanoseconds()
	s.P90NS = h.Quantile(0.90).Nanoseconds()
	s.P95NS = h.Quantile(0.95).Nanoseconds()
	s.P99NS = h.Quantile(0.99).Nanoseconds()
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, HistogramBucket{
				UpperNS: int64(1)<<uint(i) - 1,
				Count:   n,
			})
		}
	}
	return s
}
