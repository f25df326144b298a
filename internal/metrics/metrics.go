// Package metrics implements the fidelity measures the paper's
// "Explanation Quality" evaluation uses: Euclidean distance and maximum
// absolute deviation between feature-importance vectors, and Kendall-τ
// rank correlation between the feature orderings two explainers induce.
package metrics

import (
	"fmt"
	"math"
)

// Euclidean returns the L2 distance between two equal-length vectors.
func Euclidean(a, b []float64) float64 {
	mustSameLen("Euclidean", a, b)
	s := 0.0
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// MaxAbsDev returns the largest absolute per-coordinate deviation.
func MaxAbsDev(a, b []float64) float64 {
	mustSameLen("MaxAbsDev", a, b)
	m := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// KendallTau returns the Kendall τ-b rank correlation between the
// orderings induced by two score vectors (ties handled by the τ-b
// correction). It is 1 for identical orderings, -1 for reversed, and 0
// when one vector is constant (no ordering information).
func KendallTau(a, b []float64) float64 {
	mustSameLen("KendallTau", a, b)
	n := len(a)
	if n < 2 {
		return 1
	}
	var concordant, discordant, tiesA, tiesB float64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			da := sign(a[i] - a[j])
			db := sign(b[i] - b[j])
			switch {
			case da == 0 && db == 0:
				// Joint tie: excluded from both correction terms.
			case da == 0:
				tiesA++
			case db == 0:
				tiesB++
			case da == db:
				concordant++
			default:
				discordant++
			}
		}
	}
	denom := math.Sqrt((concordant + discordant + tiesA) * (concordant + discordant + tiesB))
	if denom == 0 {
		return 0
	}
	return (concordant - discordant) / denom
}

// MeanKendallTau averages KendallTau over paired rows (the paper computes
// the τ of every tuple in the batch and averages).
func MeanKendallTau(as, bs [][]float64) float64 {
	if len(as) != len(bs) {
		panic(fmt.Sprintf("metrics: MeanKendallTau over %d vs %d rows", len(as), len(bs)))
	}
	if len(as) == 0 {
		return 0
	}
	s := 0.0
	for i := range as {
		s += KendallTau(as[i], bs[i])
	}
	return s / float64(len(as))
}

// TopKOverlap returns |topK(a) ∩ topK(b)| / k, comparing the k highest
// |score| features of each vector — a coarse but interpretable agreement
// measure used by the quality report alongside τ.
func TopKOverlap(a, b []float64, k int) float64 {
	mustSameLen("TopKOverlap", a, b)
	if k <= 0 || len(a) == 0 {
		return 1
	}
	if k > len(a) {
		k = len(a)
	}
	ta := topKIdx(a, k)
	tb := topKIdx(b, k)
	inA := make(map[int]bool, k)
	for _, i := range ta {
		inA[i] = true
	}
	hits := 0
	for _, i := range tb {
		if inA[i] {
			hits++
		}
	}
	return float64(hits) / float64(k)
}

// topKIdx returns the indices of the k largest |v| entries (selection by
// repeated max; k and len are tiny).
func topKIdx(v []float64, k int) []int {
	used := make([]bool, len(v))
	out := make([]int, 0, k)
	for len(out) < k {
		best, bestAbs := -1, -1.0
		for i := range v {
			if used[i] {
				continue
			}
			if a := math.Abs(v[i]); a > bestAbs {
				best, bestAbs = i, a
			}
		}
		used[best] = true
		out = append(out, best)
	}
	return out
}

func sign(x float64) int {
	switch {
	case x > 0:
		return 1
	case x < 0:
		return -1
	default:
		return 0
	}
}

func mustSameLen(op string, a, b []float64) {
	if len(a) != len(b) {
		panic(fmt.Sprintf("metrics: %s over vectors of length %d and %d", op, len(a), len(b)))
	}
}
