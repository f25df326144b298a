package dataset

import (
	"fmt"
	"math"
	"sort"
)

// Stats holds the training-distribution statistics all perturbation-based
// explainers sample from: per-attribute value (or bin) frequencies, numeric
// moments, and quartile cut points for discretisation. It is computed once
// over the training split and shared read-only by every explainer, which is
// what makes pooled perturbations interchangeable (paper §3, "the
// perturbations are performed for each feature independently and based on
// a distribution that is fixed").
type Stats struct {
	Schema *Schema
	Freq   [][]float64 // per attr: relative frequency of each bin
	Mean   []float64   // per attr; 0 for categorical
	Std    []float64   // per attr; 0 for categorical
	Edges  [][]float64 // per attr: ascending internal quartile cut points (numeric only)
	Lo     []float64   // per attr: min observed value (numeric only)
	Hi     []float64   // per attr: max observed value (numeric only)

	plan *FillPlan // what perturb draws from; see FillPlan
}

// Compute derives Stats from a (training) dataset. The dataset must be
// non-empty and valid.
func Compute(d *Dataset) (*Stats, error) {
	if d.NumRows() == 0 {
		return nil, fmt.Errorf("dataset: Compute on empty dataset")
	}
	s := &Stats{
		Schema: d.Schema,
		Freq:   make([][]float64, d.NumAttrs()),
		Mean:   make([]float64, d.NumAttrs()),
		Std:    make([]float64, d.NumAttrs()),
		Edges:  make([][]float64, d.NumAttrs()),
		Lo:     make([]float64, d.NumAttrs()),
		Hi:     make([]float64, d.NumAttrs()),
	}
	n := float64(d.NumRows())
	for a := range d.Cols {
		attr := &d.Schema.Attrs[a]
		col := d.Cols[a]
		switch attr.Kind {
		case Categorical:
			freq := make([]float64, attr.Cardinality())
			for _, v := range col {
				freq[int(v)]++
			}
			for i := range freq {
				freq[i] /= n
			}
			s.Freq[a] = freq
		case Numeric:
			mean, std, lo, hi := moments(col)
			s.Mean[a], s.Std[a], s.Lo[a], s.Hi[a] = mean, std, lo, hi
			s.Edges[a] = quartileEdges(col)
			nb := len(s.Edges[a]) + 1
			freq := make([]float64, nb)
			for _, v := range col {
				freq[binOf(s.Edges[a], v)]++
			}
			for i := range freq {
				freq[i] /= n
			}
			s.Freq[a] = freq
		}
	}
	if err := s.compile(); err != nil {
		return nil, err
	}
	return s, nil
}

// moments returns mean, population std deviation, min, and max of xs.
func moments(xs []float64) (mean, std, lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, x := range xs {
		mean += x
		if x < lo {
			lo = x
		}
		if x > hi {
			hi = x
		}
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		d := x - mean
		std += d * d
	}
	std = math.Sqrt(std / float64(len(xs)))
	return mean, std, lo, hi
}

// quartileEdges returns the distinct internal cut points at the 25th, 50th
// and 75th percentiles. Constant or low-diversity columns yield fewer
// edges (possibly none), i.e. fewer bins.
func quartileEdges(xs []float64) []float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var edges []float64
	for _, q := range []float64{0.25, 0.50, 0.75} {
		e := quantile(sorted, q)
		if len(edges) == 0 || e > edges[len(edges)-1] {
			edges = append(edges, e)
		}
	}
	// An edge equal to the maximum would create a permanently empty top
	// bin; drop such edges.
	maxV := sorted[len(sorted)-1]
	for len(edges) > 0 && edges[len(edges)-1] >= maxV {
		edges = edges[:len(edges)-1]
	}
	return edges
}

// quantile returns the q-quantile of sorted xs with linear interpolation.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 1 {
		return sorted[0]
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}

// binOf returns the bin of v given ascending internal edges: bin i holds
// values in (edges[i-1], edges[i]], with bin 0 = (-inf, edges[0]] and the
// last bin = (edges[last], +inf).
func binOf(edges []float64, v float64) int {
	b := 0
	for _, e := range edges {
		if v > e {
			b++
		} else {
			break
		}
	}
	return b
}

// NumAttrs returns how many attributes (tuple cells) the statistics
// cover — the width every explained tuple must have.
func (s *Stats) NumAttrs() int { return len(s.Freq) }

// NumBins returns how many discretised bins attribute a has: the domain
// cardinality for categorical attributes, quartile-bin count for numeric.
func (s *Stats) NumBins(a int) int { return len(s.Freq[a]) }

// Bin discretises value v of attribute a into its bin index.
func (s *Stats) Bin(a int, v float64) int {
	if s.Schema.Attrs[a].Kind == Categorical {
		return int(v)
	}
	return binOf(s.Edges[a], v)
}
