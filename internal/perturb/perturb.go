// Package perturb implements the shared perturbation template every
// explainer in this repository uses (paper §3, "Key Idea"): freeze a
// subset of a tuple's attributes and fill the remaining attributes
// independently from the training frequency distribution.
//
// Shahin's reuse rests on one observation about this template: the filled
// attributes are drawn from a distribution that does not depend on the
// tuple being explained, and the frozen attributes only matter at the
// granularity of their discretised bin (LIME and Anchor reason about
// perturbations through the binary "same bin as the instance" encoding).
// A perturbation frozen on itemset f is therefore exchangeable between
// any two tuples that contain f.
package perturb

import (
	"math/rand"

	"shahin/internal/dataset"
)

// Sample is one perturbation: the raw row, its discretised item encoding,
// and (once the classifier has been invoked) its predicted label.
type Sample struct {
	Row   []float64
	Items []dataset.Item
	Label int // classifier prediction; -1 while unlabelled
}

// Bytes estimates the in-memory footprint of the sample, used by the
// byte-budgeted perturbation repository.
func (s *Sample) Bytes() int64 {
	return int64(len(s.Row))*8 + int64(len(s.Items))*4 + 48
}

// Generator draws perturbations from a fixed training distribution.
// It is not safe for concurrent use; create one per goroutine with an
// independent rand.Rand.
type Generator struct {
	stats *dataset.Stats
	rng   *rand.Rand
}

// NewGenerator builds a generator over the given training statistics.
func NewGenerator(st *dataset.Stats, rng *rand.Rand) *Generator {
	return &Generator{stats: st, rng: rng}
}

// Stats returns the training statistics the generator samples from.
func (g *Generator) Stats() *dataset.Stats { return g.stats }

// FillItemset writes one perturbation with the itemset frozen into row,
// which must have one cell per attribute: every item's attribute
// receives a value inside the item's bin, and all other attributes are
// filled from the training distribution. It is ForItemset without the
// allocation and the itemising, for a caller that only needs the row
// labelled; both consume the same random draws in the same order.
//
//shahin:hotpath
func (g *Generator) FillItemset(frozen dataset.Itemset, row []float64) {
	fi := 0
	for a := range row {
		if fi < len(frozen) && frozen[fi].Attr() == a {
			row[a] = g.stats.ValueInBin(a, frozen[fi].Bin(), g.rng)
			fi++
			continue
		}
		row[a] = g.stats.SampleValue(a, g.rng)
	}
}

// ForItemset generates one perturbation with the itemset frozen (see
// FillItemset) as a Sample that owns its row and items. This is the
// pooled perturbation of Algorithms 1–3.
//
//shahin:hotpath
func (g *Generator) ForItemset(frozen dataset.Itemset) Sample {
	row := make([]float64, g.stats.Schema.NumAttrs())
	g.FillItemset(frozen, row)
	return Sample{
		Row:   row,
		Items: g.stats.ItemizeRow(row, nil),
		Label: -1,
	}
}

// ForTuple generates one perturbation of tuple t with the attributes in
// freeze kept at t's exact values and the rest filled from the training
// distribution. freeze must have one flag per attribute. This is the
// classic per-tuple perturbation of LIME / Anchor / KernelSHAP.
//
//shahin:hotpath
func (g *Generator) ForTuple(t []float64, freeze []bool) Sample {
	row := make([]float64, len(t))
	for a := range t {
		if freeze[a] {
			row[a] = t[a]
		} else {
			row[a] = g.stats.SampleValue(a, g.rng)
		}
	}
	return Sample{
		Row:   row,
		Items: g.stats.ItemizeRow(row, nil),
		Label: -1,
	}
}

// BinaryEncode computes the interpretable representation of a sample
// relative to the tuple being explained: out[a] = 1 when the sample's
// attribute a falls in the same bin as the tuple's (same category, or same
// quartile bin for numerics), else 0. Both item slices must be canonical
// per-attribute encodings as produced by Stats.ItemizeRow.
//
//shahin:hotpath
func BinaryEncode(tupleItems, sampleItems []dataset.Item, out []float64) []float64 {
	n := len(tupleItems)
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	for a := 0; a < n; a++ {
		if tupleItems[a] == sampleItems[a] {
			out[a] = 1
		} else {
			out[a] = 0
		}
	}
	return out
}

// MatchesBins reports whether the sample agrees with the tuple's bins on
// every attribute of the itemset — the condition under which a pooled
// perturbation is reusable for the tuple.
//
//shahin:hotpath
func MatchesBins(itemset dataset.Itemset, sampleItems []dataset.Item) bool {
	return itemset.ContainsAll(sampleItems)
}
