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
	"math"
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
	g.fill(frozen, nil, nil, row, nil)
}

// ForItemset generates one perturbation with the itemset frozen (see
// FillItemset) as a Sample that owns its row and items. This is the
// pooled perturbation of Algorithms 1–3.
//
//shahin:hotpath
func (g *Generator) ForItemset(frozen dataset.Itemset) Sample {
	n := g.stats.NumAttrs()
	s := Sample{Row: make([]float64, n), Items: make([]dataset.Item, n), Label: -1}
	g.fill(frozen, nil, nil, s.Row, s.Items)
	return s
}

// ForTuple generates one perturbation of tuple t with the attributes in
// freeze kept at t's exact values and the rest filled from the training
// distribution. freeze must have one flag per attribute. This is the
// classic per-tuple perturbation of LIME / Anchor / KernelSHAP.
//
//shahin:hotpath
func (g *Generator) ForTuple(t []float64, freeze []bool) Sample {
	s := Sample{Row: make([]float64, len(t)), Items: make([]dataset.Item, len(t)), Label: -1}
	g.fill(nil, t, freeze, s.Row, s.Items)
	return s
}

// fill is the one perturbation loop. Attribute a of row is t[a] where
// freeze[a] is set, a value inside the frozen item's bin where frozen
// has an item on a, and otherwise a bin drawn by the alias method and a
// value inside it; items, unless nil, receives what Stats.ItemizeRow
// would make of row. A nil t means no freeze mask.
//
// The draws are math/rand's, restated over rng.Int63 so that the loop
// makes one dynamic call per draw and none per attribute: Int31n(K) is
// the top 31 bits masked, or rejected above Max and reduced mod K;
// Float64 is Int63/2⁶³, redrawn when that rounds to 1. The stream a
// Generator consumes is therefore (*Alias).Draw's and Float64's, draw
// for draw, for any rand.Source.
//
// The bin a value was drawn in is its item's bin, except where the
// value sits on an edge — a draw of 0 yields the bin's lower edge, which
// belongs to the bin below, and rounding can reach the upper one — so
// two compares guard it and Stats.Bin decides the rest.
//
//shahin:hotpath
func (g *Generator) fill(frozen dataset.Itemset, t []float64, freeze []bool, row []float64, items []dataset.Item) {
	plan := g.stats.FillPlan()
	rng, bins := g.rng, plan.Bins
	attrs := plan.Attrs[:len(row)]
	fi := 0
	for a := range attrs {
		if t != nil && freeze[a] {
			row[a] = t[a]
			if items != nil {
				items[a] = dataset.MakeItem(a, g.stats.Bin(a, t[a]))
			}
			continue
		}
		at := &attrs[a]
		var b int32
		if fi < len(frozen) && frozen[fi].Attr() == a {
			b = int32(frozen[fi].Bin())
			fi++
			if at.Numeric {
				// A bin the attribute does not have panics here rather
				// than read the neighbouring attribute's.
				_ = bins[at.Off : at.Off+at.K][b]
			}
		} else {
			v := int32(rng.Int63() >> 32)
			if at.Mask >= 0 {
				b = v & at.Mask
			} else {
				for v > at.Max {
					v = int32(rng.Int63() >> 32)
				}
				b = v % at.K
			}
			f := float64(rng.Int63()) / (1 << 63)
			for f == 1 {
				f = float64(rng.Int63()) / (1 << 63)
			}
			// Keep the column when f < Keep, else take its alias — a
			// coin toss, so it is picked by mask, not by branch: the
			// sign bit of f - Keep is set exactly when f < Keep (both
			// are finite, and x != y implies x - y != 0).
			col := &bins[at.Off+b]
			keep := int32(math.Float64bits(f-col.Keep) >> 63)
			b = col.Alias ^ ((col.Alias ^ b) & -keep)
		}
		if !at.Numeric {
			row[a] = float64(b)
			if items != nil {
				items[a] = dataset.Item(uint32(a)<<16 | uint32(b))
			}
			continue
		}
		bin := &bins[at.Off+b]
		v := bin.Lo
		if bin.Width > 0 {
			f := float64(rng.Int63()) / (1 << 63)
			for f == 1 {
				f = float64(rng.Int63()) / (1 << 63)
			}
			v += f * bin.Width
		}
		row[a] = v
		if items != nil {
			if !(v > bin.Below && v <= bin.Above) {
				b = int32(g.stats.Bin(a, v))
			}
			items[a] = dataset.Item(uint32(a)<<16 | uint32(b))
		}
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
