// Package perturb implements the shared perturbation template every
// explainer in this repository uses (paper §3, "Key Idea"): freeze a
// subset of a tuple's attributes and fill the remaining attributes
// independently from the training frequency distribution. The Fill entry
// points draw into cells the caller owns; a pool labels the row in
// scratch and keeps only the Pooled sample: its bins and label.
//
// Shahin's reuse rests on one observation about this template: the filled
// attributes are drawn from a distribution that does not depend on the
// tuple, and the frozen ones matter only through their discretised bin
// (the "same bin as the instance" encoding), so a perturbation frozen on
// itemset f is exchangeable between any two tuples that contain f.
package perturb

import (
	"math"
	"math/rand"

	"shahin/internal/dataset"
)

// Pooled is one labelled perturbation as the library keeps it: the bin of
// every attribute, in attribute order (an item's attribute half is its
// position; dataset.MakeItem caps a bin at 16 bits), and the classifier's
// label.
type Pooled struct {
	Bins  []uint16
	Label int
}

// Bytes is what the sample holds, charged against the byte-budgeted
// perturbation repository: two bytes a bin and its 32-byte header.
func (s *Pooled) Bytes() int64 { return int64(len(s.Bins))*2 + 32 }

// Sample is one perturbation as the benchmark's callers hold it: its raw
// values, its items and its label (-1 while unlabelled).
type Sample struct {
	Row   []float64
	Items []dataset.Item
	Label int
}

// Pooled is the sample as the repository keeps it: its items' bins and
// its label.
func (s *Sample) Pooled() Pooled {
	return Pooled{Bins: BinsOf(s.Items, make([]uint16, len(s.Items))), Label: s.Label}
}

// BinsOf writes into bins, which must be as long, the bin of each of a
// row's items (one per attribute, in attribute order) and returns it.
func BinsOf(items []dataset.Item, bins []uint16) []uint16 {
	for a, it := range items {
		bins[a] = uint16(it.Bin())
	}
	return bins
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
// filled from the training distribution. bins, unless nil (a draw that
// is only labelled), receives the bins Stats.ItemizeRow would give row.
// This is the pooled perturbation of Algorithms 1–3.
//
//shahin:hotpath
func (g *Generator) FillItemset(frozen dataset.Itemset, row []float64, bins []uint16) {
	g.fill(frozen, nil, nil, row, bins)
}

// ForItemset is FillItemset into a Sample that owns its row and items,
// for the benchmark's callers; both consume the same draws.
//
//shahin:hotpath
func (g *Generator) ForItemset(frozen dataset.Itemset) Sample {
	return g.sample(frozen, nil, nil, g.stats.NumAttrs())
}

// FillTuple writes one perturbation of tuple t into row and bins, which
// the caller owns and must size to t: the attributes in freeze (one flag
// per attribute) keep t's exact values, the rest are filled from the
// training distribution, and bins receives the bins Stats.ItemizeRow
// would give row. This is the classic per-tuple perturbation of LIME and
// KernelSHAP, drawn into the explainer's scratch.
//
//shahin:hotpath
func (g *Generator) FillTuple(t []float64, freeze []bool, row []float64, bins []uint16) {
	g.fill(nil, t, freeze, row, bins)
}

// ForTuple is FillTuple into a Sample that owns its row and items, for
// the benchmark's callers; both consume the same draws.
//
//shahin:hotpath
func (g *Generator) ForTuple(t []float64, freeze []bool) Sample {
	return g.sample(nil, t, freeze, len(t))
}

// sample runs the one fill into a fresh Sample of n attributes, its bins
// in stack scratch for the twins' widths, and turns the bins into items.
func (g *Generator) sample(frozen dataset.Itemset, t []float64, freeze []bool, n int) Sample {
	s := Sample{Row: make([]float64, n), Items: make([]dataset.Item, n), Label: -1}
	var scratch [64]uint16
	bins := scratch[:0]
	if n > len(scratch) {
		bins = make([]uint16, n)
	}
	bins = bins[:n]
	g.fill(frozen, t, freeze, s.Row, bins)
	for a, b := range bins {
		s.Items[a] = dataset.MakeItem(a, int(b))
	}
	return s
}

// fill is the one perturbation loop. Attribute a of row is t[a] where
// freeze[a] is set, a value inside the frozen item's bin where frozen
// has an item on a, and otherwise a bin drawn by the alias method and a
// value inside it; bins, unless nil, receives the bins Stats.ItemizeRow
// would give row. A nil t means no freeze mask.
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
func (g *Generator) fill(frozen dataset.Itemset, t []float64, freeze []bool, row []float64, bins []uint16) {
	plan := g.stats.FillPlan()
	rng, cols := g.rng, plan.Bins
	attrs := plan.Attrs[:len(row)]
	fi := 0
	for a := range attrs {
		if t != nil && freeze[a] {
			row[a] = t[a]
			if bins != nil {
				bins[a] = uint16(g.stats.Bin(a, t[a]))
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
				_ = cols[at.Off : at.Off+at.K][b]
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
			col := &cols[at.Off+b]
			keep := int32(math.Float64bits(f-col.Keep) >> 63)
			b = col.Alias ^ ((col.Alias ^ b) & -keep)
		}
		if !at.Numeric {
			row[a] = float64(b)
			if bins != nil {
				bins[a] = uint16(b)
			}
			continue
		}
		bin := &cols[at.Off+b]
		v := bin.Lo
		if bin.Width > 0 {
			f := float64(rng.Int63()) / (1 << 63)
			for f == 1 {
				f = float64(rng.Int63()) / (1 << 63)
			}
			v += f * bin.Width
		}
		row[a] = v
		if bins != nil {
			if !(v > bin.Below && v <= bin.Above) {
				b = int32(g.stats.Bin(a, v))
			}
			bins[a] = uint16(b)
		}
	}
}

// BinaryEncode computes the interpretable representation of a sample
// relative to the tuple being explained: out[a] = 1 when the sample's
// attribute a falls in the same bin as the tuple's (same category, or same
// quartile bin for numerics), else 0. Both item slices must be canonical
// per-attribute encodings as produced by Stats.ItemizeRow. The explainers
// compare bins; this stays for the benchmark's callers.
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

// MatchesBins reports whether the sample's bins agree with the tuple's on
// every attribute of the itemset — the condition under which a pooled
// perturbation is reusable for the tuple. One compare per item: a bin's
// attribute is its position.
//
//shahin:hotpath
func MatchesBins(itemset dataset.Itemset, bins []uint16) bool {
	for _, it := range itemset {
		if bins[it.Attr()] != uint16(it.Bin()) {
			return false
		}
	}
	return true
}
