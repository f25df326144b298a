package perturb

import (
	"math/rand"
	"slices"
	"testing"

	"shahin/internal/datagen"
	"shahin/internal/dataset"
)

// matchesItems is MatchesBins as it stood while a pooled sample was its
// items: Itemset.ContainsAll's merge over all p of them. It is the oracle
// TestMatchesBinsMatchesReference and FuzzPooledBins hold MatchesBins to.
func matchesItems(itemset dataset.Itemset, items []dataset.Item) bool {
	return itemset.ContainsAll(items)
}

// itemsOf is the items a pooled sample's bins stand for.
func itemsOf(bins []uint16) []dataset.Item {
	items := make([]dataset.Item, len(bins))
	for a, b := range bins {
		items[a] = dataset.MakeItem(a, int(b))
	}
	return items
}

// ruleOf is a canonical itemset on the attributes picks names (each
// taken modulo p, repeats dropped), each item the sample's bin or, where
// the pick's next byte says so, a bin beside it: one apart, or 256 apart
// (equal in the low byte).
func ruleOf(bins []uint16, picks []byte) dataset.Itemset {
	var rule dataset.Itemset
	for i := 0; i+1 < len(picks) && len(rule) < dataset.MaxItemsetLen+1; i += 2 {
		a := int(picks[i]) % len(bins)
		if slices.ContainsFunc(rule, func(it dataset.Item) bool { return it.Attr() == a }) {
			continue
		}
		b := int(bins[a])
		switch picks[i+1] % 4 {
		case 1:
			b ^= 1
		case 2:
			b ^= 256
		}
		rule = append(rule, dataset.MakeItem(a, b))
	}
	slices.Sort(rule)
	return rule
}

// TestMatchesBinsMatchesReference: on the pooled draws of every twin —
// frozen on up to four of a tuple's items — MatchesBins answers what
// ContainsAll answers over the sample's items, for rules of the tuple's
// items (the reuse tests' own rules) and for rules a bin off.
func TestMatchesBinsMatchesReference(t *testing.T) {
	for _, name := range datagen.Names() {
		spec, err := datagen.Spec(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := spec.Generate(1000, 81)
		if err != nil {
			t.Fatal(err)
		}
		st, err := dataset.Compute(d)
		if err != nil {
			t.Fatal(err)
		}
		g := NewGenerator(st, rand.New(rand.NewSource(82)))
		pick := rand.New(rand.NewSource(83))
		p := st.NumAttrs()
		row, bins := make([]float64, p), make([]uint16, p)
		matched := 0
		for i := 0; i < 2000; i++ {
			tItems := st.ItemizeRow(d.Row(pick.Intn(d.NumRows()), nil), nil)
			var frozen dataset.Itemset
			for _, a := range pick.Perm(p)[:pick.Intn(5)] {
				frozen = append(frozen, tItems[a])
			}
			slices.Sort(frozen)
			g.FillItemset(frozen, row, bins)
			items := itemsOf(bins)
			picks := make([]byte, 2*(1+pick.Intn(4)))
			pick.Read(picks)
			for _, rule := range []dataset.Itemset{frozen, tItems[:pick.Intn(p)], ruleOf(bins, picks)} {
				got, want := MatchesBins(rule, bins), matchesItems(rule, items)
				if got != want {
					t.Fatalf("%s: MatchesBins(%v) = %t on bins %v, ContainsAll says %t", name, rule, got, bins, want)
				}
				if got {
					matched++
				}
			}
		}
		if matched == 0 {
			t.Fatalf("%s: no rule matched: the all-match path went untested", name)
		}
	}
}

// FuzzPooledBins holds MatchesBins to ContainsAll over the items of
// fuzzed bins (any of the 16 bits), for rules of the sample's own bins
// and of bins one or 256 off, and Sample.Pooled to the bins of its
// items. Mutants it kills, each within seconds: the attribute index off
// by one, a bin compared on its low byte, Pooled truncating a bin to 8
// bits.
func FuzzPooledBins(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 3, 1}, []byte{0, 0, 2, 0})
	f.Add([]byte{7, 1, 7, 0, 255, 255}, []byte{1, 2, 2, 1})
	f.Add([]byte{0, 0, 1, 1, 2, 2, 3, 3}, []byte{3, 0, 1, 2, 0, 3})
	f.Fuzz(func(t *testing.T, raw, picks []byte) {
		if len(raw) < 2 {
			return
		}
		bins := make([]uint16, min(len(raw)/2, 64))
		for a := range bins {
			bins[a] = uint16(raw[2*a])<<8 | uint16(raw[2*a+1])
		}
		items := itemsOf(bins)
		rule := ruleOf(bins, picks)
		if got, want := MatchesBins(rule, bins), matchesItems(rule, items); got != want {
			t.Fatalf("MatchesBins(%v) = %t on bins %v, ContainsAll says %t", rule, got, bins, want)
		}
		s := Sample{Items: items, Label: len(raw)}
		if pooled := s.Pooled(); !slices.Equal(pooled.Bins, bins) || pooled.Label != s.Label {
			t.Fatalf("Pooled() = %v labelled %d, want %v labelled %d", pooled.Bins, pooled.Label, bins, s.Label)
		}
	})
}
