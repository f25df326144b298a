package fim

import (
	"testing"

	"shahin/internal/dataset"
)

// FuzzMine feeds randomly-shaped transaction sets and bounds to the
// miner and checks that it answers the reference miner's prefixes, and
// the structural invariants that must hold on any input: supports within
// [minCount, rows], canonical itemsets (sorted, one item per attribute),
// and a border disjoint from the frequent set.
func FuzzMine(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(3), uint8(2), false, uint8(0), uint8(0), uint8(0), uint8(3))
	f.Add(int64(2), uint8(20), uint8(5), uint8(4), true, uint8(7), uint8(3), uint8(0), uint8(0))
	f.Add(int64(3), uint8(1), uint8(1), uint8(1), true, uint8(1), uint8(1), uint8(1), uint8(1))
	f.Add(int64(4), uint8(60), uint8(7), uint8(2), true, uint8(20), uint8(13), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, nRows, nAttr, nBins uint8, border bool, keep, keepBorder, perLevel, maxLen uint8) {
		rows := int(nRows%64) + 1
		attrs := int(nAttr%8) + 1
		bins := int(nBins%5) + 1
		rng := newRand(seed)
		txs := make([]dataset.Itemset, rows)
		for i := range txs {
			row := make(dataset.Itemset, attrs)
			for a := 0; a < attrs; a++ {
				row[a] = dataset.MakeItem(a, rng.Intn(bins))
			}
			txs[i] = row
		}
		// The seed picks the support in [0.05, 0.94]; a negative seed's
		// remainder is negative, so it is folded into [0, 90) first.
		minSup := 0.05 + float64((seed%90+90)%90)/100
		cfg := Config{
			MinSupport:  minSup,
			MaxLen:      int(maxLen % (dataset.MaxItemsetLen + 1)),
			WithBorder:  border,
			MaxPerLevel: int(perLevel % 24),
			Keep:        int(keep % 48),
			KeepBorder:  int(keepBorder % 48),
		}
		res, err := Mine(txs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := referenceMine(txs, cfg)
		if err != nil {
			t.Fatal(err)
		}
		checkPrefix(t, "Frequent", res.Frequent, ref.Frequent, cfg.Keep)
		checkPrefix(t, "Border", res.Border, ref.Border, cfg.KeepBorder)
		minCount := int(minSup * float64(rows))
		if float64(minCount) < minSup*float64(rows) {
			minCount++
		}
		if minCount < 1 {
			minCount = 1
		}
		seen := map[dataset.ItemsetKey]bool{}
		for _, m := range res.Frequent {
			if m.Count < minCount || m.Count > rows {
				t.Fatalf("frequent %v count %d outside [%d,%d]", m.Set, m.Count, minCount, rows)
			}
			checkCanonical(t, m.Set)
			seen[m.Set.Key()] = true
		}
		for _, m := range res.Border {
			if m.Count >= minCount {
				t.Fatalf("border %v count %d >= %d", m.Set, m.Count, minCount)
			}
			checkCanonical(t, m.Set)
			if seen[m.Set.Key()] {
				t.Fatalf("itemset %v in both frequent and border", m.Set)
			}
		}
	})
}

func checkCanonical(t *testing.T, is dataset.Itemset) {
	t.Helper()
	for i := 1; i < len(is); i++ {
		if is[i] <= is[i-1] {
			t.Fatalf("itemset %v not canonical", is)
		}
		if is[i].Attr() == is[i-1].Attr() {
			t.Fatalf("itemset %v repeats attribute", is)
		}
	}
}
