// Package fim implements the frequent itemset mining substrate Shahin uses
// to decide which perturbations are worth materialising. It is a classic
// Apriori over discretised tuples with bitmap tid-lists for support
// counting, extended with the negative border (itemsets that are
// infrequent but whose immediate subsets are all frequent), which the
// streaming variant of Shahin tracks (paper §3.5).
package fim

import (
	"fmt"
	"sort"

	"shahin/internal/bitset"
	"shahin/internal/dataset"
)

// Config controls a mining run.
type Config struct {
	// MinSupport is the relative support threshold in (0, 1].
	MinSupport float64
	// MaxLen caps itemset length; 0 means dataset.MaxItemsetLen. Values
	// above dataset.MaxItemsetLen are rejected because downstream caches
	// key on fixed-width itemset keys.
	MaxLen int
	// WithBorder also computes the negative border (needed by the
	// streaming variant; the batch variant can skip it).
	WithBorder bool
	// MaxPerLevel keeps only the top-K itemsets by support at each level
	// (0 = unlimited). Shahin only materialises the highest-support
	// itemsets, so bounding each level caps the candidate explosion on
	// datasets with many correlated low-cardinality attributes. When
	// trimming occurs, results (and the border) are the top slice of the
	// true answer, not the complete set.
	MaxPerLevel int
}

func (c *Config) validate() error {
	if c.MinSupport <= 0 || c.MinSupport > 1 {
		return fmt.Errorf("fim: MinSupport %g outside (0,1]", c.MinSupport)
	}
	if c.MaxLen < 0 || c.MaxLen > dataset.MaxItemsetLen {
		return fmt.Errorf("fim: MaxLen %d outside [0,%d]", c.MaxLen, dataset.MaxItemsetLen)
	}
	if c.MaxPerLevel < 0 {
		return fmt.Errorf("fim: negative MaxPerLevel %d", c.MaxPerLevel)
	}
	return nil
}

// Mined is one itemset with its measured support.
type Mined struct {
	Set     dataset.Itemset
	Count   int     // absolute support in the mined rows
	Support float64 // Count / number of rows
}

// Result holds the frequent itemsets and (optionally) the negative border,
// both sorted by ascending length then descending support.
type Result struct {
	Rows     int // how many transactions were mined
	Frequent []Mined
	Border   []Mined
}

// SampleSize returns the paper's heuristic for how many tuples of a batch
// to mine: max(1000, 1% of the batch), capped at the batch size.
func SampleSize(batch int) int {
	n := batch / 100
	if n < 1000 {
		n = 1000
	}
	if n > batch {
		n = batch
	}
	return n
}

// MinCount is the absolute count a relative support asks of rows
// transactions: the least whole count at or above support·rows, and at
// least one. An itemset is frequent when it occurs in that many rows.
func MinCount(support float64, rows int) int {
	n := int(support * float64(rows))
	if float64(n) < support*float64(rows) {
		n++
	}
	return max(n, 1)
}

// Mine runs Apriori over itemised transactions. Each row must be in
// canonical order (ascending item, at most one item per attribute), as
// produced by Stats.ItemizeRow.
func Mine(rows []dataset.Itemset, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	maxLen := cfg.MaxLen
	if maxLen == 0 {
		maxLen = dataset.MaxItemsetLen
	}
	res := &Result{Rows: len(rows)}
	if len(rows) == 0 {
		return res, nil
	}
	minCount := MinCount(cfg.MinSupport, len(rows))

	// Level 1: count every observed item and build tid-lists for the
	// frequent ones.
	counts := make(map[dataset.Item]int)
	for _, row := range rows {
		for _, it := range row {
			counts[it]++
		}
	}
	itemBM := make(map[dataset.Item]*bitset.Set)
	var level []node
	for it, c := range counts {
		if c < minCount {
			if cfg.WithBorder {
				// Every immediate subset of a 1-itemset is the empty set,
				// which is trivially frequent, so all observed infrequent
				// items are border members.
				res.Border = append(res.Border, Mined{
					Set:     dataset.Itemset{it},
					Count:   c,
					Support: float64(c) / float64(len(rows)),
				})
			}
			continue
		}
		bm := bitset.New(len(rows))
		itemBM[it] = bm
		level = append(level, node{set: dataset.Itemset{it}, cnt: c})
	}
	// Fill tid-lists in one pass over the data.
	for ti, row := range rows {
		for _, it := range row {
			if bm, ok := itemBM[it]; ok {
				bm.Set(ti)
			}
		}
	}
	for i := range level {
		level[i].bm = itemBM[level[i].set[0]]
	}
	level = trimLevel(level, cfg.MaxPerLevel)
	sortNodes(level)
	appendFrequent(res, level, len(rows))

	frequentKeys := make(map[dataset.ItemsetKey]bool)
	for _, nd := range level {
		frequentKeys[nd.set.Key()] = true
	}

	// Levels 2..maxLen: candidate generation by prefix join + Apriori
	// pruning, support by bitmap intersection.
	for k := 2; k <= maxLen && len(level) > 1; k++ {
		var next []node
		for i := 0; i < len(level); i++ {
			for j := i + 1; j < len(level); j++ {
				a, b := level[i].set, level[j].set
				if !samePrefix(a, b) {
					break // nodes are sorted; once prefixes diverge, stop
				}
				la, lb := a[len(a)-1], b[len(b)-1]
				if la.Attr() == lb.Attr() {
					continue // one item per attribute
				}
				cand := make(dataset.Itemset, len(a)+1)
				copy(cand, a)
				cand[len(a)] = lb
				if !allSubsetsFrequent(cand, frequentKeys) {
					continue
				}
				cnt := bitset.AndCount(level[i].bm, itemBM[lb])
				if cnt >= minCount {
					next = append(next, node{
						set: cand,
						bm:  bitset.And(level[i].bm, itemBM[lb]),
						cnt: cnt,
					})
				} else if cfg.WithBorder {
					res.Border = append(res.Border, Mined{
						Set:     cand,
						Count:   cnt,
						Support: float64(cnt) / float64(len(rows)),
					})
				}
			}
		}
		next = trimLevel(next, cfg.MaxPerLevel)
		sortNodes(next)
		appendFrequent(res, next, len(rows))
		for _, nd := range next {
			frequentKeys[nd.set.Key()] = true
		}
		level = next
	}
	sortMined(res.Frequent)
	sortMined(res.Border)
	return res, nil
}

// trimLevel keeps the top-k nodes by support (all of them when k is 0 or
// the level is small enough). Ties at the cut are broken by canonical
// itemset order: level-1 nodes arrive in map-iteration order, and an
// unstable count-only sort would let that order pick which equal-support
// itemsets survive — nondeterministic mining results.
func trimLevel(nodes []node, k int) []node {
	if k <= 0 || len(nodes) <= k {
		return nodes
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].cnt != nodes[j].cnt {
			return nodes[i].cnt > nodes[j].cnt
		}
		return lessItemsets(nodes[i].set, nodes[j].set)
	})
	return nodes[:k]
}

// samePrefix reports whether a and b agree on all but their last item.
func samePrefix(a, b dataset.Itemset) bool {
	for i := 0; i < len(a)-1; i++ {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// allSubsetsFrequent applies the Apriori pruning rule: every (k-1)-subset
// of cand must already be frequent.
func allSubsetsFrequent(cand dataset.Itemset, frequent map[dataset.ItemsetKey]bool) bool {
	if len(cand) <= 2 {
		return true // both 1-subsets are the joined nodes, known frequent
	}
	sub := make(dataset.Itemset, 0, len(cand)-1)
	for skip := 0; skip < len(cand)-2; skip++ {
		// Subsets missing one of the first len-2 items; the two subsets
		// missing the last items are the join parents, already frequent.
		sub = sub[:0]
		for i, it := range cand {
			if i != skip {
				sub = append(sub, it)
			}
		}
		if !frequent[sub.Key()] {
			return false
		}
	}
	return true
}

// node is a frequent itemset at the current Apriori level together with
// its tid-list bitmap.
type node struct {
	set dataset.Itemset
	bm  *bitset.Set
	cnt int
}

func sortNodes(nodes []node) {
	sort.Slice(nodes, func(i, j int) bool {
		return lessItemsets(nodes[i].set, nodes[j].set)
	})
}

func appendFrequent(res *Result, nodes []node, rows int) {
	for _, nd := range nodes {
		res.Frequent = append(res.Frequent, Mined{
			Set:     nd.set,
			Count:   nd.cnt,
			Support: float64(nd.cnt) / float64(rows),
		})
	}
}

// lessItemsets orders itemsets lexicographically (which, with
// attribute-major item encoding, is the canonical Apriori order).
func lessItemsets(a, b dataset.Itemset) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// sortMined orders by ascending length, then descending support, then
// lexicographic, so callers get the most shareable itemsets first within
// each length.
func sortMined(ms []Mined) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := &ms[i], &ms[j]
		if len(a.Set) != len(b.Set) {
			return len(a.Set) < len(b.Set)
		}
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return lessItemsets(a.Set, b.Set)
	})
}
