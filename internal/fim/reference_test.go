package fim

import (
	"sort"

	"shahin/internal/bitset"
	"shahin/internal/dataset"
)

// referenceMine is the miner Mine replaced, kept as its oracle: it mines
// every level up to MaxLen, builds an Itemset and a bitmap for every
// candidate that passes, and sorts the whole result. It ignores Keep and
// KeepBorder; Mine's answer must equal the first Keep and KeepBorder
// entries of this one's, bit for bit.
func referenceMine(rows []dataset.Itemset, cfg Config) (*Result, error) {
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

	counts := make(map[dataset.Item]int)
	for _, row := range rows {
		for _, it := range row {
			counts[it]++
		}
	}
	itemBM := make(map[dataset.Item]*bitset.Set)
	var level []refNode
	for it, c := range counts {
		if c < minCount {
			if cfg.WithBorder {
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
		level = append(level, refNode{set: dataset.Itemset{it}, cnt: c})
	}
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
	level = refTrimLevel(level, cfg.MaxPerLevel)
	refSortNodes(level)
	refAppendFrequent(res, level, len(rows))

	frequentKeys := make(map[dataset.ItemsetKey]bool)
	for _, nd := range level {
		frequentKeys[nd.set.Key()] = true
	}

	for k := 2; k <= maxLen && len(level) > 1; k++ {
		var next []refNode
		for i := 0; i < len(level); i++ {
			for j := i + 1; j < len(level); j++ {
				a, b := level[i].set, level[j].set
				if !samePrefix(a, b) {
					break
				}
				la, lb := a[len(a)-1], b[len(b)-1]
				if la.Attr() == lb.Attr() {
					continue
				}
				cand := make(dataset.Itemset, len(a)+1)
				copy(cand, a)
				cand[len(a)] = lb
				if !refAllSubsetsFrequent(cand, frequentKeys) {
					continue
				}
				cnt := bitset.AndCount(level[i].bm, itemBM[lb])
				if cnt >= minCount {
					next = append(next, refNode{
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
		next = refTrimLevel(next, cfg.MaxPerLevel)
		refSortNodes(next)
		refAppendFrequent(res, next, len(rows))
		for _, nd := range next {
			frequentKeys[nd.set.Key()] = true
		}
		level = next
	}
	refSortMined(res.Frequent)
	refSortMined(res.Border)
	return res, nil
}

type refNode struct {
	set dataset.Itemset
	bm  *bitset.Set
	cnt int
}

func refTrimLevel(nodes []refNode, k int) []refNode {
	if k <= 0 || len(nodes) <= k {
		return nodes
	}
	sort.Slice(nodes, func(i, j int) bool {
		if nodes[i].cnt != nodes[j].cnt {
			return nodes[i].cnt > nodes[j].cnt
		}
		return refLess(nodes[i].set, nodes[j].set)
	})
	return nodes[:k]
}

func refAllSubsetsFrequent(cand dataset.Itemset, frequent map[dataset.ItemsetKey]bool) bool {
	if len(cand) <= 2 {
		return true
	}
	sub := make(dataset.Itemset, 0, len(cand)-1)
	for skip := 0; skip < len(cand)-2; skip++ {
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

func refSortNodes(nodes []refNode) {
	sort.Slice(nodes, func(i, j int) bool {
		return refLess(nodes[i].set, nodes[j].set)
	})
}

func refAppendFrequent(res *Result, nodes []refNode, rows int) {
	for _, nd := range nodes {
		res.Frequent = append(res.Frequent, Mined{
			Set:     nd.set,
			Count:   nd.cnt,
			Support: float64(nd.cnt) / float64(rows),
		})
	}
}

func refLess(a, b dataset.Itemset) bool {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

func refSortMined(ms []Mined) {
	sort.Slice(ms, func(i, j int) bool {
		a, b := &ms[i], &ms[j]
		if len(a.Set) != len(b.Set) {
			return len(a.Set) < len(b.Set)
		}
		if a.Count != b.Count {
			return a.Count > b.Count
		}
		return refLess(a.Set, b.Set)
	})
}
