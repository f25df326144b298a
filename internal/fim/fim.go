// Package fim mines the frequent itemsets Shahin materialises
// perturbations for: Apriori over discretised tuples with bitmap
// tid-lists, plus the negative border (infrequent itemsets whose
// immediate subsets are all frequent) the streaming variant tracks
// (paper §3.5). A Result is a prefix: mining stops after the first level
// that fills the Keep and KeepBorder entries the caller reads.
package fim

import (
	"fmt"
	"slices"

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
	// Keep and KeepBorder are how many of Frequent and Border the caller
	// reads (0 = all). Result holds only those first entries, and mining
	// stops after the first level at which both are full.
	Keep       int
	KeepBorder int
}

func (c *Config) validate() error {
	if c.MinSupport <= 0 || c.MinSupport > 1 {
		return fmt.Errorf("fim: MinSupport %g outside (0,1]", c.MinSupport)
	}
	if c.MaxLen < 0 || c.MaxLen > dataset.MaxItemsetLen {
		return fmt.Errorf("fim: MaxLen %d outside [0,%d]", c.MaxLen, dataset.MaxItemsetLen)
	}
	if c.MaxPerLevel < 0 || c.Keep < 0 || c.KeepBorder < 0 {
		return fmt.Errorf("fim: negative MaxPerLevel %d, Keep %d or KeepBorder %d", c.MaxPerLevel, c.Keep, c.KeepBorder)
	}
	return nil
}

// Mined is one itemset with its measured support.
type Mined struct {
	Set     dataset.Itemset
	Count   int     // absolute support in the mined rows
	Support float64 // Count / number of rows
}

// Result holds the first Keep frequent itemsets and KeepBorder of the
// negative border (if asked), both sorted by ascending length then
// descending support, then itemset.
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
// produced by Stats.ItemizeRow. A level's candidates are counted before
// any is built: an Itemset is made only for what Result keeps, and an
// Itemset and a tid-list only for the nodes that seed the next level.
func Mine(rows []dataset.Itemset, cfg Config) (*Result, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if cfg.MaxLen == 0 {
		cfg.MaxLen = dataset.MaxItemsetLen
	}
	res := &Result{Rows: len(rows)}
	if len(rows) == 0 {
		return res, nil
	}
	m := &miner{
		cfg:      cfg,
		res:      res,
		minCount: int32(MinCount(cfg.MinSupport, len(rows))),
		hist:     make([]int32, len(rows)+1),
	}
	for level := m.singletons(rows); len(level) > 1; {
		level = m.extend(level)
	}
	return res, nil
}

// miner is one Mine call's state.
type miner struct {
	cfg      Config
	res      *Result
	minCount int32
	hist     []int32 // one slot per possible count; all zero between uses
}

// rec is a counted candidate: its parents' positions in the level it was
// joined from (a singleton's position among the observed items) and its
// support. A level's records are generated in lexicographic order of
// their itemsets, so position breaks ties in that order.
type rec struct{ i, j, cnt int32 }

// node is a frequent itemset that seeds the next level, with its tid-list
// bitmap.
type node struct {
	set dataset.Itemset
	bm  *bitset.Set
}

// singletons counts every observed item, settles level 1 and returns its
// seeds. Items are counted in one slot each, attribute by attribute, so
// the observed items come out in ascending order.
func (m *miner) singletons(rows []dataset.Itemset) []node {
	var width []int // per attribute, one past its highest bin
	for _, row := range rows {
		for _, it := range row {
			a := it.Attr()
			if a >= len(width) {
				width = append(width, make([]int, a+1-len(width))...)
			}
			width[a] = max(width[a], it.Bin()+1)
		}
	}
	base := make([]int, len(width)+1) // first slot of each attribute
	for a, w := range width {
		base[a+1] = base[a] + w
	}
	slot := func(it dataset.Item) int { return base[it.Attr()] + it.Bin() }
	count := make([]int32, base[len(width)])
	for _, row := range rows {
		for _, it := range row {
			count[slot(it)]++
		}
	}
	wantBorder := m.wantBorder()
	var items []dataset.Item
	var freq, border []rec
	for a, w := range width {
		for b := range w {
			c := count[base[a]+b]
			if c == 0 || c < m.minCount && !wantBorder {
				continue
			}
			r := rec{i: int32(len(items)), cnt: c}
			items = append(items, dataset.MakeItem(a, b))
			if c >= m.minCount {
				freq = append(freq, r)
			} else {
				border = append(border, r)
			}
		}
	}
	appendSet := func(dst dataset.Itemset, r rec) dataset.Itemset { return append(dst, items[r.i]) }
	seeds := m.settle(freq, border, 1, appendSet)
	if seeds == nil {
		return nil
	}
	// Fill the seeds' tid-lists in one pass; count now maps a slot to
	// its seed's position plus one.
	clear(count)
	level := make([]node, len(seeds))
	for n, set := range sets(seeds, 1, appendSet) {
		level[n] = node{set: set, bm: bitset.New(len(rows))}
		count[slot(set[0])] = int32(n + 1)
	}
	for ti, row := range rows {
		for _, it := range row {
			if n := count[slot(it)]; n > 0 {
				level[n-1].bm.Set(ti)
			}
		}
	}
	return level
}

// extend counts the candidates joined from level (frequent, lexicographic,
// one length), settles them and returns the next level's seeds.
func (m *miner) extend(level []node) []node {
	k := len(level[0].set) + 1
	wantBorder := m.wantBorder()
	var freq, border []rec
	sub := make(dataset.Itemset, 0, k-1)
	for i := range level {
		for j := i + 1; j < len(level); j++ {
			a, b := level[i].set, level[j].set
			if !samePrefix(a, b) {
				break // nodes are sorted; once prefixes diverge, stop
			}
			lb := b[len(b)-1]
			if a[len(a)-1].Attr() == lb.Attr() {
				continue // one item per attribute
			}
			if !subsetsFrequent(level, a, lb, sub) {
				continue
			}
			// level[j]'s tid-list is level[i]'s prefix and lb's, so the
			// two intersect to the candidate's.
			r := rec{i: int32(i), j: int32(j), cnt: int32(bitset.AndCount(level[i].bm, level[j].bm))}
			if r.cnt >= m.minCount {
				freq = append(freq, r)
			} else if wantBorder {
				border = append(border, r)
			}
		}
	}
	appendSet := func(dst dataset.Itemset, r rec) dataset.Itemset {
		b := level[r.j].set
		return append(append(dst, level[r.i].set...), b[len(b)-1])
	}
	seeds := m.settle(freq, border, k, appendSet)
	next := make([]node, len(seeds))
	for n, set := range sets(seeds, k, appendSet) {
		next[n] = node{set: set, bm: bitset.And(level[seeds[n].i].bm, level[seeds[n].j].bm)}
	}
	return next
}

// settle appends level k's share of the answer to Result: its frequent
// records trimmed to MaxPerLevel, and its border, each cut to what Keep
// and KeepBorder still take, in Result's order. It returns the trimmed
// frequent records, which seed level k+1, or nil when mining stops here.
func (m *miner) settle(freq, border []rec, k int, appendSet func(dataset.Itemset, rec) dataset.Itemset) []rec {
	freq = m.trim(freq, m.cfg.MaxPerLevel)
	m.res.Frequent = m.emit(m.res.Frequent, m.best(slices.Clone(freq), quota(m.cfg.Keep, len(m.res.Frequent))), k, appendSet)
	m.res.Border = m.emit(m.res.Border, m.best(border, quota(m.cfg.KeepBorder, len(m.res.Border))), k, appendSet)
	if k == m.cfg.MaxLen || len(freq) <= 1 || m.full() {
		return nil
	}
	return freq
}

// full reports whether Result holds all the caller reads: every later
// level sorts after what it holds.
func (m *miner) full() bool {
	frequent := m.cfg.Keep > 0 && len(m.res.Frequent) >= m.cfg.Keep
	return frequent && !m.wantBorder()
}

// wantBorder reports whether the border still takes entries.
func (m *miner) wantBorder() bool {
	return m.cfg.WithBorder && quota(m.cfg.KeepBorder, len(m.res.Border)) != 0
}

// quota is how many more entries a prefix of keep takes once it holds
// have: -1 for all when keep is 0.
func quota(keep, have int) int {
	if keep == 0 {
		return -1
	}
	return max(keep-have, 0)
}

// emit appends recs to dst as Mined entries of length k.
func (m *miner) emit(dst []Mined, recs []rec, k int, appendSet func(dataset.Itemset, rec) dataset.Itemset) []Mined {
	for n, set := range sets(recs, k, appendSet) {
		cnt := int(recs[n].cnt)
		dst = append(dst, Mined{Set: set, Count: cnt, Support: float64(cnt) / float64(m.res.Rows)})
	}
	return dst
}

// sets builds the length-k itemsets of recs, carved from one array.
func sets(recs []rec, k int, appendSet func(dataset.Itemset, rec) dataset.Itemset) []dataset.Itemset {
	out := make([]dataset.Itemset, len(recs))
	items := make(dataset.Itemset, 0, len(recs)*k)
	for n, r := range recs {
		start := len(items)
		items = appendSet(items, r)
		out[n] = items[start:len(items):len(items)]
	}
	return out
}

// cut finds where the q best of recs end, ranked by count descending and
// then position: all those counted above c, and the first ties counted c.
// It needs 0 < q <= len(recs).
func (m *miner) cut(recs []rec, q int) (c int32, ties int) {
	h := m.hist
	for _, r := range recs {
		h[r.cnt]++
	}
	c = int32(len(h) - 1)
	for q > int(h[c]) {
		q -= int(h[c])
		c--
	}
	clear(h)
	return c, q
}

// trim keeps the q best of recs (all when q is 0), in position order:
// the level MaxPerLevel leaves.
func (m *miner) trim(recs []rec, q int) []rec {
	if q == 0 || len(recs) <= q {
		return recs
	}
	c, ties := m.cut(recs, q)
	kept := recs[:0]
	for _, r := range recs {
		if r.cnt == c {
			if ties == 0 {
				continue
			}
			ties--
		}
		if r.cnt >= c {
			kept = append(kept, r)
		}
	}
	return kept
}

// best lists the q best of recs (all when q is negative) in rank order,
// the order Result lists a level in: trim, then a stable counting sort,
// so no two records are compared. It trims recs in place.
func (m *miner) best(recs []rec, q int) []rec {
	if q == 0 {
		return nil
	}
	if q < 0 {
		q = len(recs)
	}
	recs = m.trim(recs, q)
	h := m.hist // h[x] counts, then places, count x
	for _, r := range recs {
		h[r.cnt]++
	}
	place := int32(0)
	for x := len(h) - 1; x >= 0; x-- {
		place, h[x] = place+h[x], place
	}
	out := make([]rec, len(recs))
	for _, r := range recs {
		out[h[r.cnt]] = r
		h[r.cnt]++
	}
	clear(h)
	return out
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

// subsetsFrequent applies the Apriori pruning rule to the candidate a+lb:
// every subset one shorter must be in level. The two missing one of the
// last two items are the join parents; the others are searched for, with
// sub as scratch.
func subsetsFrequent(level []node, a dataset.Itemset, lb dataset.Item, sub dataset.Itemset) bool {
	for skip := 0; skip < len(a)-1; skip++ {
		sub = append(append(append(sub[:0], a[:skip]...), a[skip+1:]...), lb)
		if _, ok := slices.BinarySearchFunc(level, sub, func(n node, s dataset.Itemset) int {
			return slices.Compare(n.set, s)
		}); !ok {
			return false
		}
	}
	return true
}
