// Package rf implements the black-box classifier substrate: CART decision
// trees with Gini impurity, bootstrap-bagged random forests with per-node
// feature subsampling, and the instrumentation wrappers (invocation
// counting, calibrated per-call delay) the benchmark harness uses to
// reproduce the paper's cost regime, where classifier invocation accounts
// for ~90 % of explanation time.
package rf

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
	"slices"
)

// Classifier is the black-box prediction interface the explainers see: a
// tuple in, a class index out. Everything Shahin optimises is the number
// of Predict calls.
type Classifier interface {
	NumClasses() int
	Predict(x []float64) int
}

// treeNode is one node of a decision tree in flat-array form. Leaves have
// feature == -1 and carry the majority class.
type treeNode struct {
	Feature   int32 // -1 for leaves
	Class     int32 // majority class (leaves)
	Threshold float64
	Left      int32 // index of the <=-threshold child
	Right     int32 // index of the >-threshold child
}

// Tree is a single CART classification tree.
type Tree struct {
	Nodes    []treeNode
	NClasses int
}

// treeConfig bounds tree growth.
type treeConfig struct {
	maxDepth    int
	minLeaf     int // minimum samples in a leaf
	featuresTry int // features examined per split
}

// Predict returns the class for x.
func (t *Tree) Predict(x []float64) int {
	i := int32(0)
	for {
		n := &t.Nodes[i]
		if n.Feature < 0 {
			return int(n.Class)
		}
		if x[n.Feature] <= n.Threshold {
			i = n.Left
		} else {
			i = n.Right
		}
	}
}

// Depth returns the maximum depth of the tree (a root-only tree has
// depth 0). Used by tests and diagnostics.
func (t *Tree) Depth() int {
	var walk func(i int32) int
	walk = func(i int32) int {
		n := &t.Nodes[i]
		if n.Feature < 0 {
			return 0
		}
		l, r := walk(n.Left), walk(n.Right)
		if l > r {
			return l + 1
		}
		return r + 1
	}
	return walk(0)
}

// rankTable is the training columns by rank: rank[f][row] is the position
// of the row's value among column f's distinct values, which value[f]
// lists in ascending order. -0 and +0 compare equal and share a rank.
// Train builds it once per forest; the tree workers only read it.
type rankTable struct {
	rank  [][]int32
	value [][]float64
	// distinct is the most distinct values any column has.
	distinct int
}

// rankColumns ranks every column of cols, which must be finite and of
// one length, the columns in parallel.
func rankColumns(cols [][]float64) *rankTable {
	t := &rankTable{rank: make([][]int32, len(cols)), value: make([][]float64, len(cols))}
	inParallel(len(cols), func() func(f int) {
		cells := make([]cell, len(cols[0]))
		return func(f int) { t.rank[f], t.value[f] = rankColumn(cols[f], cells) }
	})
	for _, value := range t.value {
		t.distinct = max(t.distinct, len(value))
	}
	return t
}

// cell is one value of a column and the row it is in.
type cell struct {
	v   float64
	row int32
}

// rankColumn ranks col, using cells (of col's length) as scratch.
func rankColumn(col []float64, cells []cell) (rank []int32, value []float64) {
	for i, v := range col {
		cells[i] = cell{v, int32(i)}
	}
	slices.SortFunc(cells, func(a, b cell) int {
		switch {
		case a.v < b.v:
			return -1
		case a.v > b.v:
			return 1
		}
		return 0
	})
	rank = make([]int32, len(col))
	value = []float64{cells[0].v}
	for _, c := range cells {
		if c.v != value[len(value)-1] {
			value = append(value, c.v)
		}
		rank[c.row] = int32(len(value) - 1)
	}
	return rank, slices.Clip(value)
}

// treeBuilder carries one worker's training state: the forest's shared,
// read-only training data and scratch reused across nodes and trees.
type treeBuilder struct {
	ranks    *rankTable // the training columns by rank
	labels   []int
	nClasses int
	cfg      treeConfig
	rng      *rand.Rand
	nodes    []treeNode
	// scratch reused across nodes and trees
	feats   []int   // the feature permutation
	counts  []int   // class counts of the node being split
	left    []int   // class counts left of the cut being walked
	hist    []int32 // hist[r*nClasses+c]: the node's rows of rank r and class c
	size    []int32 // size[r]: the node's rows of rank r
	touched []int32 // the ranks with size > 0, and a slot for the fill's spare write
}

func newTreeBuilder(ranks *rankTable, labels []int, nClasses int, cfg treeConfig) *treeBuilder {
	return &treeBuilder{
		ranks: ranks, labels: labels, nClasses: nClasses, cfg: cfg,
		feats:   make([]int, len(ranks.rank)),
		counts:  make([]int, nClasses),
		left:    make([]int, nClasses),
		hist:    make([]int32, ranks.distinct*nClasses),
		size:    make([]int32, ranks.distinct),
		touched: make([]int32, ranks.distinct+1),
	}
}

// grow builds one tree on the given sample indices, drawing its feature
// subsets from rng. It reorders idx.
func (b *treeBuilder) grow(idx []int, rng *rand.Rand) *Tree {
	b.rng, b.nodes = rng, nil
	b.build(idx, 0)
	return &Tree{Nodes: b.nodes, NClasses: b.nClasses}
}

// build grows the subtree over idx and returns its root node index. It
// partitions idx in place.
func (b *treeBuilder) build(idx []int, depth int) int32 {
	counts := b.counts
	clear(counts)
	for _, i := range idx {
		counts[b.labels[i]]++
	}
	major, majorN := 0, -1
	for c, n := range counts {
		if n > majorN {
			major, majorN = c, n
		}
	}
	pure := majorN == len(idx)
	if pure || depth >= b.cfg.maxDepth || len(idx) < 2*b.cfg.minLeaf {
		return b.leaf(major)
	}

	feat, thr, ok := b.bestSplit(idx, counts)
	if !ok {
		return b.leaf(major)
	}
	// Partition in place around the threshold: a row goes left when its
	// value is at most thr, which is when its rank is at most cut, the
	// highest rank whose value is.
	cut, found := slices.BinarySearch(b.ranks.value[feat], thr)
	if !found {
		cut--
	}
	rank, lo := b.ranks.rank[feat], 0
	for j, i := range idx {
		if rank[i] <= int32(cut) {
			idx[j], idx[lo] = idx[lo], i
			lo++
		}
	}
	if lo == 0 || lo == len(idx) {
		// The midpoint rounded onto the node's highest value, or
		// overflowed to +Inf between ±MaxFloat64: it cuts nothing off.
		return b.leaf(major)
	}
	self := int32(len(b.nodes))
	b.nodes = append(b.nodes, treeNode{Feature: int32(feat), Threshold: thr})
	left := b.build(idx[:lo], depth+1)
	right := b.build(idx[lo:], depth+1)
	b.nodes[self].Left = left
	b.nodes[self].Right = right
	return self
}

func (b *treeBuilder) leaf(class int) int32 {
	i := int32(len(b.nodes))
	b.nodes = append(b.nodes, treeNode{Feature: -1, Class: int32(class)})
	return i
}

// bestSplit searches a random subset of features for the threshold with
// the lowest weighted Gini impurity. counts are the class counts of idx.
//
// A cut can only fall between two distinct values, and the rows left of
// it are all those of lower rank, so each feature is one pass over idx
// into a per-rank class histogram and one walk of the ranks the node
// has, in ascending order (see ascending). The walk sees at each cut the
// prefix counts a walk of the rows sorted by value sees there, whatever
// the order of tied rows, so the first cut of least impurity, and its
// midpoint, are the sorted walk's.
func (b *treeBuilder) bestSplit(idx []int, counts []int) (feat int, thr float64, ok bool) {
	n, k := len(idx), b.nClasses
	p := len(b.ranks.rank)
	tryN := b.cfg.featuresTry
	if tryN <= 0 || tryN > p {
		tryN = p
	}
	bestGini := math.Inf(1)
	hist, size, left, labels := b.hist, b.size, b.left, b.labels
	for _, f := range b.perm(p)[:tryN] {
		rank, value := b.ranks.rank[f], b.ranks.value[f]
		// Every rank is written at touched[m] and kept on its first row.
		// The sign bit counts it rather than an `if size[r] == 0`, which
		// mispredicts on continuous columns: BenchmarkForestTrain -cpu 1
		// is 16–18 % slower on lending and census with the if (2 % on
		// covertype; 2-CPU Xeon, 10 alternating rounds).
		touched, m := b.touched, 0
		for _, i := range idx {
			r := rank[i]
			s := size[r]
			touched[m] = r
			m += int(uint32(s-1) >> 31) // 1 when s == 0
			size[r] = s + 1
			hist[int(r)*k+labels[i]]++
		}
		order := b.ascending(touched[:m])
		clear(left)
		nl := 0
		for j, r := range order {
			h := hist[int(r)*k : int(r)*k+k]
			for c, cnt := range h {
				left[c] += int(cnt)
				h[c] = 0
			}
			nl += int(size[r])
			size[r] = 0
			if nl == n || nl < b.cfg.minLeaf || n-nl < b.cfg.minLeaf {
				continue // the last rank, or a side below minLeaf
			}
			g := weightedGini(left, counts, nl, n)
			if g < bestGini {
				bestGini = g
				feat = f
				v, next := value[r], value[order[j+1]]
				thr = v + (next-v)/2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

// perm is b.rng.Perm(n) in the builder's buffer: the same draws, no
// allocation.
func (b *treeBuilder) perm(n int) []int {
	m := b.feats[:n]
	for i := 0; i < n; i++ {
		j := b.rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	return m
}

// ascending orders the ranks a node touched (those with size > 0) by
// sorting them, or, when they are dense in the column's ranks between
// the lowest and the highest, by scanning that span for them.
func (b *treeBuilder) ascending(touched []int32) []int32 {
	lo, hi := touched[0], touched[0]
	for _, r := range touched[1:] {
		lo, hi = min(lo, r), max(hi, r)
	}
	if !scanRanks(len(touched), int(hi-lo)+1) {
		slices.Sort(touched)
		return touched
	}
	// Every rank is written at touched[m] and kept by counting it; a
	// touched rank still ahead keeps m below len(touched). As in the
	// fill, an `if s > 0` here costs 15–18 % on lending and census.
	m := 0
	for r, s := range b.size[lo : hi+1] {
		touched[m] = lo + int32(r)
		m += int(uint32(-s) >> 31) // 1 when s > 0
	}
	return touched[:m]
}

// scanRanks reports whether scanning a span of ranks for the m a node
// touched costs less than sorting the m. The factor is the low end of a
// flat optimum of BenchmarkForestTrain -cpu 1 over factors 1 to 64: 4, 8
// and 16 are level within run-to-run noise, 1 costs up to 15 % more and
// 64 up to 13 %; scanning always costs 15–19 % more and sorting always
// 48–107 %.
func scanRanks(m, span int) bool {
	return span <= 4*m*bits.Len(uint(m))
}

// weightedGini computes the size-weighted Gini impurity of a split given
// left class counts, total class counts, and the left/total sizes.
func weightedGini(left, total []int, nl, n int) float64 {
	nr := n - nl
	var gl, gr float64 // sum of squared class fractions
	for c, lc := range left {
		rc := total[c] - lc
		if nl > 0 {
			fl := float64(lc) / float64(nl)
			gl += fl * fl
		}
		if nr > 0 {
			fr := float64(rc) / float64(nr)
			gr += fr * fr
		}
	}
	giniL := 1 - gl
	giniR := 1 - gr
	return (float64(nl)*giniL + float64(nr)*giniR) / float64(n)
}

// validateInput checks training inputs shared by trees and forests.
func validateInput(cols [][]float64, labels []int, nClasses int) error {
	if len(cols) == 0 {
		return fmt.Errorf("rf: no feature columns")
	}
	n := len(cols[0])
	if n == 0 {
		return fmt.Errorf("rf: no training rows")
	}
	for i, c := range cols {
		if len(c) != n {
			return fmt.Errorf("rf: column %d has %d rows want %d", i, len(c), n)
		}
	}
	if len(labels) != n {
		return fmt.Errorf("rf: %d labels for %d rows", len(labels), n)
	}
	if nClasses < 2 {
		return fmt.Errorf("rf: need at least 2 classes, got %d", nClasses)
	}
	for i, l := range labels {
		if l < 0 || l >= nClasses {
			return fmt.Errorf("rf: label %d of row %d outside [0,%d)", l, i, nClasses)
		}
	}
	// A NaN has no place in the order splits are cut from, and an
	// infinite value makes an infinite midpoint that cuts nothing off.
	for f, c := range cols {
		for i, v := range c {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("rf: column %d row %d is %v; training values must be finite", f, i, v)
			}
		}
	}
	return nil
}
