package rf

import "math"

// FlatNode is one tree node in the derived walk layout: 16 bytes, four
// to a cache line. The left child is the next node (the builder emits
// trees in pre-order), so only the right child is stored. A leaf loops
// to itself — Threshold -Inf, Right = self — which lets a tree be walked
// for a fixed number of steps with no leaf test.
type FlatNode struct {
	Threshold float64
	Feature   int32
	Right     int32
}

// flatForest is the walk layout Forest.Predict and the exact explainer
// (through Forest.Flat) run on, derived from Forest.Trees (which stays
// the source of truth: it is what gob stores and what Tree.Predict
// walks). Node indices are forest-wide.
type flatForest struct {
	nodes []FlatNode
	class []int32 // class[i] is the label of leaf i; unused for internal nodes
	roots []int32 // one per laid-out tree
	depth []int32 // parallel to roots
	slow  []*Tree // trees that are not in pre-order; walked by Tree.Predict
}

// flatten derives the walk layout. It trusts nothing about the trees: a
// tree whose internal nodes do not all have Left == self+1 and a
// forward, in-range Right (a hand-assembled or hostile-gob tree) goes
// to slow and keeps the reference walk, so the fast walk never has to
// bound-check a child or detect a cycle.
func flatten(trees []*Tree) *flatForest {
	ff := &flatForest{}
	for _, t := range trees {
		d, ok := preorderDepth(t)
		if !ok || len(ff.nodes)+len(t.Nodes) > math.MaxInt32 {
			ff.slow = append(ff.slow, t)
			continue
		}
		base := int32(len(ff.nodes))
		ff.roots = append(ff.roots, base)
		ff.depth = append(ff.depth, d)
		for i := range t.Nodes {
			n := &t.Nodes[i]
			if n.Feature < 0 {
				ff.nodes = append(ff.nodes, FlatNode{Threshold: math.Inf(-1), Right: base + int32(i)})
				ff.class = append(ff.class, n.Class)
				continue
			}
			thr := n.Threshold
			switch {
			case thr == 0:
				thr = 0 // -0 - (+0) is -0, whose sign bit would send x = +0 right
			case math.IsNaN(thr):
				thr = math.Inf(-1) // x <= NaN is false for every x: always right
			}
			ff.nodes = append(ff.nodes, FlatNode{Threshold: thr, Feature: n.Feature, Right: base + n.Right})
			ff.class = append(ff.class, 0)
		}
	}
	return ff
}

// preorderDepth reports the tree's depth, and whether every internal
// node has its left child directly after it and its right child further
// on and in range — which the builder guarantees and which, all edges
// pointing forward, rules out cycles.
func preorderDepth(t *Tree) (int32, bool) {
	n := len(t.Nodes)
	if n == 0 {
		return 0, false
	}
	height := make([]int32, n)
	for i := n - 1; i >= 0; i-- {
		nd := &t.Nodes[i]
		if nd.Feature < 0 {
			continue
		}
		if int(nd.Left) != i+1 || int(nd.Right) <= i+1 || int(nd.Right) >= n {
			return 0, false
		}
		height[i] = 1 + max(height[nd.Left], height[nd.Right])
	}
	return height[0], true
}

// wellFormed reports whether t is a tree Train could have built: in
// pre-order with forward, in-range children (preorderDepth), so acyclic,
// and every leaf's class in [0, nClasses).
func (t *Tree) wellFormed(nClasses int) bool {
	if t == nil {
		return false
	}
	if _, ok := preorderDepth(t); !ok {
		return false
	}
	for _, n := range t.Nodes {
		if n.Feature < 0 && (n.Class < 0 || int(n.Class) >= nClasses) {
			return false
		}
	}
	return true
}

// step moves one level down from node i of a finite row: the sign bit
// of threshold - x is 1 exactly when x > threshold (for finite doubles
// x != y implies x - y != 0, and x == y gives +0), and the child is
// picked with a mask rather than an if, because the compiler will not
// emit a conditional move for a value that feeds a load address
// (golang/go#26306) and the branch it emits instead mispredicts at
// about every other level.
func step(nodes []FlatNode, i int32, x []float64) int32 {
	n := &nodes[i]
	goRight := int32(math.Float64bits(n.Threshold-x[n.Feature]) >> 63)
	left := i + 1
	return left ^ ((left ^ n.Right) & -goRight)
}

// group is how many trees tally walks together: that many independent
// load→compare chains are in flight at once.
const group = 8

// tally adds one vote per laid-out tree for finite row x; a tree
// shallower than the deepest of its group spins on its leaf meanwhile.
// With stopDecided it returns true after the first group that leaves
// the vote decided: the leader ahead of the runner-up by more than the
// trees not yet walked, the slow ones counted. The margin is strict, so
// the leader is the argmax of the full tally whatever the unwalked
// trees would have said, and a tie is never decided early — the
// lowest-index rule sees every vote of a tie.
func (ff *flatForest) tally(x []float64, votes []int, stopDecided bool) bool {
	nodes, class := ff.nodes, ff.class
	k := 0
	for ; k+group <= len(ff.roots); k += group {
		r, dp := ff.roots[k:k+group:k+group], ff.depth[k:k+group:k+group]
		i0, i1, i2, i3, i4, i5, i6, i7 := r[0], r[1], r[2], r[3], r[4], r[5], r[6], r[7]
		for d := max(dp[0], dp[1], dp[2], dp[3], dp[4], dp[5], dp[6], dp[7]); d > 0; d-- {
			i0 = step(nodes, i0, x)
			i1 = step(nodes, i1, x)
			i2 = step(nodes, i2, x)
			i3 = step(nodes, i3, x)
			i4 = step(nodes, i4, x)
			i5 = step(nodes, i5, x)
			i6 = step(nodes, i6, x)
			i7 = step(nodes, i7, x)
		}
		votes[class[i0]]++
		votes[class[i1]]++
		votes[class[i2]]++
		votes[class[i3]]++
		votes[class[i4]]++
		votes[class[i5]]++
		votes[class[i6]]++
		votes[class[i7]]++
		if stopDecided && decided(votes, len(ff.roots)-k-group+len(ff.slow)) {
			return true
		}
	}
	for ; k < len(ff.roots); k++ {
		i := ff.roots[k]
		for d := ff.depth[k]; d > 0; d-- {
			i = step(nodes, i, x)
		}
		votes[class[i]]++
	}
	return false
}

// decided reports whether the leading class is more votes ahead of the
// runner-up than there are votes left to cast.
func decided(votes []int, left int) bool {
	first, second := 0, 0
	for _, v := range votes {
		if v > first {
			first, second = v, first
		} else if v > second {
			second = v
		}
	}
	return first-second > left
}
