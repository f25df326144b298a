package exact

import (
	"math/rand"

	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/gbt"
	"shahin/internal/perturb"
	"shahin/internal/rf"
)

// reference is the walker this package ran before the hot/cold leaf
// rule: Lundberg's EXTEND/UNWIND recursion over a weighted path, on its
// own copy of the model's node arrays, with its own covers from the same
// background draw. It is kept as the oracle for ensembles too wide for
// BruteForce. One thing differs from the code it was: a split is taken
// with the model's predicate (NaN goes right), where it used x > t.
type reference struct {
	trees    [][]shNode
	gbt      bool
	nclasses int
	rate     float64
	bias     float64
	base     []float64
	arena    [][]pathElem
	visits   int64
}

// pathElem is one entry of the TreeSHAP unique path: the feature that
// split at this depth, the fraction of background cover that follows
// the split (z), the indicator that the explained tuple follows it (o),
// and the accumulated permutation weight (w).
type pathElem struct {
	feat int32
	z    float64
	o    float64
	w    float64
}

type shNode struct {
	feature   int32 // split attribute, -1 for leaves
	class     int32 // rf leaf class
	left      int32
	right     int32
	threshold float64
	value     float64 // gbt leaf value
	cover     float64 // background rows routed through this node
}

func newReference(st *dataset.Stats, cls rf.Classifier, cfg Config) *reference {
	cfg = cfg.withDefaults()
	e := &reference{}
	maxDepth := 0
	switch m := cls.(type) {
	case *rf.Forest:
		e.nclasses = m.NClasses
		e.rate = 1
		for _, t := range m.Trees {
			e.trees = append(e.trees, convertRF(t))
		}
	case *gbt.Model:
		e.gbt = true
		e.nclasses = 2
		e.rate = m.Rate
		e.bias = m.Bias
		for i := range m.Trees {
			e.trees = append(e.trees, convertGBT(&m.Trees[i]))
		}
	}
	for _, nodes := range e.trees {
		maxDepth = max(maxDepth, depthBelow(nodes, 0))
	}

	gen := perturb.NewGenerator(st, rand.New(rand.NewSource(cfg.Seed)))
	for b := 0; b < cfg.Background; b++ {
		row := gen.ForItemset(nil).Row
		for _, nodes := range e.trees {
			j := int32(0)
			for {
				nodes[j].cover++
				n := &nodes[j]
				if n.feature < 0 {
					break
				}
				if row[n.feature] <= n.threshold {
					j = n.left
				} else {
					j = n.right
				}
			}
		}
	}

	if e.gbt {
		e.base = []float64{e.bias}
	} else {
		e.base = make([]float64, e.nclasses)
	}
	nt := float64(len(e.trees))
	for _, nodes := range e.trees {
		root := nodes[0].cover
		for i := range nodes {
			switch {
			case nodes[i].feature >= 0 || root == 0:
			case e.gbt:
				e.base[0] += e.rate * nodes[i].value * nodes[i].cover / root
			default:
				e.base[nodes[i].class] += nodes[i].cover / root / nt
			}
		}
	}

	// One path row per recursion level. A path can hold at most one
	// element per ancestor split plus the sentinel, so depth+2 rows of
	// capacity depth+2 cover the deepest tree.
	e.arena = make([][]pathElem, maxDepth+2)
	for i := range e.arena {
		e.arena[i] = make([]pathElem, maxDepth+2)
	}
	return e
}

func depthBelow(nodes []shNode, j int32) int {
	if nodes[j].feature < 0 {
		return 0
	}
	return 1 + max(depthBelow(nodes, nodes[j].left), depthBelow(nodes, nodes[j].right))
}

func convertRF(t *rf.Tree) []shNode {
	nodes := make([]shNode, len(t.Nodes))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		nodes[i] = shNode{feature: n.Feature, class: n.Class, left: n.Left, right: n.Right, threshold: n.Threshold}
	}
	return nodes
}

func convertGBT(t *gbt.RegTree) []shNode {
	nodes := make([]shNode, len(t.Nodes))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		nodes[i] = shNode{feature: n.Feature, left: n.Left, right: n.Right, threshold: n.Threshold, value: n.Value}
	}
	return nodes
}

// explain is the old Explain with the target class given.
func (e *reference) explain(x []float64, target int) *explain.Attribution {
	phi := make([]float64, len(x))
	for _, nodes := range e.trees {
		e.walk(nodes, x, phi, int32(target), 0, nil, 0, 1, 1, -1)
	}
	if e.gbt {
		sign := 1.0
		if target == 0 {
			sign = -1
		}
		for i := range phi {
			phi[i] *= sign * e.rate
		}
		return &explain.Attribution{Weights: phi, Intercept: sign * e.base[0], Class: target}
	}
	nt := float64(len(e.trees))
	for i := range phi {
		phi[i] /= nt
	}
	return &explain.Attribution{Weights: phi, Intercept: e.base[target], Class: target}
}

// walk implements the TreeSHAP recursion over one tree. parent is the
// unique path accumulated above node j (it shrinks when a feature
// reappears, so it is passed explicitly rather than implied by depth);
// pz/po/pf describe the split that led here. Each level copies the
// parent path into its own arena row before extending, so unwinding
// never corrupts ancestors.
func (e *reference) walk(nodes []shNode, x, phi []float64, target int32, depth int, parent []pathElem, j int32, pz, po float64, pf int32) {
	e.visits++
	l := len(parent)
	m := e.arena[depth][:l+1]
	copy(m, parent)
	// Extend the path with the incoming split, redistributing the
	// permutation weights over the longer subsets.
	m[l] = pathElem{feat: pf, z: pz, o: po}
	if l == 0 {
		m[l].w = 1
	}
	for i := l - 1; i >= 0; i-- {
		m[i+1].w += po * m[i].w * float64(i+1) / float64(l+1)
		m[i].w = pz * m[i].w * float64(l-i) / float64(l+1)
	}

	n := &nodes[j]
	if n.feature < 0 {
		v := n.value
		if !e.gbt {
			if n.class == target {
				v = 1
			} else {
				v = 0
			}
		}
		for i := 1; i < len(m); i++ {
			phi[m[i].feat] += unwoundSum(m, i) * (m[i].o - m[i].z) * v
		}
		return
	}

	hot, cold := n.left, n.right
	if !(x[n.feature] <= n.threshold) {
		hot, cold = n.right, n.left
	}
	var hotZ, coldZ float64
	if n.cover > 0 {
		hotZ = nodes[hot].cover / n.cover
		coldZ = nodes[cold].cover / n.cover
	}
	// If this feature already split above, undo its previous extension
	// and fold its fractions into the new one (each feature appears on
	// the unique path at most once).
	iz, io := 1.0, 1.0
	if k := findFeat(m, n.feature); k >= 0 {
		iz, io = m[k].z, m[k].o
		m = unwind(m, k)
	}
	// A branch whose zero and one fractions both vanish zeroes every
	// path weight below it and contributes nothing; skip it.
	if hotZ*iz != 0 || io != 0 {
		e.walk(nodes, x, phi, target, depth+1, m, hot, hotZ*iz, io, n.feature)
	}
	if coldZ*iz != 0 {
		e.walk(nodes, x, phi, target, depth+1, m, cold, coldZ*iz, 0, n.feature)
	}
}

// findFeat returns the path index holding feature f, or -1. Index 0 is
// the sentinel root element (feat -1) and never matches.
func findFeat(m []pathElem, f int32) int {
	for i := 1; i < len(m); i++ {
		if m[i].feat == f {
			return i
		}
	}
	return -1
}

// unwoundSum returns the total permutation weight the path would carry
// with element i removed, without mutating the path. This is the leaf
// contribution weight for element i's feature.
func unwoundSum(m []pathElem, i int) float64 {
	ud := len(m) - 1
	one, zero := m[i].o, m[i].z
	total := 0.0
	if one != 0 {
		next := m[ud].w
		for j := ud - 1; j >= 0; j-- {
			tmp := next / (float64(j+1) * one)
			total += tmp
			next = m[j].w - tmp*zero*float64(ud-j)
		}
	} else if zero != 0 {
		for j := ud - 1; j >= 0; j-- {
			total += m[j].w / (zero * float64(ud-j))
		}
	}
	return total * float64(ud+1)
}

// unwind removes element k from the path, redistributing the
// permutation weights back over the shorter subsets, and returns the
// shortened path. It is the inverse of the extension in walk.
func unwind(m []pathElem, k int) []pathElem {
	ud := len(m) - 1
	one, zero := m[k].o, m[k].z
	next := m[ud].w
	for j := ud - 1; j >= 0; j-- {
		if one != 0 {
			tmp := m[j].w
			m[j].w = next * float64(ud+1) / (float64(j+1) * one)
			next = tmp - m[j].w*zero*float64(ud-j)/float64(ud+1)
		} else {
			m[j].w = m[j].w * float64(ud+1) / (zero * float64(ud-j))
		}
	}
	for j := k; j < ud; j++ {
		m[j].feat, m[j].z, m[j].o = m[j+1].feat, m[j+1].z, m[j+1].o
	}
	return m[:ud]
}
