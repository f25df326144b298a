// Package gbt implements gradient-boosted decision trees for binary
// classification with logistic loss (stochastic gradient boosting with
// Newton leaf values). Together with the random forest and naive Bayes it
// gives the experiments a spread of black-box models with very different
// decision surfaces, supporting the paper's claim that Shahin's speedups
// are classifier-independent.
package gbt

import (
	"fmt"
	"math"
	"math/rand"
	"sort"

	"shahin/internal/dataset"
	"shahin/internal/rf"
)

// Config controls training. Zero values select the noted defaults.
type Config struct {
	Rounds       int     // boosting rounds (default 50)
	LearningRate float64 // shrinkage ν (default 0.1)
	MaxDepth     int     // per-tree depth (default 3)
	MinLeaf      int     // minimum samples per leaf (default 5)
	Subsample    float64 // row subsampling per round (default 0.8)
	Seed         int64
}

func (c Config) fill() Config {
	if c.Rounds <= 0 {
		c.Rounds = 50
	}
	if c.LearningRate <= 0 || c.LearningRate > 1 {
		c.LearningRate = 0.1
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 3
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 5
	}
	if c.Subsample <= 0 || c.Subsample > 1 {
		c.Subsample = 0.8
	}
	return c
}

// Model is a fitted boosted ensemble for binary classification.
type Model struct {
	Bias  float64 // initial log-odds
	Trees []RegTree
	Rate  float64
}

var _ rf.Classifier = (*Model)(nil)

// Train fits the model on a labelled binary dataset.
func Train(d *dataset.Dataset, cfg Config) (*Model, error) {
	if d.Labels == nil {
		return nil, fmt.Errorf("gbt: training data has no labels")
	}
	if d.Schema.NumClasses() != 2 {
		return nil, fmt.Errorf("gbt: binary classification only, schema has %d classes", d.Schema.NumClasses())
	}
	n := d.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("gbt: empty training data")
	}
	cfg = cfg.fill()
	rng := rand.New(rand.NewSource(cfg.Seed))

	pos := 0
	for _, l := range d.Labels {
		pos += l
	}
	// Clamped so single-class data stays finite.
	p0 := math.Min(math.Max(float64(pos)/float64(n), 1e-6), 1-1e-6)
	m := &Model{Bias: math.Log(p0 / (1 - p0)), Rate: cfg.LearningRate}

	f := make([]float64, n) // current raw scores
	for i := range f {
		f[i] = m.Bias
	}
	grad := make([]float64, n)
	hess := make([]float64, n)
	for round := 0; round < cfg.Rounds; round++ {
		for i := 0; i < n; i++ {
			p := sigmoid(f[i])
			grad[i] = float64(d.Labels[i]) - p
			hess[i] = p * (1 - p)
		}
		idx := subsample(rng, n, cfg.Subsample)
		tree := growRegTree(d.Cols, grad, hess, idx, cfg.MaxDepth, cfg.MinLeaf)
		m.Trees = append(m.Trees, tree)
		row := make([]float64, d.NumAttrs())
		for i := 0; i < n; i++ {
			row = d.Row(i, row)
			f[i] += cfg.LearningRate * tree.predict(row)
		}
	}
	return m, nil
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

func subsample(rng *rand.Rand, n int, frac float64) []int {
	k := int(frac * float64(n))
	if k < 1 {
		k = 1
	}
	perm := rng.Perm(n)
	return perm[:k]
}

// NumClasses implements rf.Classifier.
func (m *Model) NumClasses() int { return 2 }

// Predict implements rf.Classifier.
func (m *Model) Predict(x []float64) int {
	if m.Score(x) > 0 {
		return 1
	}
	return 0
}

// Score returns the raw log-odds for x.
func (m *Model) Score(x []float64) float64 {
	s := m.Bias
	for i := range m.Trees {
		s += m.Rate * m.Trees[i].predict(x)
	}
	return s
}

// Prob returns P(class=1 | x).
func (m *Model) Prob(x []float64) float64 { return sigmoid(m.Score(x)) }

// Accuracy returns the fraction of rows classified correctly.
func (m *Model) Accuracy(d *dataset.Dataset) float64 {
	if d.NumRows() == 0 {
		return 0
	}
	correct := 0
	row := make([]float64, d.NumAttrs())
	for i := 0; i < d.NumRows(); i++ {
		row = d.Row(i, row)
		if m.Predict(row) == d.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(d.NumRows())
}

// NumTrees returns the number of boosting rounds fitted.
func (m *Model) NumTrees() int { return len(m.Trees) }

// RegTree is a regression tree in flat-array form fitting a Newton step:
// leaf value = Σ grad / (Σ hess + λ). It is exported so structure-aware
// explainers (internal/explain/exact) can walk the fitted trees.
type RegTree struct {
	Nodes []RegNode
}

// RegNode is one flat-array tree node; Feature -1 marks a leaf.
type RegNode struct {
	Feature   int32 // -1 for leaves
	Threshold float64
	Left      int32
	Right     int32
	Value     float64 // leaf value
}

func (t *RegTree) predict(x []float64) float64 {
	i := int32(0)
	for {
		nd := &t.Nodes[i]
		if nd.Feature < 0 {
			return nd.Value
		}
		if x[nd.Feature] <= nd.Threshold {
			i = nd.Left
		} else {
			i = nd.Right
		}
	}
}

const lambda = 1.0 // leaf regularisation

// growRegTree builds one tree on the subsampled indices, greedily
// maximising the gain of the Newton objective.
func growRegTree(cols [][]float64, grad, hess []float64, idx []int, maxDepth, minLeaf int) RegTree {
	b := &regBuilder{cols: cols, grad: grad, hess: hess, maxDepth: maxDepth, minLeaf: minLeaf}
	b.build(idx, 0)
	return RegTree{Nodes: b.nodes}
}

type regBuilder struct {
	cols       [][]float64
	grad, hess []float64
	maxDepth   int
	minLeaf    int
	nodes      []RegNode
}

func (b *regBuilder) build(idx []int, depth int) int32 {
	var sumG, sumH float64
	for _, i := range idx {
		sumG += b.grad[i]
		sumH += b.hess[i]
	}
	leafValue := sumG / (sumH + lambda)

	if depth >= b.maxDepth || len(idx) < 2*b.minLeaf {
		return b.leaf(leafValue)
	}
	feat, thr, ok := b.bestSplit(idx, sumG, sumH)
	if !ok {
		return b.leaf(leafValue)
	}
	lo, hi := 0, len(idx)
	for lo < hi {
		if b.cols[feat][idx[lo]] <= thr {
			lo++
		} else {
			hi--
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
	}
	if lo == 0 || lo == len(idx) {
		return b.leaf(leafValue)
	}
	self := int32(len(b.nodes))
	b.nodes = append(b.nodes, RegNode{Feature: int32(feat), Threshold: thr})
	left := b.build(idx[:lo], depth+1)
	right := b.build(idx[lo:], depth+1)
	b.nodes[self].Left = left
	b.nodes[self].Right = right
	return self
}

func (b *regBuilder) leaf(value float64) int32 {
	i := int32(len(b.nodes))
	b.nodes = append(b.nodes, RegNode{Feature: -1, Value: value})
	return i
}

// bestSplit scans every feature for the threshold with the highest Newton
// gain: G_L²/(H_L+λ) + G_R²/(H_R+λ) − G²/(H+λ).
func (b *regBuilder) bestSplit(idx []int, sumG, sumH float64) (feat int, thr float64, ok bool) {
	parent := sumG * sumG / (sumH + lambda)
	bestGain := 1e-12
	order := make([]int, len(idx))
	for f := range b.cols {
		col := b.cols[f]
		copy(order, idx)
		sort.Slice(order, func(i, j int) bool { return col[order[i]] < col[order[j]] })
		var gl, hl float64
		for i := 0; i < len(order)-1; i++ {
			gl += b.grad[order[i]]
			hl += b.hess[order[i]]
			v, next := col[order[i]], col[order[i+1]]
			if v == next {
				continue
			}
			nl := i + 1
			if nl < b.minLeaf || len(order)-nl < b.minLeaf {
				continue
			}
			gr, hr := sumG-gl, sumH-hl
			gain := gl*gl/(hl+lambda) + gr*gr/(hr+lambda) - parent
			if gain > bestGain {
				bestGain = gain
				feat = f
				thr = v + (next-v)/2
				ok = true
			}
		}
	}
	return feat, thr, ok
}
