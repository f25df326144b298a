// Package sshap implements Sampling Shapley (Štrumbelj & Kononenko,
// "Explaining prediction models and individual predictions with feature
// contributions", KAIS 2014 — reference [34] of the Shahin paper): Monte
// Carlo estimation of Shapley values by walking random feature
// permutations and accumulating marginal contributions.
//
// It exists to substantiate the paper's §3.4 claim that Shahin's
// materialise-and-reuse principles generalise beyond LIME / Anchor /
// KernelSHAP: the same explain.Pool serves this explainer too. Two of the
// paper's optimisation principles apply directly — the empty-coalition
// value is a tuple-independent invariant (cached like SHAP's base rate),
// and small prefix coalitions reuse pooled perturbations. Because most of
// a permutation walk consists of large coalitions that no pool can serve,
// the attainable speedup is structurally smaller than for the three paper
// algorithms; the ext-sshap experiment quantifies exactly that.
package sshap

import (
	"fmt"
	"math/rand"

	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/perturb"
	"shahin/internal/rf"
)

// Config controls a Sampling-Shapley explainer.
type Config struct {
	// Permutations is the number of Monte Carlo permutations K
	// (default 20; each costs about one classifier call per attribute).
	Permutations int
	// BaseSamples estimates the empty-coalition value (default 100).
	BaseSamples int
}

func (c Config) fill() Config {
	if c.Permutations <= 0 {
		c.Permutations = 20
	}
	if c.BaseSamples <= 0 {
		c.BaseSamples = 100
	}
	return c
}

// Explainer estimates Shapley values by permutation sampling. Not safe
// for concurrent use.
type Explainer struct {
	cfg Config
	st  *dataset.Stats
	cls rf.Classifier
	gen *perturb.Generator
	rng *rand.Rand

	baseRate  []float64
	haveBase  []bool
	basePulls int64
}

// New builds a Sampling-Shapley explainer.
func New(st *dataset.Stats, cls rf.Classifier, cfg Config, rng *rand.Rand) *Explainer {
	return &Explainer{
		cfg:      cfg.fill(),
		st:       st,
		cls:      cls,
		gen:      perturb.NewGenerator(st, rng),
		rng:      rng,
		baseRate: make([]float64, cls.NumClasses()),
		haveBase: make([]bool, cls.NumClasses()),
	}
}

// Explain estimates the attribution without reuse.
func (e *Explainer) Explain(t []float64) (*explain.Attribution, error) {
	return e.ExplainWithPool(t, nil)
}

// ExplainWithPool estimates the attribution, reusing pooled labels for
// the small prefix coalitions a pool can actually serve.
func (e *Explainer) ExplainWithPool(t []float64, pool explain.Pool) (*explain.Attribution, error) {
	m := e.st.Schema.NumAttrs()
	if len(t) != m {
		return nil, fmt.Errorf("sshap: tuple has %d attributes want %d", len(t), m)
	}
	target := e.cls.Predict(t)
	tItems := e.st.ItemizeRow(t, nil)
	phi0 := e.base(target)

	phi := make([]float64, m)
	x := make([]float64, m)
	required := make(dataset.Itemset, 0, m)
	for k := 0; k < e.cfg.Permutations; k++ {
		perm := e.rng.Perm(m)
		// The chain starts at the empty coalition, whose value is the
		// cached invariant base rate, and walks toward the full tuple,
		// whose value is 1 by construction — so neither endpoint costs a
		// classifier call.
		bg := e.gen.ForItemset(nil)
		copy(x, bg.Row)
		prev := phi0
		required = required[:0]
		for i, a := range perm {
			x[a] = t[a]
			required = insertSorted(required, tItems[a])

			var cur float64
			switch {
			case i == m-1:
				cur = 1 // v(all features) = 1{C(t)=target} = 1
			case pool != nil && i < dataset.MaxItemsetLen+2:
				if got := pool.ForItemset(required, 1); len(got) == 1 {
					cur = indicator(got[0].Label == target)
					break
				}
				fallthrough
			default:
				cur = indicator(e.cls.Predict(x) == target)
			}
			phi[a] += cur - prev
			prev = cur
		}
	}
	for a := range phi {
		phi[a] /= float64(e.cfg.Permutations)
	}
	return &explain.Attribution{Weights: phi, Intercept: phi0, Class: target}, nil
}

// base measures (once per class) the empty-coalition value: the
// probability that a fully random perturbation is predicted the class.
func (e *Explainer) base(class int) float64 {
	if e.haveBase[class] {
		return e.baseRate[class]
	}
	hits := 0
	row := make([]float64, e.st.Schema.NumAttrs())
	for i := 0; i < e.cfg.BaseSamples; i++ {
		e.gen.FillItemset(nil, row)
		if e.cls.Predict(row) == class {
			hits++
		}
		e.basePulls++
	}
	e.baseRate[class] = float64(hits) / float64(e.cfg.BaseSamples)
	e.haveBase[class] = true
	return e.baseRate[class]
}

// BaseInvocations reports the classifier calls spent on base rates.
func (e *Explainer) BaseInvocations() int64 { return e.basePulls }

func indicator(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// insertSorted inserts it into the canonical itemset (it is never already
// present: permutations visit each attribute once).
func insertSorted(is dataset.Itemset, it dataset.Item) dataset.Itemset {
	i := len(is)
	is = append(is, it)
	for i > 0 && is[i-1] > it {
		is[i] = is[i-1]
		i--
	}
	is[i] = it
	return is
}
