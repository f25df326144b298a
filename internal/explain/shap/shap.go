// Package shap implements KernelSHAP (Lundberg & Lee, NeurIPS 2017) for
// black-box classifiers over tabular data: sample feature coalitions in
// proportion to the SHAP kernel, impute the complement from the training
// distribution, label the imputed perturbations with the classifier, and
// solve the constrained weighted least squares whose solution approximates
// the Shapley values of each attribute.
//
// The explain.Pool hook implements Algorithm 3 of the Shahin paper: when a
// sampled coalition is a superset of a cached frequent itemset the tuple
// contains, an already-labelled pooled perturbation is consumed instead of
// invoking the classifier.
package shap

import (
	"fmt"
	"math/rand"

	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/perturb"
	"shahin/internal/rf"
	"shahin/internal/sample"
)

// The regression's fixed settings.
const (
	// ridge is a tiny stabiliser added to the WLS normal matrix diagonal.
	ridge = 1e-6
	// maxReuse caps the fraction of the coalition budget served from the
	// pool. A fresh remainder keeps coalition diversity.
	maxReuse = 0.9
)

// Config controls a KernelSHAP explainer.
type Config struct {
	// NumSamples is the number of sampled coalitions M (default 1024).
	NumSamples int
	// BaseSamples is how many empty-coalition perturbations estimate the
	// base rate E[f] (default 100).
	BaseSamples int
	// UniformSizes disables the SHAP-kernel-proportional coalition size
	// sampling (Equation 1) in favour of uniform sizes. Exists for the
	// A2 ablation; keep it off in production.
	UniformSizes bool
}

func (c Config) fill() Config {
	if c.NumSamples <= 0 {
		c.NumSamples = 1024
	}
	if c.BaseSamples <= 0 {
		c.BaseSamples = 100
	}
	return c
}

// Explainer computes Shapley-value attributions. It is not safe for
// concurrent use.
type Explainer struct {
	cfg Config
	st  *dataset.Stats
	cls rf.Classifier
	gen *perturb.Generator
	rng *rand.Rand

	sizeSampler *sample.Alias // coalition sizes 1..m-1 ∝ SHAP kernel mass

	// Scratch one explanation after another reuses: the regression, the
	// coalition draw's permutation (the identity between draws) and swap
	// log, the freeze flags, frozen items, tuple's items and bins, and the
	// fresh draw's row and bins.
	fit         *fit
	perm, swaps []int
	freeze      []bool
	required    dataset.Itemset
	tItems      []dataset.Item
	tBins, bins []uint16
	row         []float64

	// baseRate caches E[1{C(x)=class}] under the product marginal: a
	// tuple-independent invariant (paper §3.4), computed once per class.
	baseRate  []float64
	haveBase  []bool
	basePulls int64 // classifier invocations spent on base rates
}

// New builds a KernelSHAP explainer.
func New(st *dataset.Stats, cls rf.Classifier, cfg Config, rng *rand.Rand) *Explainer {
	m := st.Schema.NumAttrs()
	e := &Explainer{
		cfg:      cfg.fill(),
		st:       st,
		cls:      cls,
		gen:      perturb.NewGenerator(st, rng),
		rng:      rng,
		baseRate: make([]float64, cls.NumClasses()),
		haveBase: make([]bool, cls.NumClasses()),
	}
	if m >= 2 {
		// P(|S| = s) ∝ π(m,s)·C(m,s) = (m-1)/(s(m-s)); this is the
		// "sample coalition sizes by kernel weight" optimisation the paper
		// adopts (Equation 1). The uniform alternative exists only for
		// the ablation study.
		w := make([]float64, m-1)
		for s := 1; s < m; s++ {
			if e.cfg.UniformSizes {
				w[s-1] = 1
			} else {
				w[s-1] = float64(m-1) / (float64(s) * float64(m-s))
			}
		}
		e.sizeSampler = sample.MustAlias(w)

		e.fit = newFit(m, e.cfg.NumSamples)
		e.perm, e.swaps = make([]int, m), make([]int, m)
		for a := range e.perm {
			e.perm[a] = a
		}
		e.freeze = make([]bool, m)
		e.required = make(dataset.Itemset, m)
		e.tItems = make([]dataset.Item, m)
		e.tBins, e.bins = make([]uint16, m), make([]uint16, m)
		e.row = make([]float64, m)
	}
	return e
}

// KernelWeight returns the SHAP kernel π(m, s) from Equation 1 of the
// paper, for subset size s of m features.
func KernelWeight(m, s int) float64 {
	if s <= 0 || s >= m {
		return 0
	}
	return float64(m-1) / (binom(m, s) * float64(s) * float64(m-s))
}

func binom(n, k int) float64 {
	if k > n-k {
		k = n - k
	}
	out := 1.0
	for i := 0; i < k; i++ {
		out = out * float64(n-i) / float64(i+1)
	}
	return out
}

// Explain computes the attribution for t without reuse.
func (e *Explainer) Explain(t []float64) (*explain.Attribution, error) {
	return e.ExplainWithPool(t, nil)
}

// ExplainWithPool computes the attribution for t, consuming pooled
// perturbations where a coalition admits one and scratch draws elsewhere.
func (e *Explainer) ExplainWithPool(t []float64, pool explain.Pool) (*explain.Attribution, error) {
	m := e.st.Schema.NumAttrs()
	if len(t) != m {
		return nil, fmt.Errorf("shap: tuple has %d attributes want %d", len(t), m)
	}
	if m < 2 {
		return nil, fmt.Errorf("shap: need at least 2 attributes, have %d", m)
	}
	target := e.cls.Predict(t)
	tItems := e.st.ItemizeRow(t, e.tItems[:0])
	tBins := perturb.BinsOf(tItems, e.tBins)
	phi0 := e.base(target)
	const fx = 1.0 // f(t) = 1{C(t)=target} by construction

	// Coalition masks use the bin-agreement convention for discretised
	// tabular data: z_a = 1 when the perturbation agrees with the tuple's
	// bin on attribute a, whether because a was frozen or because the
	// imputed value landed in the same bin. This makes pooled and fresh
	// samples exchangeable.
	e.fit.begin(phi0, fx)

	// Algorithm 3, lines 7–8: pooled perturbations of frequent itemsets
	// the tuple contains fill the budget first, already labelled.
	if pool != nil {
		for _, s := range pool.ForTuple(tItems, e.ReuseCap()) {
			e.fit.add(tBins, s.Bins, s.Label == target)
		}
	}

	// Remaining budget: sample coalition sizes by SHAP-kernel mass, and
	// before paying a classifier call check whether the coalition is a
	// superset of a pooled itemset with a matching cached perturbation
	// (Algorithm 3, lines 9–13).
	obs, _ := pool.(explain.Observer)
	for e.fit.n < e.cfg.NumSamples {
		required := e.drawCoalition(tItems, 1+e.sizeSampler.Draw(e.rng))
		if pool != nil {
			if got := pool.ForItemset(required, 1); len(got) == 1 {
				e.fit.add(tBins, got[0].Bins, got[0].Label == target)
				continue
			}
		}
		e.gen.FillTuple(t, e.freeze, e.row, e.bins)
		label := e.cls.Predict(e.row)
		if obs != nil {
			obs.Observe(perturb.Pooled{Bins: e.bins, Label: label})
		}
		e.fit.add(tBins, e.bins, label == target)
	}

	phi := make([]float64, m)
	if err := e.fit.solve(ridge, phi); err != nil {
		return nil, fmt.Errorf("shap: %w", err)
	}
	return &explain.Attribution{Weights: phi, Intercept: phi0, Class: target}, nil
}

// ReuseCap is the most pooled samples one explanation takes through
// ForTuple: maxReuse of the coalition budget. A batch that knows its
// tuples up front labels what each one's ForTuple reaches under this cap,
// and no more.
func (e *Explainer) ReuseCap() int { return int(maxReuse * float64(e.cfg.NumSamples)) }

// drawCoalition freezes size attributes chosen uniformly — the ones
// sample.UniformIndices(e.rng, m, size) would return — and lists the
// tuple's items on them, ascending by attribute, in scratch the next
// draw overwrites.
func (e *Explainer) drawCoalition(tItems []dataset.Item, size int) dataset.Itemset {
	pick(e.rng, e.perm, e.swaps, size)
	clear(e.freeze)
	for _, a := range e.perm[:size] {
		e.freeze[a] = true
	}
	unpick(e.perm, e.swaps, size)
	// Write at the cursor, advance by the flag: a frozen attribute is a
	// coin flip no branch predictor learns.
	k := 0
	for a, frozen := range e.freeze {
		e.required[k] = tItems[a]
		var kept int
		if frozen {
			kept = 1
		}
		k += kept
	}
	return e.required[:k]
}

// base returns the cached base rate for a class, measuring it on first
// use with BaseSamples empty-coalition perturbations.
func (e *Explainer) base(class int) float64 {
	if e.haveBase[class] {
		return e.baseRate[class]
	}
	hits := 0
	for i := 0; i < e.cfg.BaseSamples; i++ {
		e.gen.FillItemset(nil, e.row, nil)
		if e.cls.Predict(e.row) == class {
			hits++
		}
		e.basePulls++
	}
	e.baseRate[class] = float64(hits) / float64(e.cfg.BaseSamples)
	e.haveBase[class] = true
	return e.baseRate[class]
}

// BaseInvocations reports the classifier calls spent estimating base
// rates (for overhead accounting).
func (e *Explainer) BaseInvocations() int64 { return e.basePulls }
