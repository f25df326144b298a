// Package lime implements tabular LIME (Ribeiro, Singh, Guestrin, KDD
// 2016): perturb the tuple by sampling each attribute independently from
// the training distribution, label the perturbations with the black-box
// classifier, weight them by an exponential proximity kernel over the
// binary "same bin as the instance" encoding, and fit a weighted ridge
// surrogate whose coefficients are the explanation.
//
// The optional explain.Pool hook is Shahin's entry point (Algorithm 1 of
// the paper): pooled perturbations frozen on frequent itemsets the tuple
// contains are consumed first, and only the remainder of the budget is
// drawn fresh, into the explainer's scratch, and labelled.
package lime

import (
	"fmt"
	"math"
	"math/rand"

	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/linmodel"
	"shahin/internal/perturb"
	"shahin/internal/rf"
)

// The surrogate's fixed settings, LIME's tabular defaults.
const (
	// kernelScale sets the proximity kernel width: kernelScale·√p.
	kernelScale = 0.75
	// lambda is the surrogate's ridge penalty (sklearn Ridge(alpha=1)).
	lambda = 1.0
)

// Config controls a LIME explainer. Zero values select the defaults noted
// per field.
type Config struct {
	// NumSamples is the perturbation budget N per explanation
	// (default 1000, LIME's num_samples=5000 scaled to tabular practice).
	NumSamples int
	// MaxReuse caps the fraction of the budget served from the pool
	// (default 0.9). Keeping a fresh remainder preserves sample diversity
	// for the surrogate fit.
	MaxReuse float64
}

func (c Config) fill() Config {
	if c.NumSamples <= 0 {
		c.NumSamples = 1000
	}
	if c.MaxReuse <= 0 || c.MaxReuse > 1 {
		c.MaxReuse = 0.9
	}
	return c
}

// Explainer produces LIME attributions against a fixed classifier and
// training distribution. It is not safe for concurrent use: the surrogate
// fit and the draw scratch are reused from one explanation to the next.
type Explainer struct {
	cfg  Config
	prox []float64 // the proximity kernel at d = 0…p differing bins
	st   *dataset.Stats
	cls  rf.Classifier
	gen  *perturb.Generator

	fit      *linmodel.BinaryFit
	on       []int  // the sample being added: attributes in the tuple's bin
	noFreeze []bool // all false: classic LIME freezes nothing

	// The tuple's items and bins, and the one fresh draw in hand: its row
	// and bins.
	tItems      []dataset.Item
	tBins, bins []uint16
	row         []float64
}

// New builds a LIME explainer. rng drives all perturbation sampling.
func New(st *dataset.Stats, cls rf.Classifier, cfg Config, rng *rand.Rand) *Explainer {
	p := st.Schema.NumAttrs()
	return &Explainer{
		cfg:      cfg.fill(),
		prox:     proximity(p),
		st:       st,
		cls:      cls,
		gen:      perturb.NewGenerator(st, rng),
		fit:      linmodel.NewBinaryFit(p),
		on:       make([]int, p),
		noFreeze: make([]bool, p),
		tItems:   make([]dataset.Item, p),
		tBins:    make([]uint16, p),
		bins:     make([]uint16, p),
		row:      make([]float64, p),
	}
}

// Explain generates the LIME attribution for tuple t with no reuse
// (the sequential baseline).
func (e *Explainer) Explain(t []float64) (*explain.Attribution, error) {
	return e.ExplainWithPool(t, nil)
}

// ExplainWithPool generates the LIME attribution for t, serving as much of
// the budget as possible from the pool (Algorithm 1, lines 6–8) before
// drawing fresh samples over one another in scratch. Each sample is folded
// into the surrogate fit as it arrives; no design matrix is built.
func (e *Explainer) ExplainWithPool(t []float64, pool explain.Pool) (*explain.Attribution, error) {
	p := e.st.Schema.NumAttrs()
	if len(t) != p {
		return nil, fmt.Errorf("lime: tuple has %d attributes want %d", len(t), p)
	}
	target := e.cls.Predict(t)
	tItems := e.st.ItemizeRow(t, e.tItems[:0])
	tBins := perturb.BinsOf(tItems, e.tBins)
	e.fit.Reset()

	// The instance itself anchors the local fit (z = all ones), as in the
	// reference implementation.
	e.add(tBins, tBins, true)
	n := e.cfg.NumSamples

	// Reused, already-labelled perturbations first.
	if pool != nil {
		for _, s := range pool.ForTuple(tItems, e.ReuseCap()) {
			e.add(tBins, s.Bins, s.Label == target)
			n--
		}
	}

	// Fresh perturbations for the remaining budget: classic LIME sampling
	// (every attribute drawn independently from the training marginal).
	obs, _ := pool.(explain.Observer)
	for ; n > 0; n-- {
		e.gen.FillTuple(t, e.noFreeze, e.row, e.bins)
		label := e.cls.Predict(e.row)
		e.add(tBins, e.bins, label == target)
		if obs != nil {
			obs.Observe(perturb.Pooled{Bins: e.bins, Label: label})
		}
	}

	weights := make([]float64, p)
	intercept, err := e.fit.Solve(lambda, weights)
	if err != nil {
		return nil, fmt.Errorf("lime: surrogate fit: %w", err)
	}
	return &explain.Attribution{Weights: weights, Intercept: intercept, Class: target}, nil
}

// ReuseCap is the most pooled samples one explanation takes through
// ForTuple: MaxReuse of the budget. A batch that knows its tuples up front
// labels what each one's ForTuple reaches under this cap, and no more.
func (e *Explainer) ReuseCap() int { return int(e.cfg.MaxReuse * float64(e.cfg.NumSamples)) }

// add folds one labelled sample into the surrogate fit. Its interpretable
// representation is 1 on the attributes whose bin is the tuple's (both
// slices hold one bin per attribute, in attribute order), its target
// whether the classifier gave it the tuple's class.
func (e *Explainer) add(tBins, bins []uint16, sameClass bool) {
	// Every attribute is written at the cursor and the cursor moves only
	// past a match: a match is a coin flip the branch predictor loses.
	on, q := e.on[:len(tBins)], 0
	bins = bins[:len(tBins)]
	for a, b := range tBins {
		on[q] = a
		var match int
		if bins[a] == b {
			match = 1
		}
		q += match
	}
	y := 0.0
	if sameClass {
		y = 1
	}
	e.fit.Add(on[:q], y, e.kernel(len(tBins)-q))
}

// kernel is LIME's exponential proximity kernel over binary encodings,
// read from the table proximity builds.
//
//shahin:hotpath
func (e *Explainer) kernel(differing int) float64 {
	return e.prox[differing]
}

// proximity tabulates the kernel for p attributes at every d = 0…p:
// exp(-d² / width²), where d² is the number of attributes whose bin
// differs from the instance and width is kernelScale·√p.
func proximity(p int) []float64 {
	width := kernelScale * math.Sqrt(float64(p))
	prox := make([]float64, p+1)
	for d := range prox {
		prox[d] = math.Exp(-float64(d) / (width * width))
	}
	return prox
}
