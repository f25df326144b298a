// Package anchor implements the Anchor explanation algorithm (Ribeiro,
// Singh, Guestrin, AAAI 2018) for tabular data: a beam search over
// predicate rules built from the tuple's (discretised) attribute values,
// rule precision estimated by a KL-LUCB bandit over rule-consistent
// perturbations, whose selections end once their (ε, δ) test is out of
// reach, and coverage measured against a data sample. A rule accepted
// without that test, or the fallback when none is accepted, is Unverified.
//
// The Shahin adaptations (paper §3.2) enter through two shared caches:
// an invariant cache memoising each rule's precision trials and coverage
// across the batch, and a perturbation repository whose samples bootstrap
// superset rules' precision; fresh per-tuple caches give sequential Anchor.
package anchor

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"shahin/internal/cache"
	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/mab"
	"shahin/internal/perturb"
	"shahin/internal/rf"
	"shahin/internal/sample"
)

// The search's fixed settings, the reference implementation's.
const (
	precision     = 0.95                  // target precision τ
	eps           = 0.1                   // bandit tolerance ε
	delta         = 0.05                  // bandit failure probability δ
	beamWidth     = 1                     // candidates kept per rule size
	maxPredicates = dataset.MaxItemsetLen // longest rule
)

// Config controls an Anchor explainer's budgets. Zero values select the
// noted defaults.
type Config struct {
	BatchPulls   int // perturbations per bandit pull (default 20)
	MaxPulls     int // pulls per selection; trials per rule in verify, cached and bootstrapped too (default 5000)
	StorePerRule int // perturbations retained per rule for reuse (default 100, the paper's τ)
}

func (c Config) fill() Config {
	if c.BatchPulls <= 0 {
		c.BatchPulls = 20
	}
	if c.MaxPulls <= 0 {
		c.MaxPulls = 5000
	}
	if c.StorePerRule <= 0 {
		c.StorePerRule = 100
	}
	return c
}

// Shared is the batch-level state Shahin threads through every
// explanation: the rule-invariant cache and the labelled-perturbation
// repository. Sequential Anchor uses a fresh Shared per tuple.
type Shared struct {
	Inv  *cache.Invariants
	Repo *cache.Repo
}

// NewShared creates an empty shared state for a classifier with nClasses
// classes and the given repository byte budget (<= 0 for unbounded).
func NewShared(nClasses int, repoBudget int64) *Shared {
	return &Shared{Inv: cache.NewInvariants(nClasses), Repo: cache.NewRepo(repoBudget)}
}

// Explainer runs Anchor against a fixed classifier and training
// distribution. It is not safe for concurrent use.
type Explainer struct {
	cfg     Config
	st      *dataset.Stats
	cls     rf.Classifier
	gen     *perturb.Generator
	covRows []dataset.Itemset
	scratch []float64 // the row each pull's perturbation is labelled in
	hist    []int     // a pull's predicted-class histogram
	tested  []bool    // extendBeam's scratch: the attributes a rule tests

	// pull is (*ruleArm).pull. It is a field only so that the
	// byte-identity test can run the same search over the Pull that
	// allocated every perturbation, which it keeps as the reference.
	pull func(a *ruleArm, n int) int
}

// New builds an Anchor explainer. covRows is the itemised data sample
// coverage is measured against (see CoverageRows); rng drives all
// perturbation sampling.
func New(st *dataset.Stats, cls rf.Classifier, covRows []dataset.Itemset, cfg Config, rng *rand.Rand) *Explainer {
	return &Explainer{
		cfg:     cfg.fill(),
		st:      st,
		cls:     cls,
		gen:     perturb.NewGenerator(st, rng),
		covRows: covRows,
		scratch: make([]float64, st.Schema.NumAttrs()),
		hist:    make([]int, cls.NumClasses()),
		tested:  make([]bool, st.Schema.NumAttrs()),
		pull:    (*ruleArm).pull,
	}
}

// SetCoverageRows replaces the coverage sample, for callers whose sample
// is only known — or keeps changing — after construction. Coverages
// already memoised in a Shared keep the value they were computed with.
func (e *Explainer) SetCoverageRows(rows []dataset.Itemset) { e.covRows = rows }

// CoverageRows itemises up to maxRows uniformly sampled rows of d for use
// as an Explainer's coverage sample.
func CoverageRows(st *dataset.Stats, d *dataset.Dataset, maxRows int, rng *rand.Rand) []dataset.Itemset {
	idx := sample.UniformIndices(rng, d.NumRows(), maxRows)
	out := make([]dataset.Itemset, len(idx))
	row := make([]float64, d.NumAttrs())
	for i, ri := range idx {
		row = d.Row(ri, row)
		out[i] = append(dataset.Itemset(nil), st.ItemizeRow(row, nil)...)
	}
	return out
}

// Explain runs sequential Anchor (fresh caches) for tuple t.
func (e *Explainer) Explain(t []float64) (*explain.Rule, error) {
	return e.ExplainShared(t, NewShared(e.cls.NumClasses(), 0))
}

// ExplainShared explains t using (and updating) the given shared state.
func (e *Explainer) ExplainShared(t []float64, sh *Shared) (*explain.Rule, error) {
	p := e.st.Schema.NumAttrs()
	if len(t) != p {
		return nil, fmt.Errorf("anchor: tuple has %d attributes want %d", len(t), p)
	}
	if sh == nil {
		sh = NewShared(e.cls.NumClasses(), 0)
	}
	target := e.cls.Predict(t)
	tItems := e.st.ItemizeRow(t, nil)

	beam := []dataset.Itemset{nil} // start from the empty rule
	var fallback *explain.Rule     // best-precision rule if none verifies

	for size := 1; size <= maxPredicates; size++ {
		cands := e.extendBeam(beam, tItems)
		if len(cands) == 0 {
			break
		}
		arms := make([]mab.Arm, len(cands))
		prior := make([]mab.Counts, len(cands))
		results := make([]*cache.RuleResult, len(cands))
		for i, cand := range cands {
			rr, known := sh.Inv.Lookup(cand.Key())
			if !known {
				e.bootstrap(cand, rr, sh.Repo)
			}
			results[i] = rr
			arms[i] = &ruleArm{e: e, sh: sh, items: cand, rr: rr, target: target}
			prior[i] = mab.Counts{Pulls: rr.Pulls, Successes: rr.ClassCounts[target]}
		}

		// Fast path (paper §3.2): a memoised rule whose cached trials
		// already clear the precision threshold anchors every tuple that
		// contains it — no bandit, no classifier calls.
		var cached *explain.Rule
		for i, cand := range cands {
			rr := results[i]
			if rr.Pulls < e.cfg.BatchPulls {
				continue
			}
			if accepts(rr.Precision(target), rr.Pulls, verifyBeta(1)) {
				cov := e.coverage(cand, rr)
				if cached == nil || cov > cached.Coverage {
					cached = &explain.Rule{
						Items:     cand,
						Class:     target,
						Precision: rr.Precision(target),
						Coverage:  cov,
					}
				}
			}
		}
		if cached != nil {
			return cached, nil
		}
		sel, _, err := mab.TopN(arms, beamWidth, mab.Config{
			Eps:      eps,
			Delta:    delta,
			Batch:    e.cfg.BatchPulls,
			MaxPulls: e.cfg.MaxPulls,
			Prior:    prior,
		})
		if err != nil {
			return nil, fmt.Errorf("anchor: beam selection: %w", err)
		}

		// Verify selected candidates against the precision threshold,
		// preferring (at this smallest viable size) the best coverage.
		var accepted *explain.Rule
		beam = beam[:0]
		for _, ci := range sel {
			cand, rr := cands[ci], results[ci]
			beam = append(beam, cand)
			if ok, unverified := e.verify(cand, rr, target, sh); ok {
				cov := e.coverage(cand, rr)
				if accepted == nil || cov > accepted.Coverage {
					accepted = &explain.Rule{
						Items:      cand,
						Class:      target,
						Precision:  rr.Precision(target),
						Coverage:   cov,
						Unverified: unverified,
					}
				}
			}
			prec := rr.Precision(target)
			if fallback == nil || prec > fallback.Precision {
				fallback = &explain.Rule{
					Items:      cand,
					Class:      target,
					Precision:  prec,
					Coverage:   e.coverage(cand, rr),
					Unverified: true,
				}
			}
		}
		if accepted != nil {
			return accepted, nil // smallest rule size wins (paper §3.2)
		}
	}
	if fallback == nil {
		return nil, fmt.Errorf("anchor: no candidate rules for tuple")
	}
	return fallback, nil
}

// extendBeam returns all distinct one-item extensions of the beam rules
// with items of the tuple whose attribute the rule does not yet test. The
// extensions of one rule are distinct by their new attribute; a later
// rule's are checked against those before them.
func (e *Explainer) extendBeam(beam []dataset.Itemset, tItems []dataset.Item) []dataset.Itemset {
	var out []dataset.Itemset
	for r, rule := range beam {
		for _, it := range rule {
			e.tested[it.Attr()] = true
		}
		for _, it := range tItems {
			if e.tested[it.Attr()] {
				continue
			}
			ext := insertItem(rule, it)
			if r == 0 || !slices.ContainsFunc(out, func(o dataset.Itemset) bool { return slices.Equal(o, ext) }) {
				out = append(out, ext)
			}
		}
		for _, it := range rule {
			e.tested[it.Attr()] = false
		}
	}
	return out
}

// insertItem returns rule ∪ {it} in canonical order.
func insertItem(rule dataset.Itemset, it dataset.Item) dataset.Itemset {
	out := make(dataset.Itemset, 0, len(rule)+1)
	placed := false
	for _, r := range rule {
		if !placed && it < r {
			out = append(out, it)
			placed = true
		}
		out = append(out, r)
	}
	if !placed {
		out = append(out, it)
	}
	return out
}

// bootstrap seeds a fresh rule's trials by scanning the repository entries
// of its immediate sub-rules for samples that also satisfy the new rule —
// the paper's "bootstrap the computation of precision for candidate rules
// containing a superset of frequent itemsets". No classifier calls occur.
func (e *Explainer) bootstrap(rule dataset.Itemset, rr *cache.RuleResult, repo *cache.Repo) {
	if len(rule) < 1 {
		return
	}
	hist := make([]int, e.cls.NumClasses())
	sub := make(dataset.Itemset, 0, len(rule)-1)
	any := false
	for skip := range rule {
		sub = sub[:0]
		for i, it := range rule {
			if i != skip {
				sub = append(sub, it)
			}
		}
		samples, ok := repo.Get(sub.Key())
		if !ok {
			continue
		}
		for i := range samples {
			if samples[i].Label >= 0 && perturb.MatchesBins(rule, samples[i].Bins) {
				hist[samples[i].Label]++
				any = true
			}
		}
	}
	if any {
		rr.AddTrials(hist)
	}
}

// verify decides whether the rule's precision clears the threshold with
// bandit confidence, pulling more rule-consistent perturbations as needed.
// Acceptance follows the Anchor paper: LB > τ − ε accepts, UB < τ − ε
// rejects; at the budget it accepts on the mean alone and says so. A mean
// below τ − ε whose UB could not drop under it by the budget's last check
// is rejected at once, as the budget would; at or above τ − ε only more
// pulls can turn the budget's answer into a proof, so it pulls on.
func (e *Explainer) verify(rule dataset.Itemset, rr *cache.RuleResult, target int, sh *Shared) (ok, unverified bool) {
	arm := &ruleArm{e: e, sh: sh, items: rule, rr: rr, target: target}
	batch := e.cfg.BatchPulls
	for round := 1; ; round++ {
		mean, beta := rr.Precision(target), verifyBeta(round)
		if accepts(mean, rr.Pulls, beta) {
			return true, false
		}
		if rejects(mean, rr.Pulls, beta) {
			return false, false
		}
		left := (e.cfg.MaxPulls - rr.Pulls + batch - 1) / batch // rounds to the last check
		if left <= 0 {
			return mean >= precision-eps, true
		}
		if mean < precision-eps && !rejects(mean, rr.Pulls+left*batch, verifyBeta(round+left)) {
			return false, true
		}
		arm.Pull(batch)
	}
}

// accepts and rejects are the precision test at n trials of the given
// mean. LB ≤ mean ≤ UB, so each bisects only when the mean lies on the
// side of τ − ε its bound could pass.
func accepts(mean float64, n int, beta float64) bool {
	return mean > precision-eps && mab.LowerBound(mean, n, beta) > precision-eps
}

func rejects(mean float64, n int, beta float64) bool {
	return mean < precision-eps && mab.UpperBound(mean, n, beta) < precision-eps
}

// verifyBeta is the single-arm KL-LUCB exploration rate:
// log(405.5 · t^1.1 / δ).
func verifyBeta(round int) float64 {
	t := float64(round)
	if t < 1 {
		t = 1
	}
	return math.Log(405.5 * math.Pow(t, 1.1) / delta)
}

// coverage returns (computing and memoising on first use) the fraction of
// the coverage sample satisfying the rule.
func (e *Explainer) coverage(rule dataset.Itemset, rr *cache.RuleResult) float64 {
	if rr.HasCoverage {
		return rr.Coverage
	}
	if len(e.covRows) == 0 {
		rr.HasCoverage = true
		rr.Coverage = 0
		return 0
	}
	hits := 0
	for _, row := range e.covRows {
		if rule.ContainsAll(row) {
			hits++
		}
	}
	rr.Coverage = float64(hits) / float64(len(e.covRows))
	rr.HasCoverage = true
	return rr.Coverage
}

// ruleArm adapts a candidate rule to the bandit Arm interface: each pull
// generates rule-consistent perturbations, labels them with the
// classifier, stores up to StorePerRule of them in the repository for
// later bootstrap/reuse, and folds the trials into the shared invariant
// cache.
type ruleArm struct {
	e      *Explainer
	sh     *Shared
	items  dataset.Itemset
	rr     *cache.RuleResult
	target int
}

// Pull implements mab.Arm.
func (a *ruleArm) Pull(n int) int { return a.e.pull(a, n) }

// guesser is a classifier that may answer a prediction with a guess
// rather than the model's label, and counts the guesses it has given.
type guesser interface{ Guesses() int64 }

// guesses is how many labels the classifier has guessed so far; 0 for
// one that never guesses.
func (e *Explainer) guesses() int64 {
	if g, ok := e.cls.(guesser); ok {
		return g.Guesses()
	}
	return 0
}

// pull draws and labels n perturbations, each into the explainer's
// scratch row. The first ones the repository has room for keep their
// bins, each a slice capped at one per attribute of a slab the pull
// allocates, and their label; they are stored only if the classifier
// guessed none of the pull's labels. The histogram is the explainer's:
// AddTrials folds it in and keeps no reference.
//
//shahin:hotpath
func (a *ruleArm) pull(n int) int {
	e := a.e
	hist := e.hist
	clear(hist)
	stored, _ := a.sh.Repo.Get(a.items.Key())
	keep := min(max(e.cfg.StorePerRule-len(stored), 0), n)
	p := len(e.scratch)
	store := make([]perturb.Pooled, keep)
	slab := make([]uint16, keep*p)
	guessed := e.guesses()
	for i := 0; i < n; i++ {
		var bins []uint16 // nil: labelled and dropped
		if i < keep {
			bins = slab[i*p : (i+1)*p : (i+1)*p]
		}
		e.gen.FillItemset(a.items, e.scratch, bins)
		y := e.cls.Predict(e.scratch)
		hist[y]++
		if i < keep {
			store[i] = perturb.Pooled{Bins: bins, Label: y}
		}
	}
	a.rr.AddTrials(hist)
	if keep > 0 && e.guesses() == guessed {
		a.sh.Repo.Append(a.items.Key(), store)
	}
	return hist[a.target]
}
