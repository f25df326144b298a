package bench

import (
	"fmt"
	"math/rand"
	"slices"
	"time"

	"shahin/internal/cache"
	"shahin/internal/core"
	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/explain/lime"
	"shahin/internal/explain/shap"
	"shahin/internal/perturb"
	"shahin/internal/rf"
)

// runGreedy runs the GREEDY baseline with the paper's default budget of
// 10x the raw batch size.
func runGreedy(env *Env, opts core.Options, tuples [][]float64) (*core.Result, error) {
	return greedy(env, opts, tuples, int64(10*len(tuples)*len(tuples[0])*8))
}

// greedy is the paper's GREEDY baseline (§4.1): the explainer blindly
// persists every perturbation it labels in a store of budget bytes,
// oldest evicted first, and reuses any stored perturbation compatible
// with the tuple at hand. It has no notion of which perturbations are
// worth keeping — the contrast that motivates Shahin's frequent-itemset
// pool. The paper evaluates GREEDY on the perturbation explainers; any
// other kind runs as the sequential baseline.
func greedy(env *Env, opts core.Options, tuples [][]float64, budget int64) (*core.Result, error) {
	start := time.Now()
	cls := rf.NewCounting(env.Classifier())
	rng := rand.New(rand.NewSource(opts.Seed))
	var explainWith func([]float64, explain.Pool) (*explain.Attribution, error)
	switch opts.Explainer {
	case core.LIME:
		explainWith = lime.New(env.Stats, cls, opts.LIME, rng).ExplainWithPool
	case core.SHAP:
		explainWith = shap.New(env.Stats, cls, opts.SHAP, rng).ExplainWithPool
	default:
		return runSequential(env, opts, tuples)
	}
	store := &greedyStore{budget: budget}
	out := make([]core.Explanation, len(tuples))
	for i, t := range tuples {
		store.tuple++
		a, err := explainWith(t, store)
		if err != nil {
			return nil, fmt.Errorf("greedy: explaining tuple %d: %w", i, err)
		}
		out[i].Attribution = a
	}
	return &core.Result{Explanations: out, Report: core.Report{
		Tuples:        len(tuples),
		WallTime:      time.Since(start),
		Invocations:   cls.Invocations(),
		ReusedSamples: store.served,
		Cache:         cache.Stats{Evictions: store.evicted},
	}}, nil
}

// greedyStore is GREEDY's cache: a FIFO of every labelled perturbation
// the explainer drew, under a byte budget. Reuse scans newest first and
// serves a sample at most once per tuple. ForTuple takes a sample that
// agrees with the tuple on at least half the attributes; most leftovers
// from other tuples do not, which — with scans that deepen as the store
// grows — is why the paper finds GREEDY's speedup fades at larger
// batches. ForItemset takes a full match of at most three items: more
// cannot match product-marginal samples by chance.
type greedyStore struct {
	budget, used int64
	samples      []greedySample   // oldest first
	tuple        int              // the tuple being explained, numbered from 1
	window       []perturb.Pooled // what the last ForTuple/ForItemset returned

	served, evicted int64
}

type greedySample struct {
	perturb.Pooled
	tuple int // the tuple it was last served to
}

var _ explain.Observer = (*greedyStore)(nil)

// Observe implements explain.Observer: a copy of every fresh labelled
// perturbation is kept, evicting the oldest past the budget.
func (g *greedyStore) Observe(s perturb.Pooled) {
	s.Bins = slices.Clone(s.Bins)
	g.samples = append(g.samples, greedySample{Pooled: s})
	g.used += s.Bytes()
	for g.used > g.budget && len(g.samples) > 0 {
		g.used -= g.samples[0].Bytes()
		g.samples = g.samples[1:]
		g.evicted++
	}
}

// ForTuple implements explain.Pool.
func (g *greedyStore) ForTuple(tupleItems []dataset.Item, max int) []perturb.Pooled {
	half := (len(tupleItems) + 1) / 2
	return g.serve(max, func(bins []uint16) bool { return matchingBins(tupleItems, bins) >= half })
}

// matchingBins counts the attributes on which a sample's bins equal the
// tuple's.
func matchingBins(tupleItems []dataset.Item, bins []uint16) int {
	n := 0
	for a, it := range tupleItems {
		if uint16(it.Bin()) == bins[a] {
			n++
		}
	}
	return n
}

// ForItemset implements explain.Pool.
func (g *greedyStore) ForItemset(required dataset.Itemset, max int) []perturb.Pooled {
	if len(required) > 3 {
		return nil
	}
	return g.serve(max, func(bins []uint16) bool { return perturb.MatchesBins(required, bins) })
}

// serve scans newest first for up to max samples ok accepts that the
// tuple has not been served yet.
func (g *greedyStore) serve(max int, ok func([]uint16) bool) []perturb.Pooled {
	out := g.window[:0]
	for i := len(g.samples) - 1; i >= 0 && len(out) < max; i-- {
		s := &g.samples[i]
		if s.tuple != g.tuple && ok(s.Bins) {
			out = append(out, s.Pooled)
			s.tuple = g.tuple
		}
	}
	g.served += int64(len(out))
	g.window = out
	return out
}
