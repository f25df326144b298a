package core

import (
	"context"

	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/obs"
	"shahin/internal/perturb"
	"shahin/internal/rf"
)

// Greedy is the paper's GREEDY baseline (§4.1): it blindly persists every
// perturbation generated while explaining, under a byte budget with LRU
// (oldest-first) eviction, and reuses any stored perturbation that is
// compatible with the tuple at hand. It has no notion of which
// perturbations are worth keeping — the contrast that motivates Shahin's
// frequent-itemset materialisation.
func Greedy(st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64, budgetBytes int64) (*Result, error) {
	if opts.Explainer == Anchor {
		// GREEDY for Anchor degenerates to sequential with a sample store;
		// the paper evaluates GREEDY on the perturbation-pool explainers.
		// Run it as sequential so the comparison is still well defined.
		return SequentialCtx(context.Background(), st, cls, opts, tuples)
	}
	opts.Fault = nil // the baseline is measured on a healthy backend: GREEDY has never run behind the fault bridge
	r, err := newRunner("Greedy", st, cls, opts)
	if err != nil {
		return nil, err
	}
	if err := r.admit(tuples); err != nil {
		return nil, err
	}
	return r.upFront(context.Background(), obs.StageGreedy, tuples, newGreedyStore(budgetBytes))
}

// greedyStore is a flat FIFO of labelled perturbations under a byte
// budget. Reuse scans newest-first: any stored sample sharing at least
// one bin with the tuple may be served for ForTuple, and ForItemset
// requires a full match of the required items — the same compatibility
// rules as Shahin's pool, minus the curation.
type greedyStore struct {
	budget int64
	used   int64

	samples []storedSample
	nextID  int64
	head    int // index of the oldest live sample

	consumed map[int64]bool   // per-tuple allowance
	window   []perturb.Sample // what the last ForTuple/ForItemset returned
	cost     *Cost            // the tuple being explained
}

type storedSample struct {
	id int64
	s  perturb.Sample
}

var (
	_ tuplePool        = (*greedyStore)(nil)
	_ explain.Observer = (*greedyStore)(nil)
)

func newGreedyStore(budget int64) *greedyStore {
	return &greedyStore{budget: budget, consumed: make(map[int64]bool)}
}

func (g *greedyStore) beginTuple(c *Cost) {
	clear(g.consumed)
	g.cost = c
}

// nothingPooled is never true: even a store with nothing in it observes
// every perturbation the explainer labels.
func (g *greedyStore) nothingPooled() bool { return false }

// Observe implements explain.Observer: every fresh labelled perturbation
// is persisted, evicting oldest entries past the budget.
func (g *greedyStore) Observe(s perturb.Sample) {
	g.samples = append(g.samples, storedSample{id: g.nextID, s: s})
	g.nextID++
	g.used += s.Bytes()
	for g.budget > 0 && g.used > g.budget && g.head < len(g.samples) {
		g.used -= g.samples[g.head].s.Bytes()
		g.samples[g.head] = storedSample{} // release for GC
		g.head++
	}
	// Compact the slice occasionally so memory is actually reclaimed.
	if g.head > 0 && g.head*2 > len(g.samples) {
		g.samples = append(g.samples[:0], g.samples[g.head:]...)
		g.head = 0
	}
}

// ForTuple implements explain.Pool: newest-first scan for stored samples
// that agree with the tuple on at least half of the attributes — samples
// that carry locality for this tuple. Most leftovers from other tuples'
// explanations do not qualify, which (together with the deepening scans
// as the cache grows) is exactly why the paper finds GREEDY's speedup
// fades at larger batches.
func (g *greedyStore) ForTuple(tupleItems []dataset.Item, max int) []perturb.Sample {
	sw := stopwatch()
	minMatch := (len(tupleItems) + 1) / 2
	out := g.window[:0]
	for i := len(g.samples) - 1; i >= g.head && len(out) < max; i-- {
		ss := &g.samples[i]
		if g.consumed[ss.id] {
			continue
		}
		if matchingBins(tupleItems, ss.s.Items) >= minMatch {
			out = append(out, ss.s)
			g.consumed[ss.id] = true
		}
	}
	g.cost.served(len(out), sw, 0)
	g.window = out
	return out
}

// ForItemset implements explain.Pool: newest-first scan for samples
// matching all required items. Requirements beyond a few items cannot
// match product-marginal samples by chance, so the scan is skipped.
func (g *greedyStore) ForItemset(required dataset.Itemset, max int) []perturb.Sample {
	if len(required) > 3 {
		return nil
	}
	sw := stopwatch()
	out := g.window[:0]
	for i := len(g.samples) - 1; i >= g.head && len(out) < max; i-- {
		ss := &g.samples[i]
		if g.consumed[ss.id] {
			continue
		}
		if perturb.MatchesBins(required, ss.s.Items) {
			out = append(out, ss.s)
			g.consumed[ss.id] = true
		}
	}
	g.cost.served(len(out), sw, 0)
	g.window = out
	return out
}

// matchingBins counts the attributes on which the sample agrees with the
// tuple's bin.
func matchingBins(tupleItems, sampleItems []dataset.Item) int {
	n := 0
	for a := range tupleItems {
		if tupleItems[a] == sampleItems[a] {
			n++
		}
	}
	return n
}
