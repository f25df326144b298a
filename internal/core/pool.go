package core

import (
	"sort"
	"time"

	"shahin/internal/cache"
	"shahin/internal/dataset"
	"shahin/internal/perturb"
)

// sampleSource abstracts where pooled samples live: the live
// byte-budgeted repository (single-worker runs, streaming) or an
// immutable snapshot (parallel workers).
type sampleSource interface {
	Get(key dataset.ItemsetKey) ([]perturb.Pooled, bool)
}

var (
	_ sampleSource = (*cache.Repo)(nil)
	_ sampleSource = cache.Snapshot(nil)
)

// itemsetPool serves Shahin's materialised perturbations to the
// explainers. It fronts the sample source with per-tuple consumption
// tracking (a pooled sample is served at most once per explanation, but
// freely again for the next tuple) and charges what it serves, and the
// time retrieval takes — the housekeeping overhead of Figure 5 — to the
// tuple's cost record.
type itemsetPool struct {
	repo sampleSource
	// itemsets the pool materialised, in mining priority order (shortest
	// first, then highest support) for ForTuple, and a longest-first view
	// for ForItemset (a longer frozen itemset satisfies more of the
	// required items by construction).
	itemsets    []dataset.Itemset
	longestView []dataset.Itemset

	// cursors is ForTuple's consumption; consumed is ForItemset's, kept
	// across tuples: the tuple (numbered by beginTuple) each sample last
	// went to, per itemset.
	cursors  map[dataset.ItemsetKey]int
	consumed map[dataset.ItemsetKey][]int
	tuple    int
	window   []perturb.Pooled // what the last ForTuple/ForItemset returned

	// fill, set on a stream's pool, makes it lazy: ForTuple calls it for
	// each pooled itemset the tuple contains, and it labels the itemset's
	// samples if the source does not hold them. It reports the time that
	// took, which is not the tuple's, and false when the itemset has no
	// samples to serve.
	fill func(dataset.Itemset) (time.Duration, bool)

	cost *Cost // the tuple being explained
}

var _ tuplePool = (*itemsetPool)(nil)

func newItemsetPool(repo sampleSource, itemsets []dataset.Itemset) *itemsetPool {
	p := &itemsetPool{
		repo:     repo,
		cursors:  make(map[dataset.ItemsetKey]int),
		consumed: make(map[dataset.ItemsetKey][]int),
	}
	p.setItemsets(itemsets)
	return p
}

// setItemsets points the pool at the itemsets its source now holds.
func (p *itemsetPool) setItemsets(itemsets []dataset.Itemset) {
	p.itemsets = itemsets
	p.longestView = append(p.longestView[:0], itemsets...)
	sort.SliceStable(p.longestView, func(i, j int) bool { return len(p.longestView[i]) > len(p.longestView[j]) })
}

// beginTuple resets the per-tuple consumption allowance and charges
// what follows to c. Marks of itemsets the pool no longer holds are
// dropped once they outnumber the pool, so a long-lived pool's marks stay
// bounded.
func (p *itemsetPool) beginTuple(c *Cost) {
	clear(p.cursors)
	if len(p.consumed) > len(p.itemsets) {
		clear(p.consumed)
	}
	p.tuple++
	p.cost = c
}

func (p *itemsetPool) nothingPooled() bool { return len(p.itemsets) == 0 }

// hit charges one repository entry that served the tuple; the first is
// the itemset the tuple's reuse is credited to.
func (p *itemsetPool) hit(f dataset.Itemset) {
	p.cost.CacheHits++
	if p.cost.Itemset == nil {
		p.cost.Itemset = f
	}
}

// ForTuple implements explain.Pool: samples of every pooled itemset the
// tuple contains, best itemsets first — on a lazy pool, filling the ones
// it reaches that are not yet held.
func (p *itemsetPool) ForTuple(tupleItems []dataset.Item, max int) []perturb.Pooled {
	sw := stopwatch()
	var filling time.Duration
	out := p.window[:0]
	for _, f := range p.itemsets {
		if len(out) >= max {
			break
		}
		if !f.ContainsAll(tupleItems) {
			continue
		}
		if p.fill != nil {
			d, ok := p.fill(f)
			filling += d
			if !ok {
				continue
			}
		}
		key := f.Key()
		samples, ok := p.repo.Get(key)
		if !ok {
			continue
		}
		p.hit(f)
		cur := p.cursors[key]
		for cur < len(samples) && len(out) < max {
			out = append(out, samples[cur])
			cur++
		}
		p.cursors[key] = cur
	}
	p.cost.served(len(out), sw, filling)
	p.window = out
	return out
}

// ForItemset implements explain.Pool: samples from pooled itemsets that
// are subsets of the required items, filtered to rows matching all
// required items.
func (p *itemsetPool) ForItemset(required dataset.Itemset, max int) []perturb.Pooled {
	sw := stopwatch()
	out := p.window[:0]
	for _, f := range p.longestView {
		if len(out) >= max {
			break
		}
		// A pooled sample only guarantees the bins of its frozen itemset;
		// the remaining required items must match by chance, which is
		// hopeless beyond a couple of extra attributes — skip rather than
		// scan (keeps retrieval overhead linear in what can actually hit).
		if len(required) > len(f)+2 {
			continue
		}
		if !f.SubsetOf(required) {
			continue
		}
		key := f.Key()
		samples, ok := p.repo.Get(key)
		if !ok {
			continue
		}
		p.hit(f)
		used := p.consumed[key]
		if len(used) < len(samples) {
			used = make([]int, len(samples))
			p.consumed[key] = used
		}
		for i := range samples {
			if len(out) >= max {
				break
			}
			if used[i] != p.tuple && perturb.MatchesBins(required, samples[i].Bins) {
				out = append(out, samples[i])
				used[i] = p.tuple
			}
		}
	}
	p.cost.served(len(out), sw, 0)
	p.window = out
	return out
}
