package core

import (
	"sort"
	"time"

	"shahin/internal/cache"
	"shahin/internal/dataset"
	"shahin/internal/obs"
	"shahin/internal/perturb"
)

// sampleSource abstracts where pooled samples live: the live
// byte-budgeted repository (single-worker runs, streaming) or an
// immutable snapshot (parallel workers).
type sampleSource interface {
	Get(key dataset.ItemsetKey) ([]perturb.Sample, bool)
}

var (
	_ sampleSource = (*cache.Repo)(nil)
	_ sampleSource = cache.Snapshot(nil)
)

// itemsetPool serves Shahin's materialised perturbations to the
// explainers. It fronts the sample source with per-tuple consumption
// tracking (a pooled sample is served at most once per explanation, but
// freely again for the next tuple) and accounts retrieval time toward the
// housekeeping overhead of Figure 5.
type itemsetPool struct {
	repo sampleSource
	// itemsets the pool materialised, in mining priority order (shortest
	// first, then highest support) for ForTuple, and a longest-first view
	// for ForItemset (a longer frozen itemset satisfies more of the
	// required items by construction).
	itemsets    []dataset.Itemset
	longestView []dataset.Itemset

	cursors  map[dataset.ItemsetKey]int    // ForTuple consumption
	consumed map[dataset.ItemsetKey][]bool // ForItemset consumption

	reused         int64
	retrieval      time.Duration
	tupleRetrieval time.Duration // retrieval since beginTuple
	reusedCtr      *obs.Counter  // live reuse counter; nil (no-op) without a recorder

	// Per-tuple provenance, reset by beginTuple: samples served, repo
	// hits, and the first itemset that served this tuple (the unit the
	// tuple_explained event credits the reuse to).
	tupleReused int64
	tupleHits   int64
	matched     dataset.Itemset
}

var _ tuplePool = (*itemsetPool)(nil)

func newItemsetPool(repo sampleSource, itemsets []dataset.Itemset, rec *obs.Recorder) *itemsetPool {
	p := &itemsetPool{
		repo:      repo,
		cursors:   make(map[dataset.ItemsetKey]int),
		consumed:  make(map[dataset.ItemsetKey][]bool),
		reusedCtr: rec.Counter(obs.CounterReusedSamples),
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

// beginTuple resets the per-tuple consumption allowance and provenance.
func (p *itemsetPool) beginTuple() {
	clear(p.cursors)
	clear(p.consumed)
	p.tupleReused = 0
	p.tupleHits = 0
	p.tupleRetrieval = 0
	p.matched = nil
}

// provenance reports what the pool did for the current tuple since
// beginTuple: samples served, repository hits, and the first matched
// itemset ("" when nothing hit).
func (p *itemsetPool) provenance() (pooled, hits int64, matched string) {
	if p.matched != nil {
		matched = p.matched.String()
	}
	return p.tupleReused, p.tupleHits, matched
}

func (p *itemsetPool) nothingPooled() bool { return len(p.itemsets) == 0 }

// retrievalSince reports retrieval time since beginTuple; it feeds the
// pool_sample stage of latency attribution.
func (p *itemsetPool) retrievalSince() time.Duration { return p.tupleRetrieval }

// totals reports samples served and retrieval time over the pool's life.
func (p *itemsetPool) totals() (int64, time.Duration) { return p.reused, p.retrieval }

// ForTuple implements explain.Pool: samples of every pooled itemset the
// tuple contains, best itemsets first.
func (p *itemsetPool) ForTuple(tupleItems []dataset.Item, max int) []perturb.Sample {
	start := time.Now() //shahinvet:allow walltime — retrieval overhead accounting (Figure 5)
	defer func() {
		d := time.Since(start)
		p.retrieval += d
		p.tupleRetrieval += d
	}()

	var out []perturb.Sample
	for _, f := range p.itemsets {
		if len(out) >= max {
			break
		}
		if !f.ContainsAll(tupleItems) {
			continue
		}
		key := f.Key()
		samples, ok := p.repo.Get(key)
		if !ok {
			continue
		}
		p.tupleHits++
		if p.matched == nil {
			p.matched = f
		}
		cur := p.cursors[key]
		for cur < len(samples) && len(out) < max {
			out = append(out, samples[cur])
			cur++
		}
		p.cursors[key] = cur
	}
	p.reused += int64(len(out))
	p.tupleReused += int64(len(out))
	p.reusedCtr.Add(int64(len(out)))
	return out
}

// ForItemset implements explain.Pool: samples from pooled itemsets that
// are subsets of the required items, filtered to rows matching all
// required items.
func (p *itemsetPool) ForItemset(required dataset.Itemset, max int) []perturb.Sample {
	start := time.Now() //shahinvet:allow walltime — retrieval overhead accounting (Figure 5)
	defer func() {
		d := time.Since(start)
		p.retrieval += d
		p.tupleRetrieval += d
	}()

	var out []perturb.Sample
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
		p.tupleHits++
		if p.matched == nil {
			p.matched = f
		}
		used := p.consumed[key]
		if used == nil {
			used = make([]bool, len(samples))
			p.consumed[key] = used
		}
		for i := range samples {
			if len(out) >= max {
				break
			}
			if i < len(used) && used[i] {
				continue
			}
			if perturb.MatchesBins(required, samples[i].Items) {
				out = append(out, samples[i])
				if i < len(used) {
					used[i] = true
				}
			}
		}
	}
	p.reused += int64(len(out))
	p.tupleReused += int64(len(out))
	p.reusedCtr.Add(int64(len(out)))
	return out
}
