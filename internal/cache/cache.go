// Package cache implements Shahin's perturbation repository: labelled
// perturbations, each its uint16 bins and label, keyed by the frozen itemset
// they were drawn for, under a byte budget with LRU eviction (paper
// §3.5). It also provides the invariant-result cache used by the Anchor
// adaptation to memoise rule precision and coverage (paper §3.4,
// "Caching Other Invariant Results").
package cache

import (
	"container/list"
	"fmt"

	"shahin/internal/dataset"
	"shahin/internal/perturb"
)

// Stats reports the repository's activity counters.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Entries   int   `json:"entries"`
	BytesUsed int64 `json:"bytes_used"`
	Budget    int64 `json:"budget"`
}

// HitRate returns hits / (hits + misses), or 0 with no traffic.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Hooks observes repository events as they happen (the observability
// recorder wires live counters in this way). Any field may be nil; the
// callbacks themselves must be cheap — they run inline with lookups and
// evictions.
type Hooks struct {
	Hit   func()
	Miss  func()
	Evict func()
}

// Repo is a byte-budgeted, LRU-evicting store of labelled perturbations
// keyed by itemset. It is not safe for concurrent use; Shahin runs
// single-core by design (paper §4.1 disables multiprocessing to isolate
// algorithmic gains).
type Repo struct {
	budget    int64
	used      int64
	entries   map[dataset.ItemsetKey]*entry
	lru       *list.List // front = most recently used; values are *entry
	hits      int64
	misses    int64
	evictions int64
	hooks     Hooks
}

// SetHooks installs event callbacks; install before use.
func (r *Repo) SetHooks(h Hooks) { r.hooks = h }

type entry struct {
	key     dataset.ItemsetKey
	samples []perturb.Pooled
	bytes   int64
	elem    *list.Element
}

// NewRepo creates a repository with the given byte budget. A non-positive
// budget means unbounded.
func NewRepo(budgetBytes int64) *Repo {
	return &Repo{
		budget:  budgetBytes,
		entries: make(map[dataset.ItemsetKey]*entry),
		lru:     list.New(),
	}
}

// Put stores (replacing any previous entry) the samples for an itemset,
// as the bins of their items, and evicts least-recently-used entries if
// the budget is exceeded. It reports whether the entry is resident after
// eviction (an entry larger than the whole budget is rejected). The
// library stores through Append; Put converts for the benchmark's callers.
func (r *Repo) Put(key dataset.ItemsetKey, samples []perturb.Sample) bool {
	r.Delete(key)
	pooled := make([]perturb.Pooled, len(samples))
	for i := range samples {
		pooled[i] = samples[i].Pooled()
	}
	return r.Append(key, pooled)
}

// Append adds samples to an entry, creating it if absent, and evicts
// least-recently-used entries if the budget is exceeded. It reports
// whether the entry is resident after eviction (an entry created larger
// than the whole budget is rejected).
func (r *Repo) Append(key dataset.ItemsetKey, samples []perturb.Pooled) bool {
	var bytes int64
	for i := range samples {
		bytes += samples[i].Bytes()
	}
	e, ok := r.entries[key]
	if ok {
		e.samples = append(e.samples, samples...)
		e.bytes += bytes
		r.lru.MoveToFront(e.elem)
	} else {
		if r.budget > 0 && bytes > r.budget {
			return false
		}
		e = &entry{key: key, samples: samples, bytes: bytes}
		e.elem = r.lru.PushFront(e)
		r.entries[key] = e
	}
	r.used += bytes
	r.evictOverBudget()
	_, resident := r.entries[key]
	return resident
}

// Get returns the samples stored for the itemset and marks the entry as
// recently used. The second result reports presence; hit/miss counters are
// updated. Callers must not modify the returned slice.
func (r *Repo) Get(key dataset.ItemsetKey) ([]perturb.Pooled, bool) {
	e, ok := r.entries[key]
	if !ok {
		r.misses++
		if r.hooks.Miss != nil {
			r.hooks.Miss()
		}
		return nil, false
	}
	r.hits++
	if r.hooks.Hit != nil {
		r.hooks.Hit()
	}
	r.lru.MoveToFront(e.elem)
	return e.samples, true
}

// Peek is Get without touching recency or counters: a look at what is
// stored that is no one's read of it.
func (r *Repo) Peek(key dataset.ItemsetKey) ([]perturb.Pooled, bool) {
	e, ok := r.entries[key]
	if !ok {
		return nil, false
	}
	return e.samples, true
}

// Contains reports presence without touching recency or counters.
func (r *Repo) Contains(key dataset.ItemsetKey) bool {
	_, ok := r.entries[key]
	return ok
}

// Delete removes an entry if present.
func (r *Repo) Delete(key dataset.ItemsetKey) {
	if e, ok := r.entries[key]; ok {
		r.remove(e, false)
	}
}

// Keys returns the resident itemset keys in most-recently-used order.
func (r *Repo) Keys() []dataset.ItemsetKey {
	out := make([]dataset.ItemsetKey, 0, len(r.entries))
	for el := r.lru.Front(); el != nil; el = el.Next() {
		out = append(out, el.Value.(*entry).key)
	}
	return out
}

// Len returns the number of resident entries.
func (r *Repo) Len() int { return len(r.entries) }

// Stats returns a snapshot of the activity counters.
func (r *Repo) Stats() Stats {
	return Stats{
		Hits:      r.hits,
		Misses:    r.misses,
		Evictions: r.evictions,
		Entries:   len(r.entries),
		BytesUsed: r.used,
		Budget:    r.budget,
	}
}

// evictOverBudget drops LRU entries until the budget holds.
func (r *Repo) evictOverBudget() {
	if r.budget <= 0 {
		return
	}
	for r.used > r.budget {
		back := r.lru.Back()
		if back == nil {
			panic(fmt.Sprintf("cache: used=%d over budget=%d with empty LRU", r.used, r.budget))
		}
		r.remove(back.Value.(*entry), true)
	}
}

func (r *Repo) remove(e *entry, evicted bool) {
	r.lru.Remove(e.elem)
	delete(r.entries, e.key)
	r.used -= e.bytes
	if evicted {
		r.evictions++
		if r.hooks.Evict != nil {
			r.hooks.Evict()
		}
	}
}

// Snapshot is an immutable view of a repository's contents: a plain map
// safe for any number of concurrent readers. Shahin's parallel batch mode
// freezes the pool after construction and hands each worker the snapshot,
// avoiding locks on the LRU bookkeeping.
type Snapshot map[dataset.ItemsetKey][]perturb.Pooled

// Snapshot captures the current contents. Sample slices are shared (they
// are treated as immutable by all consumers), so the copy is shallow.
func (r *Repo) Snapshot() Snapshot {
	out := make(Snapshot, len(r.entries))
	for key, e := range r.entries {
		out[key] = e.samples
	}
	return out
}

// Get implements the pool's sample source without recency bookkeeping.
func (s Snapshot) Get(key dataset.ItemsetKey) ([]perturb.Pooled, bool) {
	samples, ok := s[key]
	return samples, ok
}

// RuleResult is a memoised invariant computation for one candidate rule:
// its coverage (fraction of data satisfying the rule's predicates) and the
// accumulated precision trials. Trials record the predicted class of each
// rule-consistent perturbation, so the same trials answer precision
// queries for any target class — this tuple-independence is what makes
// the reuse exact (paper §3.6).
type RuleResult struct {
	Pulls       int   // rule-consistent perturbations labelled so far
	ClassCounts []int // predicted-class histogram over those perturbations
	Coverage    float64
	HasCoverage bool
}

// AddTrials folds n new trials with the given predicted-class histogram
// into the result. hist must have len == len(ClassCounts).
func (rr *RuleResult) AddTrials(hist []int) {
	for c, n := range hist {
		rr.ClassCounts[c] += n
		rr.Pulls += n
	}
}

// Precision returns the empirical precision toward a target class
// (0 when untried).
func (rr *RuleResult) Precision(class int) float64 {
	if rr.Pulls == 0 {
		return 0
	}
	return float64(rr.ClassCounts[class]) / float64(rr.Pulls)
}

// Invariants memoises per-rule invariant results keyed by the rule's
// predicate itemset.
type Invariants struct {
	m        map[dataset.ItemsetKey]*RuleResult
	nClasses int
	hits     int64
	misses   int64
}

// NewInvariants creates an empty invariant cache for a classifier with
// nClasses classes.
func NewInvariants(nClasses int) *Invariants {
	return &Invariants{m: make(map[dataset.ItemsetKey]*RuleResult), nClasses: nClasses}
}

// Lookup returns the (mutable) result for a rule, creating it on first
// use. The second result reports whether the rule was already known.
func (iv *Invariants) Lookup(key dataset.ItemsetKey) (*RuleResult, bool) {
	if rr, ok := iv.m[key]; ok {
		iv.hits++
		return rr, true
	}
	iv.misses++
	rr := &RuleResult{ClassCounts: make([]int, iv.nClasses)}
	iv.m[key] = rr
	return rr, false
}

// Len returns the number of memoised rules.
func (iv *Invariants) Len() int { return len(iv.m) }

// HitRate returns the fraction of lookups that found an existing entry.
func (iv *Invariants) HitRate() float64 {
	total := iv.hits + iv.misses
	if total == 0 {
		return 0
	}
	return float64(iv.hits) / float64(total)
}
