package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"shahin/internal/cache"
	"shahin/internal/dataset"
	"shahin/internal/explain/lime"
	"shahin/internal/fault"
	"shahin/internal/fim"
	"shahin/internal/obs"
	"shahin/internal/perturb"
	"shahin/internal/rf"
)

// readLog is a sample source that logs, in order, the keys a pool read
// and found.
type readLog struct {
	sampleSource
	keys []dataset.ItemsetKey
}

func (r *readLog) Get(key dataset.ItemsetKey) ([]perturb.Pooled, bool) {
	s, ok := r.sampleSource.Get(key)
	if ok {
		r.keys = append(r.keys, key)
	}
	return s, ok
}

// read is one itemset a ForTuple selection read, and how many of its
// samples it served.
type read struct {
	key dataset.ItemsetKey
	n   int
}

// selection is what items' ForTuple under max reads from p, in order.
func selection(p *itemsetPool, items dataset.Itemset, max int) []read {
	log := &readLog{sampleSource: p.repo}
	p.repo = log
	defer func() { p.repo = log.sampleSource }()
	var c Cost
	p.beginTuple(&c)
	p.ForTuple(items, max)
	out := make([]read, len(log.keys))
	for i, k := range log.keys {
		out[i] = read{k, p.cursors[k]}
	}
	return out
}

// eagerPool is the oracle of the demand pass: the pool a batch over
// tuples would build if it labelled every mined itemset — buildPool's
// mine with no demand, then materialize on each itemset in mining order.
// It returns the run's reuse cap beside it.
func eagerPool(t *testing.T, st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64) (*poolState, int) {
	t.Helper()
	b, err := NewBatch(st, cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(b.opts.Seed))
	f := b.begin(context.Background(), rng, obs.StageBatch, len(tuples))
	defer f.span.End()
	ps := newPoolState(b.opts, cls.NumClasses(), len(tuples))
	gen := perturb.NewGenerator(st, rng)
	rows := itemize(st, tuples)
	if _, err := ps.refresh(func() []dataset.Itemset {
		return sampleRows(rows, fim.SampleSize(len(rows)), rng)
	}, nil, f.span); err != nil {
		t.Fatal(err)
	}
	for _, set := range ps.sets {
		if !ps.materialize(f.eng, gen, set, new(Report)) {
			t.Fatalf("the eager pool did not store %v", set)
		}
	}
	return ps, f.eng.reuseCap()
}

// TestBatchDemandPool holds a batch's demand pass to the eager pool it
// replaced, for LIME and KernelSHAP without faults: every tuple's
// ForTuple selection (itemsets and counts, in order) over the demand
// pool is the one it gets over the eager pool; the pool is the same at
// one worker and at four; the pass labelled τ samples per pooled itemset;
// and every pooled itemset is served to some tuple. The mutants "the
// demand pass ignores max", "the parallel path skips the demand pass"
// and "fillDemanded keeps the itemsets it did not fill" each fail it.
func TestBatchDemandPool(t *testing.T) {
	env := newEnv(t, 7, 80)
	rows := itemize(env.st, env.tuples)
	for _, kind := range []Kind{LIME, SHAP} {
		t.Run(kind.String(), func(t *testing.T) {
			opts := smallOpts(kind, 9)
			var pools []*poolState
			var reused int64
			for _, w := range []int{1, 4} {
				opts.Workers = w
				b, err := NewBatch(env.st, env.cls, opts)
				if err != nil {
					t.Fatal(err)
				}
				res, err := b.ExplainAll(env.tuples)
				if err != nil {
					t.Fatal(err)
				}
				rep := res.Report
				if rep.PoolInvocations != int64(opts.Tau*rep.FrequentItemsets) || rep.FrequentItemsets == 0 {
					t.Errorf("w%d: %d pool invocations for %d pooled itemsets at τ=%d", w, rep.PoolInvocations, rep.FrequentItemsets, opts.Tau)
				}
				// batchPool fails unless the run built this pool.
				pools = append(pools, batchPool(t, env.st, env.cls, opts, env.tuples, rep, nil))
				if w == 1 {
					reused = rep.ReusedSamples
				}
			}
			demand, parallel := pools[0], pools[1]
			if !slices.EqualFunc(demand.sets, parallel.sets, slices.Equal) {
				t.Fatalf("w1 pooled %v, w4 %v", demand.sets, parallel.sets)
			}
			for _, s := range demand.sets {
				a, _ := demand.repo.Peek(s.Key())
				b, _ := parallel.repo.Peek(s.Key())
				if !slices.EqualFunc(a, b, func(x, y perturb.Pooled) bool { return slices.Equal(x.Bins, y.Bins) }) {
					t.Errorf("%v: w1 and w4 pooled different samples", s)
				}
			}

			eager, max := eagerPool(t, env.st, env.cls, opts, env.tuples)
			if len(eager.sets) <= len(demand.sets) {
				t.Errorf("the eager pool holds %d itemsets, the demand pool %d: no tuple leaves one unread", len(eager.sets), len(demand.sets))
			}
			served := map[dataset.ItemsetKey]bool{}
			var selected int64
			for i, items := range rows {
				got, want := selection(demand.pool, items, max), selection(eager.pool, items, max)
				if !slices.Equal(got, want) {
					t.Errorf("tuple %d: demand pool serves %v, eager pool %v", i, got, want)
				}
				for _, r := range got {
					served[r.key] = true
					selected += int64(r.n)
				}
			}
			for _, s := range demand.sets {
				if !served[s.Key()] {
					t.Errorf("%v is pooled but no tuple's selection reads it", s)
				}
			}
			// LIME reads the pool only through ForTuple: the selections are
			// all it reused.
			if kind == LIME && selected != reused {
				t.Errorf("the selections serve %d samples, the w1 run reused %d", selected, reused)
			}
		})
	}
}

// FuzzDemandPool drives the demand pass over random small categorical
// schemas, tuples, itemsets (each mostly items of some tuple), τ and
// reuse caps: the itemsets it pools must be, in the pool's order, exactly
// the union of what the tuples' ForTuple selections read from an eager
// pool holding τ samples of every itemset, each labelled once, τ times.
func FuzzDemandPool(f *testing.F) {
	f.Add([]byte{3, 2, 0, 1, 2, 1, 1, 0, 2, 2, 1, 0, 0, 1}, []byte{0, 7, 1, 3, 2, 5, 3, 1}, uint8(3), uint8(7), int64(1))
	f.Add([]byte{1, 1, 0, 0, 0, 0}, []byte{0, 1, 1, 1}, uint8(0), uint8(0), int64(2))
	// Every tuple holds all three itemsets, and the first fills the cap.
	f.Add([]byte{1, 0, 0, 0, 0, 0}, []byte{0, 1, 0, 2, 0, 3}, uint8(4), uint8(4), int64(4))
	f.Add([]byte{4, 3, 9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2, 3, 4, 5, 6, 7, 8}, []byte{1, 15, 2, 3, 3, 12, 0, 9, 4, 6}, uint8(5), uint8(30), int64(3))
	f.Fuzz(func(t *testing.T, cells, picks []byte, tau, max uint8, seed int64) {
		if len(cells) < 2 {
			return
		}
		p, k := 1+int(cells[0])%4, 1+int(cells[1])%3 // attributes, categories each
		cells = cells[2:]
		n := min(len(cells)/p, 40)
		if n == 0 {
			return
		}
		s := &dataset.Schema{Classes: []string{"n", "y"}}
		for a := 0; a < p; a++ {
			s.Attrs = append(s.Attrs, dataset.Attr{Name: fmt.Sprint("c", a), Kind: dataset.Categorical, Values: make([]string, k)})
		}
		d := dataset.New(s, n)
		for i := 0; i < n; i++ {
			row := make([]float64, p)
			for a := range row {
				row[a] = float64(int(cells[i*p+a]) % k)
			}
			d.AppendRow(row, 0)
		}
		st, err := dataset.Compute(d)
		if err != nil {
			t.Fatal(err)
		}
		tuples := d.Rows(0, n)
		rows := itemize(st, tuples)
		// Each pair of picks names a tuple and a mask of its attributes.
		var sets []dataset.Itemset
		seen := map[dataset.ItemsetKey]bool{}
		for i := 0; i+1 < len(picks) && len(sets) < 24; i += 2 {
			row := rows[int(picks[i])%n]
			var set dataset.Itemset
			for a := 0; a < p && len(set) < maxItemsetLen; a++ {
				if picks[i+1]>>a&1 == 1 {
					set = append(set, row[a])
				}
			}
			if len(set) > 0 && !seen[set.Key()] {
				seen[set.Key()] = true
				sets = append(sets, set)
			}
		}

		reuse := 1 + int(max)%40
		opts := Options{Explainer: LIME, LIME: lime.Config{NumSamples: reuse, MaxReuse: 1}, Tau: 1 + int(tau)%6, Seed: seed}
		cls := rf.Func{Classes: 2, F: func(x []float64) int { return int(x[0]) % 2 }}
		r, err := newRunner("FuzzDemandPool", st, cls, opts)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		fr := r.begin(context.Background(), rng, obs.StageBatch, n)
		defer fr.span.End()
		ps := newPoolState(r.opts, 2, n)
		ps.setSets(sets)
		var rep Report
		pooled := ps.fillDemanded(fr.ctx, fr.eng, perturb.NewGenerator(st, rng), rows, &rep)

		full := cache.Snapshot{}
		for _, set := range sets {
			full[set.Key()] = make([]perturb.Pooled, r.opts.Tau)
		}
		eager := newItemsetPool(full, sets)
		hit := map[dataset.ItemsetKey]bool{}
		for _, items := range rows {
			for _, rd := range selection(eager, items, reuse) {
				hit[rd.key] = true
			}
		}
		want := slices.DeleteFunc(slices.Clone(sets), func(s dataset.Itemset) bool { return !hit[s.Key()] })
		if !slices.EqualFunc(ps.sets, want, slices.Equal) {
			t.Fatalf("τ=%d, cap %d: the demand pass pooled %v, the eager selections read %v", r.opts.Tau, reuse, ps.sets, want)
		}
		if pooled != len(want) || ps.repo.Len() != len(want) || rep.PoolInvocations != int64(r.opts.Tau*len(want)) {
			t.Fatalf("%d itemsets demanded: fillDemanded reports %d, the repository holds %d, %d labels were made at τ=%d",
				len(want), pooled, ps.repo.Len(), rep.PoolInvocations, r.opts.Tau)
		}
	})
}

// TestBatchAnchorFillsAtFirstRead holds a fault-free Batch Anchor run to
// the one fill rule, on the recidivism forest (the golden twin's rules
// end at one item, so bootstrap would read nothing pooled). The search
// calls Shared.Fill on every rule it reads: on each candidate, and on a
// fresh candidate's sub-rules right after it, before bootstrap scans
// them. Every pooled rule it is called on holds τ labels when it
// returns; a rule filled there gets exactly τ and its first invariant
// entry (nothing read its trials before the fill); and the pool's calls
// are τ per such fill, so nothing the search never read was labelled.
// The mutants "Fill skipped in bootstrap", "Fill called after Lookup"
// and "the batch labels every mined itemset up front" each fail it.
func TestBatchAnchorFillsAtFirstRead(t *testing.T) {
	env := newExactEnv(t, 7, 40)
	opts := smallOpts(Anchor, 9)
	b, err := NewBatch(env.st, env.forest, opts)
	if err != nil {
		t.Fatal(err)
	}
	res, err := b.ExplainAll(env.tuples)
	if err != nil {
		t.Fatal(err)
	}
	var reads []dataset.Itemset
	filled := 0
	ps := batchPool(t, env.st, env.forest, opts, env.tuples, res.Report, func(ps *poolState) {
		fill := ps.sh.Fill
		ps.sh.Fill = func(rule dataset.Itemset) {
			key, entries, held := rule.Key(), ps.sh.Inv.Len(), ps.repo.Contains(rule.Key())
			fill(rule)
			reads = append(reads, slices.Clone(rule))
			if !pooled(ps, rule) {
				return
			}
			got, _ := ps.repo.Peek(key)
			if len(got) < opts.Tau {
				t.Errorf("%v was read holding %d samples, want at least τ=%d", rule, len(got), opts.Tau)
			}
			if !held {
				filled++
				if len(got) != opts.Tau || ps.sh.Inv.Len() != entries+1 {
					t.Errorf("the fill of %v stored %d samples and made %d invariant entries; want τ=%d and 1",
						rule, len(got), ps.sh.Inv.Len()-entries, opts.Tau)
				}
			}
		}
	})
	if n := int64(opts.Tau * filled); filled == 0 || res.Report.PoolInvocations != n {
		t.Fatalf("%d pool invocations for %d fills in Shared.Fill at τ=%d", res.Report.PoolInvocations, filled, opts.Tau)
	}
	// The reads are candidates, each a fresh one (not pooled, not a
	// candidate before) followed by its sub-rules, which bootstrap scans.
	candidates := map[dataset.ItemsetKey]bool{}
	scanned := 0
	for i := 0; i < len(reads); {
		rule := reads[i]
		i++
		if candidates[rule.Key()] || pooled(ps, rule) {
			continue
		}
		candidates[rule.Key()] = true
		var want, got []string
		for skip := range rule {
			want = append(want, slices.Delete(slices.Clone(rule), skip, skip+1).String())
		}
		for _, sub := range reads[i:min(i+len(rule), len(reads))] {
			got = append(got, sub.String())
			if pooled(ps, sub) {
				scanned++
			}
		}
		i += len(rule)
		slices.Sort(want)
		slices.Sort(got)
		if !slices.Equal(got, want) {
			t.Fatalf("read %d, the fresh candidate %v, is followed by %v; want its sub-rules %v", i-len(rule)-1, rule, got, want)
		}
	}
	if scanned == 0 {
		t.Fatal("bootstrap read no pooled sub-rule: the run does not exercise it")
	}
}

// TestBatchAnchorRefusedFill: a Batch Anchor fill with a label the
// classifier did not give stores nothing and drops its own itemset only.
// Under the midfill profile (one call in twenty-five fails, no retry),
// each seed refuses some fills and still pools more than one itemset,
// every label of which is a classifier call's. A pool that stops at the
// first refused fill holds one.
func TestBatchAnchorRefusedFill(t *testing.T) {
	st, plain, tuples := goldenEnv(t)(Anchor)
	tuples = tuples[:40]
	for seed := int64(13); seed <= 15; seed++ {
		opts := smallOpts(Anchor, 9)
		opts.Fault = &fault.Config{FailRate: 0.04, Seed: seed, BreakerThreshold: -1}
		b, err := NewBatch(st, plain, opts)
		if err != nil {
			t.Fatal(err)
		}
		res, err := b.ExplainAll(tuples)
		if err != nil {
			t.Fatal(err)
		}
		cls := newWitness(st, plain)
		ps := batchPool(t, st, cls, opts, tuples, res.Report, nil)
		held := 0
		for _, s := range ps.sets {
			if ps.repo.Contains(s.Key()) {
				held++
			}
		}
		fills := int(res.Report.PoolInvocations) / opts.Tau
		if len(ps.sets) <= 1 || fills <= held {
			t.Errorf("seed %d: %d itemsets pooled, %d fills of which %d stored; want more than one pooled and some fill refused",
				seed, len(ps.sets), fills, held)
		}
		checkPoolLabels(t, ps, cls)
	}
}
