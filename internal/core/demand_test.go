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

func (r *readLog) Get(key dataset.ItemsetKey) ([]perturb.Sample, bool) {
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
// tuples would build if it labelled every mined itemset, as Anchor's
// does — buildPool's steps with no demand. It returns the run's reuse cap
// beside it.
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
	rows := itemize(st, tuples)
	if _, _, err := ps.refresh(f.ctx, f.eng, perturb.NewGenerator(st, rng), func() []dataset.Itemset {
		return sampleRows(rows, fim.SampleSize(len(rows)), rng)
	}, false, nil, f.span); err != nil {
		t.Fatal(err)
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
// and "the eager refresh is restored" each fail it.
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
				pools = append(pools, batchPool(t, env.st, env.cls, opts, env.tuples, rep))
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
				if !slices.EqualFunc(a, b, func(x, y perturb.Sample) bool { return slices.Equal(x.Items, y.Items) }) {
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
			full[set.Key()] = make([]perturb.Sample, r.opts.Tau)
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
