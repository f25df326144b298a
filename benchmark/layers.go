package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"time"

	"shahin"
	"shahin/internal/cache"
	"shahin/internal/dataset"
	"shahin/internal/explain/anchor"
	"shahin/internal/explain/exact"
	"shahin/internal/explain/lime"
	"shahin/internal/explain/shap"
	"shahin/internal/fim"
	"shahin/internal/linmodel"
	"shahin/internal/mab"
	"shahin/internal/perturb"
	"shahin/internal/router"
	"shahin/internal/store"
)

// This file produces the per-layer metrics of a traced run. Everything
// here runs after the timed region and touches the program only through
// calls a user of the packages could make.

// sequential runs the no-reuse reference over probe through the counting
// classifier, keeping its cost per tuple: the base of the paper's
// speed-up and calls-saved ratios.
func (r *run) sequential(opts shahin.Options, probe [][]float64) (*shahin.Result, error) {
	sp := r.tr.start("core.Sequential", r.parent)
	calls0, t0 := r.cls.Invocations(), now()
	res, err := shahin.Sequential(r.env.stats, r.cls, opts, probe)
	if err != nil {
		return nil, fmt.Errorf("sequential reference: %w", err)
	}
	r.seqWall = now().Sub(t0) / time.Duration(len(probe))
	r.seqCalls = float64(r.cls.Invocations()-calls0) / float64(len(probe))
	r.tr.end(sp, map[string]float64{"tuples": float64(len(probe))})
	return res, nil
}

// share is num/den, 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// coreLayers fills the metrics read from values the program returns:
// the cost reports of the traced operations, the classifier hook's
// totals, the Sequential probe, and the last set-up's stage times.
// reports holds the Reports that together cover the traced operations.
func (r *run) coreLayers(reports []shahin.Report) {
	var sum shahin.Report
	var bytesUsed int64
	for _, rep := range reports {
		sum.Tuples += rep.Tuples
		sum.WallTime += rep.WallTime
		sum.OverheadTime += rep.OverheadTime
		sum.MineTime += rep.MineTime
		sum.PoolTime += rep.PoolTime
		sum.ExplainTime += rep.ExplainTime
		sum.Invocations += rep.Invocations
		sum.PoolInvocations += rep.PoolInvocations
		sum.ReusedSamples += rep.ReusedSamples
		sum.FrequentItemsets += rep.FrequentItemsets
		sum.Cache.Hits += rep.Cache.Hits
		sum.Cache.Misses += rep.Cache.Misses
		sum.Cache.Evictions += rep.Cache.Evictions
		bytesUsed = max(bytesUsed, rep.Cache.BytesUsed)
	}
	ops, tuples := float64(len(r.lat)), float64(sum.Tuples)
	l := r.layer
	l["core.mine_ms_per_op"] = ms(sum.MineTime) / ops
	l["core.pool_build_ms_per_op"] = ms(sum.PoolTime) / ops
	l["core.explain_ms_per_explanation"] = share(ms(sum.ExplainTime), tuples)
	l["core.overhead_share"] = share(float64(sum.OverheadTime), float64(sum.WallTime))
	l["core.reuse_share"] = sum.ReuseRate()
	l["core.pool_calls_share"] = share(float64(sum.PoolInvocations), float64(sum.Invocations))
	l["core.frequent_itemsets"] = float64(sum.FrequentItemsets) / float64(len(reports))
	l["cache.hit_share"] = sum.Cache.HitRate()
	l["cache.evictions_per_explanation"] = share(float64(sum.Cache.Evictions), tuples)
	l["cache.bytes_used_mb"] = float64(bytesUsed) / (1 << 20)

	var traced, untraced time.Duration
	for _, d := range r.lat {
		traced += d
	}
	for _, d := range r.untraced {
		untraced += d
	}
	l["rf.predict_us"] = share(float64(r.predictNS.Load())/1e3, float64(r.hookedCalls))
	l["rf.busy_share"] = float64(r.predictNS.Load()) / float64(traced)
	l["rf.train_s"] = r.env.trainDur.Seconds()
	l["dataset.stats_ms"] = ms(r.env.statsDur)
	l["harness.trace_overhead_share"] = 1 - float64(untraced)/float64(traced)
	if r.seqCalls > 0 {
		perExplanation := float64(untraced) / float64(len(r.untraced)*r.explPerOp)
		l["core.speedup_vs_sequential"] = float64(r.seqWall) / perExplanation
		l["core.calls_saved_ratio"] = r.seqCalls / (float64(r.hookedCalls) / float64(len(r.lat)*r.explPerOp))
	}
}

// batchLayers replays the layers a core.Batch workload runs through.
func (r *run) batchLayers(s batchSpec, opts shahin.Options, wins [][][]float64, reports []shahin.Report) error {
	r.coreLayers(reports)
	tuples := wins[0]
	frequent, err := r.replayFIM(tuples, false)
	if err != nil {
		return err
	}
	r.replayItemize(tuples)
	r.replayCache(frequent)
	if s.kind == shahin.Anchor {
		r.replayPerturb(tuples, frequent, false)
		if err := r.replayMAB(frequent); err != nil {
			return err
		}
	} else {
		r.replayPerturb(tuples, frequent, true)
		if err := r.replayLinmodel(tuples[0], true); err != nil {
			return err
		}
	}
	if err := r.replayExplainer(s.kind, tuples); err != nil {
		return err
	}

	// The same operation with and without a recorder attached, in
	// alternation; the slow-down is what observability costs.
	var with, without time.Duration
	for k := 0; k < 2; k++ {
		for _, rec := range []*shahin.Recorder{nil, shahin.NewRecorder()} {
			o := opts
			o.Recorder = rec
			sp := r.tr.start("obs.recorder", r.parent)
			t0 := now()
			if _, err := r.explainBatch(wins[k], o); err != nil {
				return err
			}
			if d := now().Sub(t0); rec == nil {
				without += d
			} else {
				with += d
			}
			r.tr.end(sp, nil)
		}
	}
	r.layer["obs.recorder_overhead_share"] = 1 - float64(without)/float64(with)
	return nil
}

// replayFIM mines the tuples the way core does and returns the frequent
// itemsets for the other replays to use.
func (r *run) replayFIM(tuples [][]float64, withBorder bool) ([]fim.Mined, error) {
	rows := make([]dataset.Itemset, len(tuples))
	for i, t := range tuples {
		rows[i] = r.env.stats.ItemizeRow(t, nil)
	}
	cfg := fim.Config{MinSupport: math.Max(0.1, 5/float64(len(rows))), MaxLen: 3, WithBorder: withBorder, MaxPerLevel: 800}
	var res *fim.Result
	var err error
	d, _ := r.replay("fim.Mine", 1, func() {
		if err == nil {
			res, err = fim.Mine(rows, cfg)
		}
	})
	if err != nil {
		return nil, fmt.Errorf("replaying fim.Mine: %w", err)
	}
	r.layer["fim.mine_ms"] = d / 1e6
	r.layer["fim.frequent_count"] = float64(len(res.Frequent))
	return res.Frequent, nil
}

func (r *run) replayItemize(tuples [][]float64) {
	buf := make([]dataset.Item, 0, r.env.stats.NumAttrs())
	i := 0
	d, _ := r.replay("dataset.ItemizeRow", 2000, func() {
		buf = r.env.stats.ItemizeRow(tuples[i%len(tuples)], buf[:0])
		i++
	})
	r.layer["dataset.itemize_ns"] = d
}

// replayPerturb times the perturbation generator on the workload's own
// itemsets and tuples; withTuple adds the per-tuple draw and the binary
// encoding, which Anchor never calls.
func (r *run) replayPerturb(tuples [][]float64, frequent []fim.Mined, withTuple bool) {
	gen := perturb.NewGenerator(r.env.stats, rand.New(rand.NewSource(r.seed+2)))
	i := 0
	d, b := r.replay("perturb.ForItemset", 2000, func() {
		gen.ForItemset(frequent[i%len(frequent)].Set)
		i++
	})
	r.layer["perturb.for_itemset_ns"] = d
	r.layer["perturb.alloc_b_per_sample"] = b
	if !withTuple {
		return
	}
	noFreeze := make([]bool, r.env.stats.NumAttrs())
	var s perturb.Sample
	d, _ = r.replay("perturb.ForTuple", 2000, func() {
		s = gen.ForTuple(tuples[i%len(tuples)], noFreeze)
		i++
	})
	r.layer["perturb.for_tuple_ns"] = d
	tItems := r.env.stats.ItemizeRow(tuples[0], nil)
	out := make([]float64, len(tItems))
	d, _ = r.replay("perturb.BinaryEncode", 2000, func() {
		out = perturb.BinaryEncode(tItems, s.Items, out)
	})
	r.layer["perturb.encode_ns"] = d
}

// replayCache times the perturbation repository on the workload's own
// itemsets, each holding τ = 100 samples as the pool build stores them.
func (r *run) replayCache(frequent []fim.Mined) {
	gen := perturb.NewGenerator(r.env.stats, rand.New(rand.NewSource(r.seed+3)))
	keys := make([]dataset.ItemsetKey, len(frequent))
	samples := make([][]perturb.Sample, len(frequent))
	for k, f := range frequent {
		keys[k] = f.Set.Key()
		samples[k] = make([]perturb.Sample, 100)
		for j := range samples[k] {
			samples[k][j] = gen.ForItemset(f.Set)
		}
	}
	repo := cache.NewRepo(0)
	i := 0
	d, _ := r.replay("cache.Repo.Put", len(keys), func() {
		repo.Put(keys[i%len(keys)], samples[i%len(keys)])
		i++
	})
	r.layer["cache.put_us"] = d / 1e3
	d, _ = r.replay("cache.Repo.Get", 2000, func() {
		repo.Get(keys[i%len(keys)])
		i++
	})
	r.layer["cache.get_ns"] = d
}

// replayLinmodel times the surrogate fit on a design harvested from
// tuple: its 1000 perturbations and itself, binary-encoded, with LIME's
// kernel weights and the forest's labels. KernelSHAP only solves, so
// ridge is false on stream_shap.
func (r *run) replayLinmodel(tuple []float64, ridge bool) error {
	st := r.env.stats
	p := st.NumAttrs()
	gen := perturb.NewGenerator(st, rand.New(rand.NewSource(r.seed+4)))
	tItems := st.ItemizeRow(tuple, nil)
	target := r.env.forest.Predict(tuple)
	width2 := 0.75 * 0.75 * float64(p)
	noFreeze := make([]bool, p)
	X, y, w := make([][]float64, 1001), make([]float64, 1001), make([]float64, 1001)
	for i := range X {
		s := perturb.Sample{Row: tuple, Items: tItems}
		if i > 0 {
			s = gen.ForTuple(tuple, noFreeze)
		}
		X[i] = perturb.BinaryEncode(tItems, s.Items, nil)
		if r.env.forest.Predict(s.Row) == target {
			y[i] = 1
		}
		d2 := 0.0
		for _, v := range X[i] {
			d2 += 1 - v
		}
		w[i] = math.Exp(-d2 / width2)
	}
	var err error
	if ridge {
		d, b := r.replay("linmodel.Ridge", 4, func() {
			if _, e := linmodel.Ridge(X, y, w, 1); e != nil {
				err = e
			}
		})
		r.layer["linmodel.ridge_us"] = d / 1e3
		r.layer["linmodel.ridge_alloc_kb"] = b / 1024
	}
	// The weighted normal equations of the same design.
	A, rhs := linmodel.NewSym(p), make([]float64, p)
	for i, x := range X {
		for a := 0; a < p; a++ {
			if x[a] == 0 {
				continue
			}
			rhs[a] += w[i] * y[i]
			for b := 0; b <= a; b++ {
				A.Add(a, b, w[i]*x[b])
			}
		}
	}
	for a := 0; a < p; a++ {
		A.Add(a, a, 1)
	}
	d, _ := r.replay("linmodel.Sym.Solve", 20, func() {
		if _, e := A.Solve(rhs); e != nil {
			err = e
		}
	})
	r.layer["linmodel.solve_us"] = d / 1e3
	if err != nil {
		return fmt.Errorf("replaying linmodel: %w", err)
	}
	return nil
}

// ruleArm is a Bernoulli arm as Anchor builds them: a pull draws
// perturbations consistent with the rule and asks the forest.
type ruleArm struct {
	r     *run
	gen   *perturb.Generator
	items dataset.Itemset
	class int
	pulls *int
}

func (a ruleArm) Pull(n int) int {
	hits := 0
	for i := 0; i < n; i++ {
		if a.r.env.forest.Predict(a.gen.ForItemset(a.items).Row) == a.class {
			hits++
		}
	}
	*a.pulls += n
	return hits
}

// replayMAB runs the bandit's top-2 selection over eight of the
// workload's frequent itemsets taken as candidate rules, under the pull
// budget the workload gives Anchor.
func (r *run) replayMAB(frequent []fim.Mined) error {
	gen := perturb.NewGenerator(r.env.stats, rand.New(rand.NewSource(r.seed+5)))
	pulls := 0
	arms := make([]mab.Arm, min(8, len(frequent)))
	for i := range arms {
		arms[i] = ruleArm{r: r, gen: gen, items: frequent[i].Set, class: 0, pulls: &pulls}
	}
	cfg := mab.Config{Eps: 0.1, Delta: 0.05, Batch: 25, InitPulls: 25, MaxPulls: 2000}
	calls := 0
	var err error
	d, _ := r.replay("mab.TopN", 2, func() {
		if _, _, e := mab.TopN(arms, 2, cfg); e != nil {
			err = e
		}
		calls++
	})
	if err != nil {
		return fmt.Errorf("replaying mab.TopN: %w", err)
	}
	r.layer["mab.topn_us"] = d / 1e3
	r.layer["mab.pulls_per_call"] = float64(pulls) / float64(calls)
	return nil
}

// replayExplainer times the workload's explainer un-pooled, one tuple
// per call: what a single explanation costs before any reuse.
func (r *run) replayExplainer(kind shahin.Kind, tuples [][]float64) error {
	st, cls := r.env.stats, r.env.forest
	rng := rand.New(rand.NewSource(r.seed + 6))
	var name string // the explainer's package
	var one func(t []float64) error
	switch kind {
	case shahin.LIME:
		e := lime.New(st, cls, lime.Config{}, rng)
		name, one = "lime", func(t []float64) error { _, err := e.Explain(t); return err }
	case shahin.SHAP:
		e := shap.New(st, cls, shap.Config{}, rng)
		name, one = "shap", func(t []float64) error { _, err := e.Explain(t); return err }
	case shahin.Anchor:
		cov := anchor.CoverageRows(st, r.env.pool, 1000, rng)
		e := anchor.New(st, cls, cov, anchor.Config{MaxPulls: 2000, BatchPulls: 25}, rng)
		name, one = "anchor", func(t []float64) error { _, err := e.Explain(t); return err }
	}
	i := 0
	var err error
	d, _ := r.replay(name+".Explain", 1, func() {
		if e := one(tuples[i%len(tuples)]); e != nil {
			err = e
		}
		i++
	})
	if err != nil {
		return fmt.Errorf("replaying %s.Explain: %w", name, err)
	}
	r.layer[name+".explain_ms"] = d / 1e6
	return nil
}

// replayExact times the TreeSHAP walk the fleet's exact fifth takes.
func (r *run) replayExact(tuples [][]float64) error {
	e, err := exact.New(r.env.stats, r.env.forest, exact.Config{Seed: r.seed + 31})
	if err != nil {
		return fmt.Errorf("replaying exact: %w", err)
	}
	i := 0
	d, _ := r.replay("exact.Explain", 20, func() {
		if _, e := e.Explain(tuples[i%len(tuples)]); e != nil {
			err = e
		}
		i++
	})
	if err != nil {
		return fmt.Errorf("replaying exact: %w", err)
	}
	r.layer["exact.explain_us"] = d / 1e3
	r.layer["exact.node_visits_per_explanation"] = float64(e.NodeVisits()) / float64(i)
	return nil
}

// replayStore times the explanation store on answers the fleet gave.
func (r *run) replayStore(tuples [][]float64, exps []shahin.Explanation) error {
	st := store.New()
	i := 0
	d, _ := r.replay("store.Put", len(tuples), func() {
		st.Put(tuples[i%len(tuples)], exps[i%len(tuples)])
		i++
	})
	r.layer["store.put_ns"] = d
	d, _ = r.replay("store.Get", 2000, func() {
		st.Get(tuples[i%len(tuples)])
		i++
	})
	r.layer["store.get_ns"] = d
	var buf bytes.Buffer
	var err error
	d, _ = r.replay("store.Save", 1, func() {
		buf.Reset()
		if e := st.Save(&buf); e != nil {
			err = e
		}
	})
	r.layer["store.save_ms"] = d / 1e6
	d, _ = r.replay("store.Load", 1, func() {
		if _, e := store.Load(bytes.NewReader(buf.Bytes())); e != nil {
			err = e
		}
	})
	r.layer["store.load_ms"] = d / 1e6
	if err != nil {
		return fmt.Errorf("replaying store: %w", err)
	}
	return nil
}

// replayRouter times the routing decision: itemset signature, then ring
// lookup, for a two-replica ring.
func (r *run) replayRouter(tuples [][]float64) {
	items := make([][]dataset.Item, len(tuples))
	for i, t := range tuples {
		items[i] = r.env.stats.ItemizeRow(t, nil)
	}
	ring := router.NewRing(2, router.DefaultVNodes)
	i := 0
	var sig uint64
	d, _ := r.replay("router.Signature", 2000, func() {
		sig = router.Signature(items[i%len(items)])
		i++
	})
	r.layer["router.signature_ns"] = d
	d, _ = r.replay("router.Ring.Lookup", 2000, func() {
		ring.Lookup(sig + uint64(i))
		i++
	})
	r.layer["router.lookup_ns"] = d
}
