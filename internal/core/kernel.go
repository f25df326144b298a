package core

import (
	"context"
	"fmt"
	"time"

	"shahin/internal/cache"
	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/explain/anchor"
	"shahin/internal/fim"
	"shahin/internal/obs"
	"shahin/internal/perturb"
)

// poolState is the pool of pre-labelled perturbations a runner maintains:
// Batch builds one per call, Stream and Warm keep theirs for life. Which
// rows are mined, and when, is the runner's window policy; everything
// done with them — mine, cap, evict, fill — is refresh.
type poolState struct {
	opts Options

	// repo holds τ labelled perturbations per pooled itemset. On Anchor
	// runs it is sh.Repo, which Anchor's own pulls also write to, and sh
	// carries the rule-invariant cache beside it.
	repo *cache.Repo
	sh   *anchor.Shared
	// sets are the pooled itemsets in mining order (shortest first, then
	// highest support), at most maxSets of them.
	sets    []dataset.Itemset
	maxSets int
	// cov is the rows last mined (see coverage).
	cov []dataset.Itemset
	// complete records that the last refresh ran to its end: every itemset
	// it mined is pooled. A refresh cut short by cancellation leaves it
	// false, and the runner retries over the same window.
	complete bool
}

// newPoolState creates an empty pool for a classifier with nClasses
// classes, sized for runs that see window tuples between refreshes.
func newPoolState(opts Options, nClasses, window int) *poolState {
	ps := &poolState{opts: opts, maxSets: poolCap(opts, window)}
	if opts.Explainer == Anchor {
		ps.sh = anchor.NewShared(nClasses, opts.CacheBytes)
		ps.repo = ps.sh.Repo
	} else {
		ps.repo = cache.NewRepo(opts.CacheBytes)
	}
	ps.repo.SetHooks(cacheHooks(opts.Recorder))
	return ps
}

// coverage returns the sample Anchor measures rule coverage against: the
// rows last mined or, before the first mine, the runner's window so far.
func (ps *poolState) coverage(window []dataset.Itemset) []dataset.Itemset {
	if ps.cov == nil {
		return window
	}
	return ps.cov
}

// poolCap is how many itemsets a pool may hold: MaxItemsets, and — the
// paper sets τ "automatically based on the resource constraints" — no
// more than pre-labelling can pay for out of a fifth of the window's
// estimated sequential classifier budget (but at least ten), so small
// windows are not swamped by pool construction.
func poolCap(opts Options, window int) int {
	n := opts.MaxItemsets
	if !opts.DisablePoolBudget {
		n = min(n, max(10, poolBudget(opts, window)/opts.Tau))
	}
	return n
}

// refresh brings the pool in line with the rows window returns: mine
// their frequent itemsets (and negative border, when asked), keep the
// first maxSets, evict repository entries that fell infrequent ("any
// frequent itemset that becomes infrequent is kicked out along its
// perturbations", §3.5), and materialise the ones not yet present. The
// mine, pool-build and pre-label spans open under parent; the returned
// report carries what the refresh cost and how many itemsets are pooled.
// Cancelling ctx stops the fill at the itemset being labelled, which is
// not stored; what was pooled before stays, and complete turns false.
func (ps *poolState) refresh(ctx context.Context, eng *engine, gen *perturb.Generator, window func() []dataset.Itemset, border bool, parent *obs.Span) ([]fim.Mined, Report, error) {
	rec := ps.opts.Recorder
	var (
		d    Report
		mark obs.AllocMark
	)
	if rec != nil {
		mark = obs.NowAllocs()
	}
	mineSpan := parent.Child(obs.StageMine)
	mineStart := time.Now() //shahinvet:allow walltime — stage timing feeds the obs report layer
	rows := window()
	mined, err := fim.Mine(rows, fim.Config{
		MinSupport:  effectiveSupport(ps.opts.MinSupport, len(rows)),
		MaxLen:      ps.opts.MaxItemsetLen,
		WithBorder:  border,
		MaxPerLevel: 4 * ps.opts.MaxItemsets,
	})
	d.MineTime = time.Since(mineStart)
	d.OverheadTime = d.MineTime
	if err != nil {
		mineSpan.End()
		return nil, d, fmt.Errorf("core: mining frequent itemsets: %w", err)
	}
	frequent := mined.Frequent
	if len(frequent) > ps.maxSets {
		frequent = frequent[:ps.maxSets]
	}
	mineSpan.SetAttr("frequent_itemsets", len(frequent))
	mineSpan.End()

	if ps.repo.Len() > 0 {
		keep := make(map[dataset.ItemsetKey]bool, len(frequent))
		for _, m := range frequent {
			keep[m.Set.Key()] = true
		}
		for _, key := range ps.repo.Keys() {
			if !keep[key] {
				ps.repo.Delete(key)
			}
		}
	}

	poolSpan := parent.Child(obs.StagePoolBuild)
	preLabelSpan := poolSpan.Child(obs.StagePreLabel)
	sets := make([]dataset.Itemset, 0, len(frequent))
	materialised := 0
	for _, m := range frequent {
		if !ps.repo.Contains(m.Set.Key()) {
			if ctx.Err() != nil || !ps.materialize(eng, gen, m.Set, m.Support, &d) {
				break
			}
			materialised++
		}
		sets = append(sets, m.Set)
	}
	preLabelSpan.End()
	poolSpan.SetAttr("pool_invocations", d.PoolInvocations)
	poolSpan.End()
	if rec != nil {
		a := mark.Since()
		d.PoolAllocBytes, d.PoolAllocObjects = a.Bytes, a.Objects
	}
	if materialised > 0 {
		rec.Emit(obs.Event{
			Type: obs.EventPoolBuild, Tuple: -1, Itemsets: materialised,
			Fresh: d.PoolInvocations, DurMS: ms(d.PoolTime),
		})
	}
	ps.sets, ps.cov, ps.complete = sets, rows, len(sets) == len(frequent)
	d.FrequentItemsets = len(sets)
	return mined.Border, d, nil
}

// materialize generates τ perturbations frozen on set, labels them
// through eng's counting classifier and stores them (Algorithm 1, lines
// 2–4). For Anchor their class histogram also seeds the rule's
// precision in the invariant cache and the mined support doubles as its
// coverage (Algorithm 2, line 3); support < 0 means unknown — a border
// promotion. What the labelling cost is added to rep. If the context the
// engine predicts under died on the way, some labels are the bridge's
// guesses: nothing is stored and materialize reports false.
func (ps *poolState) materialize(eng *engine, gen *perturb.Generator, set dataset.Itemset, support float64, rep *Report) bool {
	start := time.Now() //shahinvet:allow walltime — pool-build timing feeds the obs report layer and the event log
	eng.beginTuple()
	inv0 := eng.invocations()
	samples := make([]perturb.Sample, ps.opts.Tau)
	var hist []int
	if ps.sh != nil {
		hist = make([]int, eng.cls.NumClasses())
	}
	for j := range samples {
		s := gen.ForItemset(set)
		s.Label = eng.cls.Predict(s.Row)
		if hist != nil {
			hist[s.Label]++
		}
		samples[j] = s
	}
	stored := !eng.canceled()
	if stored {
		if ps.sh != nil {
			rr, _ := ps.sh.Inv.Lookup(set.Key())
			rr.AddTrials(hist)
			if support >= 0 {
				rr.Coverage, rr.HasCoverage = support, true
			}
		}
		ps.repo.Put(set.Key(), samples)
	}

	dur, fresh := time.Since(start), eng.invocations()-inv0
	rep.PoolTime += dur
	rep.PoolInvocations += fresh
	if rec := ps.opts.Recorder; rec != nil {
		rec.Counter(obs.CounterPoolInvocations).Add(fresh)
		rec.Emit(obs.Event{
			Type: obs.EventPreLabel, Tuple: -1, Itemset: set.String(),
			Fresh: fresh, DurMS: ms(dur),
		})
	}
	return stored
}

// emitRemine records that a long-lived pool was refreshed; d is the
// report that refresh returned.
func emitRemine(rec *obs.Recorder, d Report) {
	rec.Emit(obs.Event{
		Type: obs.EventRemine, Tuple: -1, Itemsets: d.FrequentItemsets,
		Fresh: d.PoolInvocations, DurMS: ms(d.MineTime + d.PoolTime),
	})
}

// step returns the per-tuple step that explains against the live
// repository through eng: a pool view for the perturbation explainers,
// the shared caches for Anchor.
func (ps *poolState) step(eng *engine) *tupleStep {
	s := &tupleStep{eng: eng, sh: ps.sh}
	if ps.sh == nil {
		s.pool = newItemsetPool(ps.repo, ps.sets, ps.opts.Recorder)
	}
	return s
}

// tuplePool is what the per-tuple step needs of a pool: serve samples,
// and say afterwards what it served.
type tuplePool interface {
	explain.Pool
	// nothingPooled reports that the pool has nothing to serve and learns
	// nothing from being asked. (Not "empty": the linker keeps every
	// reachable type's method that shares an interface method's name
	// and signature, and the standard library has several of those.)
	nothingPooled() bool
	// beginTuple resets the per-tuple consumption allowance.
	beginTuple()
	// provenance reports samples served and repository hits since
	// beginTuple, and the first itemset that served ("" for none).
	provenance() (pooled, hits int64, matched string)
	// retrievalSince reports time spent retrieving since beginTuple.
	retrievalSince() time.Duration
	// totals reports samples served and retrieval time over the pool's
	// lifetime.
	totals() (reused int64, retrieval time.Duration)
}

// tupleStep explains one tuple: it owns what one worker owns — an
// engine, and the pool or Anchor state that engine draws on — and does
// the bookkeeping every explanation gets wherever it runs.
type tupleStep struct {
	eng  *engine
	pool tuplePool      // nil: nothing pooled (Sequential, Anchor, the exact path on a stream)
	sh   *anchor.Shared // nil: Anchor (if that is the kind) runs on fresh per-tuple caches
}

// run explains tuple number i: the timed explanation, its status, the
// latency histogram and done counter, the provenance event, and the
// attribution of its time across pool sampling, classification and the
// solver remainder (which sums to the explanation's duration).
func (s *tupleStep) run(i int, t []float64) (Explanation, obs.StageBreakdown, error) {
	eng, rec := s.eng, s.eng.opts.Recorder
	if s.pool != nil {
		s.pool.beginTuple()
	}
	eng.beginTuple()
	inv0, nv0, cls0 := eng.invocations(), eng.nodeVisits(), eng.classifyTime()
	var hits0 int64
	if rec != nil && s.sh != nil {
		hits0 = s.sh.Repo.Stats().Hits
	}
	// An explainer handed an empty pool still pays for asking it (SHAP
	// builds a query per coalition), so it is handed none.
	var pool explain.Pool
	if s.pool != nil && !s.pool.nothingPooled() {
		pool = s.pool
	}
	start := time.Now() //shahinvet:allow walltime — per-tuple latency feeds the obs histogram and the report's explain time
	exp, err := eng.explain(t, pool, s.sh)
	dur := time.Since(start)
	if err != nil {
		return Explanation{}, obs.StageBreakdown{}, fmt.Errorf("core: explaining tuple %d: %w", i, err)
	}
	exp.Status = eng.tupleStatus()

	bd := obs.StageBreakdown{Classify: eng.classifyTime() - cls0}
	if s.pool != nil {
		bd.PoolSample = s.pool.retrievalSince()
	}
	bd.Solve = max(0, dur-bd.Classify-bd.PoolSample)
	if rec == nil {
		return exp, bd, nil
	}
	eng.tupleHist.Observe(dur)
	eng.doneCtr.Inc()
	ev := obs.Event{
		Type: obs.EventTupleExplained, Tuple: i,
		Explainer: eng.opts.Explainer.String(),
		Fresh:     eng.invocations() - inv0,
		DurMS:     ms(dur),
	}
	stages := bd // a copy, so bd stays off the heap on uninstrumented runs
	ev.Stages = &stages
	switch {
	case eng.exact != nil:
		// The exact path's provenance unit is tree-node visits, not
		// pooled samples.
		ev.Type = obs.EventExactShap
		ev.NodeVisits = eng.nodeVisits() - nv0
	case s.pool != nil:
		ev.Pooled, ev.CacheHits, ev.Itemset = s.pool.provenance()
	case s.sh != nil:
		ev.CacheHits = s.sh.Repo.Stats().Hits - hits0
	}
	if exp.Status != StatusOK {
		ev.Status = exp.Status.String()
	}
	rec.ObserveStages(bd)
	rec.Emit(ev)
	return exp, bd, nil
}

// collect adds what the step's engine and pool counted over their
// lifetime to rep.
func (s *tupleStep) collect(rep *Report) {
	rep.Invocations += s.eng.invocations()
	rep.NodeVisits += s.eng.nodeVisits()
	if s.pool != nil {
		reused, retrieval := s.pool.totals()
		rep.ReusedSamples += reused
		rep.OverheadTime += retrieval
	}
}

// markFailed marks explanations that were never attempted.
func markFailed(out []Explanation) {
	for i := range out {
		out[i].Status = StatusFailed
	}
}

// Finished keeps the tuple/explanation pairs a cancelled run answered.
// Every runner marks the slots it did not reach StatusFailed before it
// returns (TestCancelAtEveryTuple), so the status alone decides: what
// shahin-store flushes from an interrupted build and what serve writes
// to its store follow this one rule.
func Finished(tuples [][]float64, exps []Explanation) ([][]float64, []Explanation) {
	var (
		ts [][]float64
		es []Explanation
	)
	for i, e := range exps {
		if e.Status != StatusFailed {
			ts = append(ts, tuples[i])
			es = append(es, e)
		}
	}
	return ts, es
}

// runSerial explains the tuples in order on the caller's goroutine.
// Cancelling ctx stops it between tuples; the ones not attempted are
// marked StatusFailed.
func (s *tupleStep) runSerial(ctx context.Context, tuples [][]float64, out []Explanation, bds []obs.StageBreakdown) error {
	for i, t := range tuples {
		if ctx.Err() != nil {
			markFailed(out[i:])
			return nil
		}
		exp, bd, err := s.run(i, t)
		if err != nil {
			return err
		}
		out[i] = exp
		if bds != nil {
			bds[i] = bd
		}
	}
	return nil
}

// explainAll is the explain phase of every runner that is handed its
// tuples up front: the explain span, the per-tuple steps — on
// Options.Workers goroutines over a frozen snapshot when ps is a
// perturbation pool, serially through s otherwise — and the report
// fields that follow from the explanations. ps is nil for runners that
// maintain no pool. start is when the run began.
func (s *tupleStep) explainAll(ctx context.Context, parent *obs.Span, ps *poolState, tuples [][]float64, start time.Time, rep *Report) ([]Explanation, []obs.StageBreakdown, error) {
	rec := s.eng.opts.Recorder
	span := parent.Child(obs.StageExplain)
	defer span.End()
	explainStart := time.Now() //shahinvet:allow walltime — stage timing feeds the obs report layer
	out := make([]Explanation, len(tuples))
	var (
		bds  []obs.StageBreakdown
		mark obs.AllocMark
	)
	if rec != nil {
		bds = make([]obs.StageBreakdown, len(tuples))
		mark = obs.NowAllocs()
	}
	var err error
	if ps != nil && ps.sh == nil && ps.opts.Workers > 1 {
		// s.eng only built the pool; its calls count once, the workers'
		// engines count their own.
		rep.Invocations += s.eng.invocations()
		err = explainParallel(ctx, s.eng, ps, tuples, out, bds, rep)
	} else {
		err = s.runSerial(ctx, tuples, out, bds)
		s.collect(rep)
	}
	if err != nil {
		return nil, nil, err
	}
	rep.ExplainTime = time.Since(explainStart)
	if rec != nil {
		a := mark.Since()
		rep.ExplainAllocBytes, rep.ExplainAllocObjects = a.Bytes, a.Objects
	}
	for i := range out {
		rep.count(out[i].Status)
	}
	if fb := s.eng.fb; fb != nil {
		rep.Retries = fb.chain.Stats().Retries
	}
	if ps != nil {
		rep.Cache = ps.repo.Stats()
		rep.FrequentItemsets = len(ps.sets)
	}
	rep.WallTime = time.Since(start)
	return out, bds, nil
}
