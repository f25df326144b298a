package core

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync/atomic"
	"time"

	"shahin/internal/cache"
	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/explain/anchor"
	"shahin/internal/explain/exact"
	"shahin/internal/fim"
	"shahin/internal/obs"
	"shahin/internal/perturb"
	"shahin/internal/rf"
)

// poolState is the pool of pre-labelled perturbations a runner maintains,
// and the window of tuples it is next mined from: Batch builds one per
// call, a Stream (and so a Warm) keeps one for life. Which rows of the
// window are mined, and when, is the runner's policy; everything done
// with them — mine, cap, evict, and fill unless the pool is lazy — is
// refresh, and everything a stream does around a refresh is renew.
type poolState struct {
	opts Options

	// repo holds τ labelled perturbations per pooled itemset. On Anchor
	// runs it is sh.Repo, which Anchor's own pulls also write to, and sh
	// carries the rule-invariant cache beside it.
	repo *cache.Repo
	sh   *anchor.Shared
	// sets are the pooled itemsets in mining order (shortest first, then
	// highest support), at most maxSets of them; pool is the perturbation
	// explainers' view of repo and sets (nil for Anchor). setSets moves both.
	sets    []dataset.Itemset
	pool    *itemsetPool
	maxSets int
	// row is materialize's scratch: each perturbation is labelled in it.
	row []float64
	// window is the itemised tuples observed since the last complete
	// renew; cov is the rows last mined (see attach).
	window, cov []dataset.Itemset
	// complete records that the last refresh ran to its end: every itemset
	// it mined is pooled. A refresh cut short by cancellation leaves it
	// false, and the stream retries over the same window. renews counts
	// the renews that were complete (atomic: Warm's accessor reads it
	// while a flush runs).
	complete bool
	renews   atomic.Int64
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
		ps.pool = newItemsetPool(ps.repo, nil)
	}
	ps.repo.SetHooks(cacheHooks(opts.Recorder))
	return ps
}

// setSets records which itemsets the repository now holds.
func (ps *poolState) setSets(sets []dataset.Itemset) {
	ps.sets = sets
	if ps.pool != nil {
		ps.pool.setItemsets(sets)
	}
}

// observe itemises t into the window and returns its items.
func (ps *poolState) observe(st *dataset.Stats, t []float64) dataset.Itemset {
	items := append(dataset.Itemset(nil), st.ItemizeRow(t, nil)...)
	ps.window = append(ps.window, items)
	return items
}

// attach points eng at the pool as it now stands: the degradation ladder
// at what is materialised, Anchor at the sample rule coverage is measured
// against — the rows last mined or, before the first mine, the window so
// far.
func (ps *poolState) attach(eng *engine) {
	eng.fb.setPool(ps.repo, ps.sets)
	cov := ps.cov
	if cov == nil {
		cov = ps.window
	}
	eng.setCoverage(cov)
}

// renew refreshes a stream's pool over its window — border included,
// unless warmUp — charging rep and recording the remine event. A
// complete refresh is counted and starts a new window (the mined rows
// stay behind as the coverage sample); one cut short is not counted and
// keeps its window, so the next renew finishes the job. A warm-up renew
// is neither counted nor starts a new window. It returns the negative
// border refresh mined. Config is validated at construction, so mining
// a non-empty window cannot fail; if it somehow does, the old pool and
// window stay.
func (ps *poolState) renew(ctx context.Context, eng *engine, gen *perturb.Generator, warmUp bool, parent *obs.Span, rep *Report) ([]fim.Mined, error) {
	border, d, err := ps.refresh(ctx, eng, gen, func() []dataset.Itemset { return ps.window }, !warmUp, nil, parent)
	rep.add(d)
	if err != nil {
		return nil, err
	}
	ps.opts.Recorder.Emit(obs.Event{
		Type: obs.EventRemine, Tuple: -1, Itemsets: d.FrequentItemsets,
		Fresh: d.PoolInvocations, DurMS: ms(d.MineTime + d.PoolTime),
	})
	if ps.complete && !warmUp {
		ps.window = make([]dataset.Itemset, 0, len(ps.window))
		ps.renews.Add(1)
	}
	return border, nil
}

// warmUp reports whether a lazy pool should mine its window although no
// renew is due: until its first complete renew, each time the window
// reaches a power of two of at least 16 (where the 10 % support is
// already refresh's floor of five rows) and below every, the renew
// period. A lazy pool labels an itemset only when a tuple contains it,
// so a warm-up mine costs the mine alone; an eager one would label τ
// samples per itemset that no tuple may ask for.
func (ps *poolState) warmUp(every int) bool {
	n := len(ps.window)
	return ps.lazy() && ps.renews.Load() == 0 && n >= 16 && n < every && n&(n-1) == 0
}

// promote pools set, a border itemset whose running frequency crossed
// the threshold, between renews if there is room and, if eager, the
// classifier labelled all samples.
func (ps *poolState) promote(eng *engine, gen *perturb.Generator, set dataset.Itemset, rep *Report) bool {
	if ps.lazy() {
		if len(ps.sets) >= ps.maxSets {
			return false
		}
	} else if ps.repo.Len() >= ps.maxSets || !ps.materialize(eng, gen, set, -1, rep) {
		return false
	}
	ps.setSets(append(ps.sets, set))
	return true
}

// fillOnMatch makes the pool lazy, as a stream's is: refresh and promote
// record itemsets without labelling them, and the first tuple that
// contains one the repository does not hold (never filled, or evicted)
// fills it through materialize, as a unit of its own charged to rep. A
// fill that stores nothing takes its itemset out of the pool until the
// next renew: an outage costs at most one failed fill per itemset per
// window. A batch's pool is lazy only for its demand pass
// (fillDemanded); Anchor's stays eager (its repository also takes its
// own pulls).
func (ps *poolState) fillOnMatch(eng *engine, gen *perturb.Generator, rep *Report) {
	if ps.pool == nil {
		return
	}
	ps.pool.fill = func(set dataset.Itemset) (time.Duration, bool) {
		if ps.repo.Contains(set.Key()) {
			return 0, true
		}
		if eng.dead() {
			return 0, false
		}
		stored := false
		d := eng.aside(func() { stored = ps.materialize(eng, gen, set, -1, rep) })
		if !stored {
			ps.setSets(slices.DeleteFunc(slices.Clone(ps.sets), func(s dataset.Itemset) bool { return slices.Equal(s, set) }))
		}
		return d, stored
	}
}

// lazy reports whether the pool is filled at first match (fillOnMatch)
// rather than at refresh.
func (ps *poolState) lazy() bool { return ps.pool != nil && ps.pool.fill != nil }

// poolCap is how many itemsets a pool may hold: MaxItemsets, and — the
// paper sets τ "automatically based on the resource constraints" — no
// more than pre-labelling can pay for out of a fifth of the window's
// estimated sequential classifier budget (but at least ten), so small
// windows are not swamped by pool construction.
func poolCap(opts Options, window int) int {
	return min(opts.MaxItemsets, max(10, poolBudget(opts, window)/opts.Tau))
}

// minSupport and maxItemsetLen are what refresh mines for: itemsets of
// at most three items, each held by a tenth of the rows.
const (
	minSupport    = 0.1
	maxItemsetLen = 3
)

// refresh brings the pool in line with the rows window returns: mine
// the first maxSets of their frequent itemsets (and the first
// MaxItemsets of the negative border, when asked), evict repository
// entries that fell infrequent ("any frequent itemset that becomes
// infrequent is kicked out along its perturbations", §3.5), and label:
// given demand, the rows whose ForTuple selections a batch will walk,
// what those reach (fillDemanded); otherwise, unless the pool is lazy,
// every mined itemset not yet present. Mine and pool-build stages open
// under parent; the report carries their cost and how many itemsets are
// pooled. Cancelling ctx, or a label the classifier did not give, stops
// an eager fill at the itemset being labelled, which is not stored; what
// was pooled before stays, and complete turns false.
func (ps *poolState) refresh(ctx context.Context, eng *engine, gen *perturb.Generator, window func() []dataset.Itemset, border bool, demand []dataset.Itemset, parent *obs.Span) ([]fim.Mined, Report, error) {
	rec := ps.opts.Recorder
	var d Report
	mine := beginStage(rec, parent, obs.StageMine)
	rows := window()
	mined, err := fim.Mine(rows, fim.Config{
		MinSupport:  effectiveSupport(minSupport, len(rows)),
		MaxLen:      maxItemsetLen,
		WithBorder:  border,
		MaxPerLevel: 4 * ps.opts.MaxItemsets,
		Keep:        ps.maxSets,
		KeepBorder:  ps.opts.MaxItemsets,
	})
	var frequent []fim.Mined
	if err == nil {
		frequent = mined.Frequent
		mine.span.SetAttr("frequent_itemsets", len(frequent))
	}
	var mineAllocs obs.AllocDelta
	d.MineTime, mineAllocs = mine.end()
	d.OverheadTime = d.MineTime
	if err != nil {
		return nil, d, fmt.Errorf("core: mining frequent itemsets: %w", err)
	}

	build := beginStage(rec, parent, obs.StagePoolBuild)
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
	preLabelSpan := build.span.Child(obs.StagePreLabel)
	sets := make([]dataset.Itemset, 0, len(frequent))
	eager := demand == nil && !ps.lazy()
	materialised := 0
	for _, m := range frequent {
		if eager && !ps.repo.Contains(m.Set.Key()) {
			if ctx.Err() != nil || !ps.materialize(eng, gen, m.Set, m.Support, &d) {
				break
			}
			materialised++
		}
		sets = append(sets, m.Set)
	}
	ps.setSets(sets)
	if demand != nil {
		materialised = ps.fillDemanded(ctx, eng, gen, demand, &d)
	}
	preLabelSpan.End()
	build.span.SetAttr("pool_invocations", d.PoolInvocations)
	_, buildAllocs := build.end()
	d.PoolAllocBytes = mineAllocs.Bytes + buildAllocs.Bytes
	d.PoolAllocObjects = mineAllocs.Objects + buildAllocs.Objects
	if materialised > 0 {
		rec.Emit(obs.Event{
			Type: obs.EventPoolBuild, Tuple: -1, Itemsets: materialised,
			Fresh: d.PoolInvocations, DurMS: ms(d.PoolTime),
		})
	}
	ps.cov, ps.complete = rows, len(sets) == len(frequent)
	d.FrequentItemsets = len(ps.sets)
	return mined.Border, d, nil
}

// materialize is the pool's one labelling path (Algorithm 1, lines 2–4):
// τ perturbations frozen on set, each drawn into the pool's scratch row,
// labelled there through eng's meter and stored as its bins and label —
// at refresh or promotion on an eager pool, at first match on a lazy one.
// The bins of all τ are one slab, each sample's slice capped at one bin
// per attribute. For Anchor their class histogram also seeds the
// rule's precision in the invariant cache and the mined support doubles
// as its coverage (Algorithm 2, line 3); support < 0 means unknown. The
// cost record is folded into rep, the recorder's counters and a
// pre_label event. If any label is the bridge's guess — the backend was
// failing, or the context died on the way — nothing is stored and it
// reports false: a pooled label is served to every later tuple as the
// classifier's own.
//
//shahin:hotpath
func (ps *poolState) materialize(eng *engine, gen *perturb.Generator, set dataset.Itemset, support float64, rep *Report) bool {
	c := eng.begin()
	c.Itemset = set
	sw := stopwatch()
	p := gen.Stats().NumAttrs()
	if len(ps.row) != p {
		ps.row = make([]float64, p)
	}
	samples := make([]perturb.Pooled, ps.opts.Tau)
	slab := make([]uint16, len(samples)*p)
	var hist []int
	if ps.sh != nil {
		hist = make([]int, eng.cls.NumClasses())
	}
	for j := range samples {
		bins := slab[j*p : (j+1)*p : (j+1)*p]
		gen.FillItemset(set, ps.row, bins)
		y := eng.cls.Predict(ps.row)
		if hist != nil {
			hist[y]++
		}
		samples[j] = perturb.Pooled{Bins: bins, Label: y}
	}
	stored := eng.tupleStatus() == StatusOK
	if stored {
		if ps.sh != nil {
			rr, _ := ps.sh.Inv.Lookup(set.Key())
			rr.AddTrials(hist)
			if support >= 0 {
				rr.Coverage, rr.HasCoverage = support, true
			}
		}
		ps.repo.Delete(set.Key()) // replacing what Anchor's own pulls stored under the itemset, if any
		ps.repo.Append(set.Key(), samples)
	}
	c.Duration, _ = sw.end()

	rep.PoolTime += c.Duration
	rep.PoolInvocations += c.Fresh
	rep.Invocations += c.Fresh
	if rec := ps.opts.Recorder; rec != nil {
		rec.Counter(obs.CounterInvocations).Add(c.Fresh)
		rec.Counter(obs.CounterPoolInvocations).Add(c.Fresh)
		rec.Emit(obs.Event{
			Type: obs.EventPreLabel, Tuple: -1, Itemset: set.String(),
			Fresh: c.Fresh, DurMS: ms(c.Duration),
		})
	}
	return stored
}

// step returns the per-tuple step that explains against the live
// repository through eng: the pool view for the perturbation explainers,
// the shared caches for Anchor.
func (ps *poolState) step(eng *engine) *tupleStep {
	s := &tupleStep{eng: eng, sh: ps.sh}
	if ps.pool != nil { // a nil *itemsetPool would make a non-nil tuplePool
		s.pool = ps.pool
	}
	return s
}

// tuplePool is what the per-tuple step needs of a pool: serve samples,
// charging them to the tuple at hand.
type tuplePool interface {
	explain.Pool
	// nothingPooled reports that the pool has nothing to serve and learns
	// nothing from being asked. (Not "empty": the linker keeps every
	// reachable type's method that shares an interface method's name
	// and signature, and the standard library has several of those.)
	nothingPooled() bool
	// beginTuple resets the per-tuple consumption allowance and charges
	// what the pool serves from here on to c.
	beginTuple(c *Cost)
}

// frame is what every run executes in: the root stage (span, wall clock,
// run-wide allocation mark) with the caller's trace adopted onto it, the
// context that carries the span to the fault chain, and the engine over
// the run's fault bridge.
type frame struct {
	stage
	ctx context.Context
	eng *engine
}

// runner is what each of core's entry points runs over: options
// defaulted once, the statistics and classifier checked once, and an
// ExactSHAP request decided once — the prototype the runs' engines fork
// (nil off the exact path), or the downgrade every report is stamped
// with. Batch and Stream embed theirs for life (Warm through its
// Stream); Sequential and Greedy build one per call.
type runner struct {
	opts          Options
	st            *dataset.Stats
	cls           rf.Classifier
	proto         *exact.Explainer
	exactFallback bool
}

// newRunner is the preamble of every entry point; who names it in the
// error.
func newRunner(who string, st *dataset.Stats, cls rf.Classifier, opts Options) (runner, error) {
	if st == nil || cls == nil {
		return runner{}, fmt.Errorf("core: %s needs stats and a classifier", who)
	}
	opts, proto, fellBack := resolveExact(opts.withDefaults(), st, cls)
	return runner{opts: opts, st: st, cls: cls, proto: proto, exactFallback: fellBack}, nil
}

// admit is the one door tuples enter a run by, checked before any state
// moves: a window, a flush number and a pool that outlive the call must
// never see a tuple the explainer will refuse.
func (r *runner) admit(tuples [][]float64) error {
	if len(tuples) == 0 {
		return fmt.Errorf("core: no tuples to explain")
	}
	width := r.st.NumAttrs()
	for i, t := range tuples {
		if len(t) != width {
			return fmt.Errorf("core: tuple %d has %d cells, schema expects %d", i, len(t), width)
		}
	}
	return nil
}

// begin opens a run named name. total is how many tuples the whole run
// will explain: it is what live progress is measured against.
func (r *runner) begin(ctx context.Context, rng *rand.Rand, name string, total int) *frame {
	f := r.open(ctx, name)
	if total > 0 {
		f.span.SetAttr("tuples", total)
		r.opts.Recorder.Gauge(obs.GaugeTuplesTotal).Set(int64(total))
	}
	f.eng = newEngine(r.opts, r.st, rng, buildBridge(f.ctx, r.opts, r.st, r.cls), r.proto)
	return &f
}

// open is begin without the engine and the progress total, for a
// stream, which keeps its own engine.
func (r *runner) open(ctx context.Context, name string) frame {
	f := frame{stage: beginStage(r.opts.Recorder, nil, name)}
	f.ctx = f.enter(ctx)
	return f
}

// enter adopts the trace ctx carries onto the run's root span and returns
// ctx carrying that span, so the fault chain (retries, breaker
// transitions, degradation rungs) can attach child spans under it.
func (f *frame) enter(ctx context.Context) context.Context {
	if tc, ok := obs.TraceFromContext(ctx); ok {
		c := tc.Child()
		f.span.SetTrace(c.TraceID, c.SpanID, tc.SpanID)
	}
	return obs.ContextWithSpan(ctx, f.span)
}

// tupleStep explains one tuple: it owns what one worker owns — an
// engine, and the pool or Anchor state that engine draws on — and does
// the bookkeeping every explanation gets wherever it runs.
type tupleStep struct {
	eng  *engine
	pool tuplePool      // nil: nothing pooled (Sequential, Anchor, the exact path)
	sh   *anchor.Shared // nil: Anchor (if that is the kind) runs on fresh per-tuple caches
}

// run explains tuple number i and returns the explanation with what it
// cost. The record is filled as the explanation runs; what remains of
// its duration after pool sampling and classification is the solver's.
// With a recorder the record is also folded into the live counters, the
// latency and stage histograms and the tuple's provenance event; the
// caller folds it into its report.
func (s *tupleStep) run(i int, t []float64) (Explanation, Cost, error) {
	eng := s.eng
	c := eng.begin()
	// An explainer handed an empty pool still pays for asking it (SHAP
	// builds a query per coalition), so it is handed none.
	var pool explain.Pool
	if s.pool != nil {
		s.pool.beginTuple(c)
		if !s.pool.nothingPooled() {
			pool = s.pool
		}
	}
	sw := stopwatch()
	exp, err := eng.explain(t, pool, s.sh)
	d, _ := sw.end()
	c.Duration = d - c.aside
	if err != nil {
		return Explanation{}, Cost{}, fmt.Errorf("core: explaining tuple %d: %w", i, err)
	}
	c.Status = eng.tupleStatus()
	exp.Status = c.Status
	c.Stages.Solve = c.Duration - c.Stages.Classify - c.Stages.PoolSample

	if rec := eng.opts.Recorder; rec != nil {
		rec.Counter(obs.CounterInvocations).Add(c.Fresh)
		rec.Counter(obs.CounterReusedSamples).Add(c.Pooled)
		rec.Counter(obs.CounterTuplesDone).Inc()
		rec.Histogram(obs.HistExplainTuple).Observe(c.Duration)
		rec.ObserveStages(c.Stages)
		stages := c.Stages // a copy: the record is the engine's, and the next tuple's
		ev := obs.Event{
			Type: obs.EventTupleExplained, Tuple: i,
			Explainer: eng.opts.Explainer.String(),
			Fresh:     c.Fresh, Pooled: c.Pooled, CacheHits: c.CacheHits,
			NodeVisits: c.NodeVisits,
			DurMS:      ms(c.Duration),
			Stages:     &stages,
		}
		if eng.exact != nil {
			ev.Type = obs.EventExactShap
		}
		if c.Itemset != nil {
			ev.Itemset = c.Itemset.String()
		}
		if c.Status != StatusOK {
			ev.Status = c.Status.String()
		}
		rec.Emit(ev)
	}
	return exp, *c, nil
}

// into explains tuple i into its slot of out (and of costs, when the run
// keeps them) and charges rep.
func (s *tupleStep) into(i int, t []float64, out []Explanation, costs []Cost, rep *Report) error {
	exp, c, err := s.run(i, t)
	if err != nil {
		return err
	}
	out[i] = exp
	if costs != nil {
		costs[i] = c
	}
	rep.charge(c)
	return nil
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
func (s *tupleStep) runSerial(ctx context.Context, tuples [][]float64, out []Explanation, costs []Cost, rep *Report) error {
	for i, t := range tuples {
		if ctx.Err() != nil {
			markFailed(out[i:], rep)
			return nil
		}
		if err := s.into(i, t, out, costs, rep); err != nil {
			return err
		}
	}
	return nil
}

// explainAll is the explain phase of every runner that is handed its
// tuples up front: the explain stage, the per-tuple steps — on
// Options.Workers goroutines over a frozen snapshot when ps is a
// perturbation pool and there are tuples for two of them, serially
// through s otherwise — and the report fields that follow from the
// explanations. ps is nil for runners that maintain no pool. The
// per-tuple costs are kept only with a recorder.
func (s *tupleStep) explainAll(f *frame, ps *poolState, tuples [][]float64, rep *Report) ([]Explanation, []Cost, error) {
	rec := s.eng.opts.Recorder
	st := beginStage(rec, f.span, obs.StageExplain)
	defer st.span.End()
	out := make([]Explanation, len(tuples))
	var costs []Cost
	if rec != nil {
		costs = make([]Cost, len(tuples))
	}
	var err error
	if ps != nil && ps.sh == nil && min(ps.opts.Workers, len(tuples)) > 1 {
		err = explainParallel(f.ctx, s.eng, ps, tuples, out, costs, rep)
	} else {
		err = s.runSerial(f.ctx, tuples, out, costs, rep)
	}
	if err != nil {
		return nil, nil, err
	}
	var a obs.AllocDelta
	rep.ExplainTime, a = st.end()
	rep.ExplainAllocBytes, rep.ExplainAllocObjects = a.Bytes, a.Objects
	rep.Retries = s.eng.fb.chain.Retries()
	if ps != nil {
		rep.Cache = ps.repo.Stats()
		rep.FrequentItemsets = len(ps.sets)
	}
	return out, costs, nil
}
