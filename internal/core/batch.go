package core

import (
	"context"
	"math/rand"
	"slices"
	"sync"
	"time"

	"shahin/internal/cache"
	"shahin/internal/dataset"
	"shahin/internal/fim"
	"shahin/internal/obs"
	"shahin/internal/perturb"
	"shahin/internal/rf"
	"shahin/internal/sample"
)

// Batch is Shahin's batch variant: given the whole set of tuples up
// front, it mines frequent itemsets over a uniform sample and serves
// labelled perturbations frozen on them to every tuple's explanation
// (Algorithms 1–3 of the paper). A pooled itemset is labelled the first
// time it is read: LIME and KernelSHAP runs know what their tuples'
// ForTuple selections reach, so a demand pass fills those before any
// tuple is explained; Anchor's beam decides what it reads as it runs, so
// its pool fills as the search reads it.
type Batch struct{ runner }

// NewBatch creates a batch explainer over the training statistics and a
// black-box classifier.
func NewBatch(st *dataset.Stats, cls rf.Classifier, opts Options) (*Batch, error) {
	r, err := newRunner("NewBatch", st, cls, opts)
	if err != nil {
		return nil, err
	}
	return &Batch{r}, nil
}

// ExplainAll explains every tuple of the batch and returns the
// explanations in input order together with the run's cost report.
func (b *Batch) ExplainAll(tuples [][]float64) (*Result, error) {
	return b.ExplainAllCtx(context.Background(), tuples)
}

// ExplainAllCtx is ExplainAll under a context: cancelling ctx stops the
// run between predictions and returns the explanations finished so far
// as a partial *Result alongside ctx.Err(). Tuples not attempted (and
// ones cut off mid-explanation) carry StatusFailed; the partial Report
// still satisfies the event-reconciliation identity. With a background
// context and no Options.Fault it answers exactly as ExplainAll.
func (b *Batch) ExplainAllCtx(ctx context.Context, tuples [][]float64) (*Result, error) {
	if err := b.admit(tuples); err != nil {
		return nil, err
	}
	opts := b.opts
	rng := rand.New(rand.NewSource(opts.Seed))
	f := b.begin(ctx, rng, obs.StageBatch, len(tuples))
	defer f.span.End()
	f.span.SetAttr("explainer", opts.Explainer.String())
	eng := f.eng
	var rep Report
	ps, err := b.buildPool(f, rng, tuples, &rep)
	if err != nil {
		return nil, err
	}
	ps.attach(eng)

	// Step 3: explain every tuple, reusing pooled work.
	rep.Tuples, rep.ExactFallback = len(tuples), b.exactFallback
	out, costs, err := ps.step(eng).explainAll(f, ps, tuples, &rep)
	if err != nil {
		return nil, err
	}
	var a obs.AllocDelta
	rep.WallTime, a = f.end()
	rep.AllocBytes, rep.AllocObjects = a.Bytes, a.Objects
	return &Result{Explanations: out, Report: rep, Costs: costs}, ctx.Err()
}

// explainParallel runs the per-tuple steps on the pool's Options.Workers
// goroutines, filling out (and costs, when non-nil) in place. Each worker
// gets its own engine forked from eng, its own pool view over a frozen
// snapshot of the repository — everything the demand pass filled, so a
// worker's tuples read what a serial run's would — and its own report to
// charge, so no synchronisation is needed on the hot path; the strided
// index partition keeps writes disjoint. Cancelling ctx stops every
// worker between tuples; slots never attempted are marked StatusFailed.
func explainParallel(ctx context.Context, eng *engine, ps *poolState, tuples [][]float64, out []Explanation, costs []Cost, rep *Report) error {
	workers := min(ps.opts.Workers, len(tuples))
	snap := ps.repo.Snapshot()
	reps := make([]Report, workers)
	errs := make([]error, workers)
	attempted := make([]bool, len(tuples))
	var wg sync.WaitGroup
	for w := range reps {
		weng := eng.worker(w)
		weng.fb.setPool(snap, ps.sets)
		step := &tupleStep{eng: weng, pool: newItemsetPool(snap, ps.sets)}
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(tuples) && ctx.Err() == nil && errs[w] == nil; i += workers {
				attempted[i] = true
				errs[w] = step.into(i, tuples[i], out, costs, &reps[w])
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Retrieval ran concurrently: its share of the wall is the mean.
	var sum Report
	for _, r := range reps {
		sum.add(r)
	}
	sum.OverheadTime /= time.Duration(workers)
	rep.add(sum)
	if ctx.Err() != nil {
		for i := range out {
			if !attempted[i] {
				markFailed(out[i:i+1], rep)
			}
		}
	}
	return nil
}

// effectiveSupport raises the relative support threshold so that the
// absolute count is at least 5: on tiny mining samples a minimum count of
// one or two would declare almost every observed item frequent and blow
// up candidate generation.
func effectiveSupport(minSupport float64, rows int) float64 {
	if rows <= 0 {
		return minSupport
	}
	if floor := 5.0 / float64(rows); floor > minSupport {
		if floor > 1 {
			return 1
		}
		return floor
	}
	return minSupport
}

// poolBudget estimates how many classifier invocations pool construction
// may spend: one fifth of the expected sequential cost of the batch.
func poolBudget(opts Options, batch int) int {
	perTuple := 0
	switch opts.Explainer {
	case LIME:
		perTuple = opts.LIME.NumSamples
		if perTuple <= 0 {
			perTuple = 1000
		}
	case SHAP:
		perTuple = opts.SHAP.NumSamples
		if perTuple <= 0 {
			perTuple = 1024
		}
	case Anchor:
		// Sequential Anchor's per-tuple cost is workload dependent; a few
		// hundred pulls is typical for easy concepts at default (ε, δ).
		perTuple = 300
	}
	return batch * perTuple / 5
}

// buildPool is steps 1–2 of a batch run (overhead, then pool
// construction), under f, charged to rep: itemise every tuple, mine a
// uniform sample of them — max(1000, 1%) per the paper's heuristic — and
// fill: what the tuples' ForTuple selections reach (fillDemanded), or for
// Anchor, what its search reads as it runs. The exact TreeSHAP path
// neither perturbs nor pools: it mines nothing and gets an empty pool its
// engines never draw from.
func (b *Batch) buildPool(f *frame, rng *rand.Rand, tuples [][]float64, rep *Report) (*poolState, error) {
	eng := f.eng
	ps := newPoolState(b.opts, eng.cls.NumClasses(), len(tuples))
	gen := perturb.NewGenerator(b.st, rng)
	var rows []dataset.Itemset
	if b.opts.Explainer != ExactSHAP {
		rows = itemize(b.st, tuples)
	}
	var demand func(*Report) int
	if eng.reuseCap() > 0 {
		demand = func(d *Report) int { return ps.fillDemanded(f.ctx, eng, gen, rows, d) }
	} else if ps.sh != nil {
		ps.fillOnMatch(eng, gen, rep)
	}
	_, d, err := ps.refresh(func() []dataset.Itemset {
		if rows == nil {
			return nil
		}
		return sampleRows(rows, fim.SampleSize(len(rows)), rng)
	}, false, demand, f.span)
	rep.add(d)
	return ps, err
}

// fillDemanded is a batch's demand pass, run by refresh inside its
// pool-build stage and charged to d: through the fill fillOnMatch installs,
// it walks each row's ForTuple selection under the engine's reuse cap —
// what the row's explanation will ask the pool first — so every itemset a
// selection reaches is filled. A selection depends on the row's items,
// the pool's order and τ, never on a label, so each tuple's explanation
// later walks the same one; a fill that fails drops its itemset, as on a
// stream, and no selection walks it again. The walk reads the repository
// by Peek (it is no tuple's read) and charges what it serves to no tuple.
// Afterwards the fill is taken out and the pool holds only what was
// filled, in mining order: the repository the workers snapshot is fixed.
// Cancelling ctx stops the pass between rows. It returns how many
// itemsets are pooled.
func (ps *poolState) fillDemanded(ctx context.Context, eng *engine, gen *perturb.Generator, rows []dataset.Itemset, d *Report) int {
	ps.fillOnMatch(eng, gen, d)
	ps.pool.repo = peeked{ps.repo}
	reuse := eng.reuseCap()
	var c Cost
	for _, items := range rows {
		if ctx.Err() != nil {
			break
		}
		ps.pool.beginTuple(&c)
		ps.pool.ForTuple(items, reuse)
	}
	ps.pool.repo, ps.pool.fill = ps.repo, nil
	ps.setSets(slices.DeleteFunc(slices.Clone(ps.sets), func(s dataset.Itemset) bool { return !ps.repo.Contains(s.Key()) }))
	return len(ps.sets)
}

// peeked reads a repository by Peek.
type peeked struct{ *cache.Repo }

// Get implements sampleSource.
func (p peeked) Get(key dataset.ItemsetKey) ([]perturb.Pooled, bool) { return p.Peek(key) }

// itemize itemises every tuple into one slab.
func itemize(st *dataset.Stats, tuples [][]float64) []dataset.Itemset {
	p := st.NumAttrs()
	slab := make([]dataset.Item, len(tuples)*p)
	rows := make([]dataset.Itemset, len(tuples))
	for i, t := range tuples {
		rows[i] = st.ItemizeRow(t, slab[i*p:i*p:(i+1)*p])
	}
	return rows
}

// sampleRows is a uniform sample of n of the rows.
func sampleRows(rows []dataset.Itemset, n int, rng *rand.Rand) []dataset.Itemset {
	idx := sample.UniformIndices(rng, len(rows), n)
	out := make([]dataset.Itemset, len(idx))
	for i, ri := range idx {
		out[i] = rows[ri]
	}
	return out
}
