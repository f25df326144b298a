package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"shahin/internal/dataset"
	"shahin/internal/fim"
	"shahin/internal/obs"
	"shahin/internal/rf"
)

// Sequential explains the batch one tuple at a time with no reuse at all:
// the baseline every speedup ratio in the paper is measured against.
// Anchor runs with fresh per-tuple caches; LIME and SHAP get no pool.
func Sequential(st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64) (*Result, error) {
	return SequentialCtx(context.Background(), st, cls, opts, tuples)
}

// SequentialCtx is Sequential under a context: cancellation stops the
// loop between tuples and returns the finished explanations as a
// partial *Result alongside ctx.Err(); unattempted tuples carry
// StatusFailed.
func SequentialCtx(ctx context.Context, st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64) (*Result, error) {
	r, err := newRunner("Sequential", st, cls, opts)
	if err != nil {
		return nil, err
	}
	if err := r.admit(tuples); err != nil {
		return nil, err
	}
	return r.upFront(ctx, obs.StageSequential, tuples, nil)
}

// upFront is the run of every baseline — Sequential, each of Dist's
// machines, and Greedy over its store: the tuples, already admitted, are
// explained in order through one step that draws on pool (nil: nothing
// is reused).
func (r runner) upFront(ctx context.Context, name string, tuples [][]float64, pool tuplePool) (*Result, error) {
	rng := rand.New(rand.NewSource(r.opts.Seed))
	f := r.begin(ctx, rng, name, len(tuples), false)
	defer f.span.End()

	if r.opts.Explainer == Anchor {
		// Anchor still needs a coverage sample; its cost is part of setup
		// for both baseline and Shahin, so the comparison stays fair.
		f.eng.setCoverage(itemizeSample(r.st, tuples, fim.SampleSize(len(tuples)), rng))
	}
	rep := Report{Tuples: len(tuples), ExactFallback: r.exactFallback}
	step := &tupleStep{eng: f.eng, pool: pool}
	out, costs, err := step.explainAll(f, nil, tuples, &rep)
	if err != nil {
		return nil, err
	}
	rep.WallTime, _ = f.end()
	rep.ExplainTime = rep.WallTime
	return &Result{Explanations: out, Report: rep, Costs: costs}, ctx.Err()
}

// Dist is the paper's DIST-k baseline: the batch is split evenly across k
// *machines*, each running the sequential algorithm, and the reported
// wall time is the average machine time (§4.1). Each machine has the
// whole box to itself in the paper's model, so the simulation runs the
// chunks one after another — timing each in isolation — rather than as
// contending goroutines, which would measure local core count instead of
// cluster size.
func Dist(st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64, k int) (*Result, error) {
	return DistCtx(context.Background(), st, cls, opts, tuples, k)
}

// DistCtx is Dist under a context: cancellation stops the simulation
// between (and inside) machines, returning the explanations finished so
// far as a partial *Result alongside ctx.Err().
func DistCtx(ctx context.Context, st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64, k int) (*Result, error) {
	if k <= 0 {
		return nil, fmt.Errorf("core: Dist needs k >= 1, got %d", k)
	}
	r, err := newRunner("Dist", st, cls, opts)
	if err != nil {
		return nil, err
	}
	if err := r.admit(tuples); err != nil {
		return nil, err
	}
	k = min(k, len(tuples))

	out := make([]Explanation, len(tuples))
	var (
		rep      Report
		costs    []Cost
		machines int
	)
	if r.opts.Recorder != nil {
		costs = make([]Cost, len(tuples))
	}
	chunk := (len(tuples) + k - 1) / k
	for w := 0; w < k; w++ {
		lo := w * chunk
		hi := min(lo+chunk, len(tuples))
		if lo >= hi {
			continue
		}
		if ctx.Err() != nil {
			markFailed(out[lo:], &rep)
			break
		}
		machine := r
		machine.opts.Seed += int64(w) * 1_000_003
		res, err := machine.upFront(ctx, obs.StageSequential, tuples[lo:hi], nil)
		if res != nil {
			copy(out[lo:hi], res.Explanations)
			if costs != nil {
				copy(costs[lo:hi], res.Costs)
			}
			rep.add(res.Report)
			machines++
		}
		if err != nil && ctx.Err() == nil {
			return nil, fmt.Errorf("core: Dist machine %d: %w", w, err)
		}
	}
	// Each machine's Sequential run set the gauge to its chunk size;
	// restore the batch-wide total for live progress readers.
	r.opts.Recorder.Gauge(obs.GaugeTuplesTotal).Set(int64(len(tuples)))
	rep.Tuples = len(tuples)
	if machines > 0 {
		rep.WallTime /= time.Duration(machines)
	}
	rep.ExplainTime = rep.WallTime
	return &Result{Explanations: out, Report: rep, Costs: costs}, ctx.Err()
}
