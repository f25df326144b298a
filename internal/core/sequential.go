package core

import (
	"context"
	"math/rand"

	"shahin/internal/dataset"
	"shahin/internal/fim"
	"shahin/internal/obs"
	"shahin/internal/rf"
)

// SequentialCtx explains the batch one tuple at a time with no reuse at
// all: the baseline every speedup ratio in the paper is measured against.
// Anchor runs with fresh per-tuple caches; LIME and SHAP get no pool.
// Cancelling ctx stops the loop between tuples and returns the finished
// explanations as a partial *Result alongside ctx.Err(); unattempted
// tuples carry StatusFailed.
func SequentialCtx(ctx context.Context, st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64) (*Result, error) {
	r, err := newRunner("Sequential", st, cls, opts)
	if err != nil {
		return nil, err
	}
	if err := r.admit(tuples); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(r.opts.Seed))
	f := r.begin(ctx, rng, obs.StageSequential, len(tuples))
	defer f.span.End()

	if r.opts.Explainer == Anchor {
		// Anchor still needs a coverage sample; its cost is part of setup
		// for both baseline and Shahin, so the comparison stays fair.
		f.eng.setCoverage(sampleRows(itemize(r.st, tuples), fim.SampleSize(len(tuples)), rng))
	}
	rep := Report{Tuples: len(tuples), ExactFallback: r.exactFallback}
	step := &tupleStep{eng: f.eng}
	out, costs, err := step.explainAll(f, nil, tuples, &rep)
	if err != nil {
		return nil, err
	}
	rep.WallTime, _ = f.end()
	rep.ExplainTime = rep.WallTime
	return &Result{Explanations: out, Report: rep, Costs: costs}, ctx.Err()
}
