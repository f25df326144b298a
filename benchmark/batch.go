package main

import (
	"fmt"
	"math/rand"
	"time"

	"shahin"
	"shahin/internal/perturb"
)

// batchSpec is what differs between the two core.Batch workloads.
type batchSpec struct {
	family  string
	kind    shahin.Kind
	tuples  int     // per operation
	nominal float64 // seconds one operation takes on the reference box
}

func runBatchLIME(r *run) error {
	return r.runBatch(batchSpec{family: "lending", kind: shahin.LIME, tuples: r.z.limeTuples, nominal: 1.25})
}

func runBatchAnchor(r *run) error {
	return r.runBatch(batchSpec{family: "covertype", kind: shahin.Anchor, tuples: r.z.anchorTuples, nominal: 2.05})
}

// options is the configuration under test: the library defaults (1000
// LIME samples, τ = 100, 200 itemsets) on one worker, with the Anchor
// pull budget the repository's own experiments use.
func (r *run) options(kind shahin.Kind) shahin.Options {
	return shahin.Options{
		Explainer: kind,
		Anchor:    shahin.AnchorConfig{MaxPulls: 2000, BatchPulls: 25},
		Seed:      r.seed,
		Workers:   1,
	}
}

// explainBatch is the batch workloads' operation: ExplainAll on a fresh
// Batch.
func (r *run) explainBatch(tuples [][]float64, opts shahin.Options) (*shahin.Result, error) {
	b, err := shahin.NewBatch(r.env.stats, r.cls, opts)
	if err != nil {
		return nil, err
	}
	return b.ExplainAll(tuples)
}

// runBatch times ExplainAll, one operation per seeded window of tuples.
// Operations use different windows so a run averages over ops × tuples
// distinct tuples and its numbers depend little on which the seed drew.
func (r *run) runBatch(s batchSpec) error {
	opts := r.options(s.kind)
	ops := r.z.ops(s.nominal)
	var wins [][][]float64
	// The warm-up is a quarter-size operation on the first window; its
	// answers are the set-ups' determinism fingerprint.
	err := r.setup(s.family, r.z.pool(), func() (string, error) {
		wins = r.env.windows(rand.New(rand.NewSource(r.seed)), ops, s.tuples)
		warm := wins[0][:(s.tuples+3)/4]
		res, err := r.explainBatch(warm, opts)
		if err != nil {
			return "", err
		}
		return fingerprint(res.Explanations, r.cls.Invocations()), r.checkAll(warm, res.Explanations)
	})
	if err != nil {
		return err
	}

	var results []*shahin.Result // of the last phase
	var reports []shahin.Report  // of every traced operation
	err = r.measure(ops, func(n int) ([]time.Duration, error) {
		lat := make([]time.Duration, n)
		results = make([]*shahin.Result, n)
		for i := range lat {
			if lat[i], err = r.op(i, func() (err error) {
				results[i], err = r.explainBatch(wins[i], opts)
				return err
			}); err != nil {
				return nil, fmt.Errorf("operation %d: %w", i, err)
			}
			if r.tr != nil {
				reports = append(reports, results[i].Report)
			}
		}
		return lat, nil
	})
	if err != nil {
		return err
	}
	r.perUnit, r.explPerOp, r.tailPct = s.tuples, s.tuples, 75

	// Outside the timed region: every answer's correctness, then
	// agreement with the no-reuse reference.
	for i, res := range results {
		if err := r.countFailure(r.checkAll(wins[i], res.Explanations)); err != nil {
			return fmt.Errorf("operation %d: %w", i, err)
		}
	}
	probe := wins[0][:min(r.z.probe, s.tuples)]
	if s.kind == shahin.Anchor {
		r.agreement = r.rulePrecision(results)
		if r.tr == nil {
			return nil
		}
	}
	seq, err := r.sequential(opts, probe)
	if err != nil {
		return err
	}
	if s.kind != shahin.Anchor {
		r.agreement = topOverlap(results[0].Explanations, seq.Explanations)
	}
	if r.tr != nil {
		return r.batchLayers(s, opts, wins, reports)
	}
	return nil
}

// rulePrecision re-estimates, on 200 fresh perturbations per rule, how
// often the model predicts the rule's class when the rule holds, and
// returns the mean over every emitted rule: Anchor's precision claim
// checked against draws the explainer never saw.
func (r *run) rulePrecision(results []*shahin.Result) float64 {
	const draws = 200
	gen := perturb.NewGenerator(r.env.stats, rand.New(rand.NewSource(r.seed+1)))
	sum, n := 0.0, 0
	for _, res := range results {
		for _, e := range res.Explanations {
			hits := 0
			for d := 0; d < draws; d++ {
				if r.env.forest.Predict(gen.ForItemset(e.Rule.Items).Row) == e.Rule.Class {
					hits++
				}
			}
			sum += float64(hits) / draws
			n++
		}
	}
	return sum / float64(n)
}
