package main

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"

	"shahin"
	"shahin/internal/metrics"
)

// errNotAnswered marks an operation the program refused, failed or
// answered degraded. It counts against success_share; an answer that is
// given but wrong is an error that ends the run.
var errNotAnswered = errors.New("not answered")

// checkExplanation verifies one answer against the model it explains:
// it must be StatusOK and carry an attribution of the schema's width
// with finite weights for the class the forest predicts — or, for
// Anchor, a rule for that class whose items hold on the tuple itself.
func (r *run) checkExplanation(tuple []float64, e shahin.Explanation) error {
	if e.Status != shahin.StatusOK {
		return fmt.Errorf("%w: status %s", errNotAnswered, e.Status)
	}
	want := r.env.forest.Predict(tuple)
	switch {
	case e.Attribution != nil && e.Rule == nil:
		a := e.Attribution
		if len(a.Weights) != r.env.stats.NumAttrs() {
			return fmt.Errorf("attribution has %d weights, schema has %d attributes", len(a.Weights), r.env.stats.NumAttrs())
		}
		for i, w := range a.Weights {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return fmt.Errorf("weight %d is %v", i, w)
			}
		}
		if math.IsNaN(a.Intercept) || math.IsInf(a.Intercept, 0) {
			return fmt.Errorf("intercept is %v", a.Intercept)
		}
		if a.Class != want {
			return fmt.Errorf("explains class %d, the model predicts %d", a.Class, want)
		}
	case e.Rule != nil && e.Attribution == nil:
		if e.Rule.Class != want {
			return fmt.Errorf("rule is for class %d, the model predicts %d", e.Rule.Class, want)
		}
		if !e.Rule.Items.ContainsAll(r.env.stats.ItemizeRow(tuple, nil)) {
			return fmt.Errorf("rule %v does not hold on its own tuple", e.Rule.Items)
		}
	default:
		return errors.New("want exactly one of attribution and rule")
	}
	return nil
}

// checkExact verifies the efficiency identity of an exact TreeSHAP
// answer: Σφ + intercept equals the forest's vote fraction for the
// explained class to 1e-9.
func (r *run) checkExact(tuple []float64, a *shahin.Attribution) error {
	sum := a.Intercept
	for _, w := range a.Weights {
		sum += w
	}
	if vote := r.env.forest.Prob(tuple)[a.Class]; math.Abs(sum-vote) > 1e-9 {
		return fmt.Errorf("exact answer sums to %.12f, the forest votes %.12f", sum, vote)
	}
	return nil
}

// checkAll verifies a batch of answers, naming the first bad one.
func (r *run) checkAll(tuples [][]float64, exps []shahin.Explanation) error {
	if len(exps) != len(tuples) {
		return fmt.Errorf("%d explanations for %d tuples", len(exps), len(tuples))
	}
	for i := range tuples {
		if err := r.checkExplanation(tuples[i], exps[i]); err != nil {
			return fmt.Errorf("tuple %d: %w", i, err)
		}
	}
	return nil
}

// countFailure records err against success_share when it only says the
// operation was not answered, and passes every other error on.
func (r *run) countFailure(err error) error {
	if errors.Is(err, errNotAnswered) {
		r.failed++
		fmt.Fprintln(os.Stderr, "benchmark: failed operation:", err)
		return nil
	}
	return err
}

// fingerprint hashes answers and the classifier calls they cost, so two
// set-ups can be compared for byte-for-byte determinism.
func fingerprint(exps []shahin.Explanation, calls int64) string {
	h := fnv.New64a()
	for _, e := range exps {
		switch {
		case e.Attribution != nil:
			fmt.Fprintf(h, "a%d %x %x;", e.Attribution.Class, e.Attribution.Intercept, e.Attribution.Weights)
		case e.Rule != nil:
			fmt.Fprintf(h, "r%d %v %x;", e.Rule.Class, e.Rule.Items, e.Rule.Precision)
		}
	}
	return fmt.Sprintf("%d calls, answers %016x", calls, h.Sum64())
}

// topOverlap is the mean top-5 overlap between two runs' attributions
// of the same tuples: the agreement of reuse with the no-reuse reference.
func topOverlap(got, ref []shahin.Explanation) float64 {
	sum := 0.0
	for i := range ref {
		sum += metrics.TopKOverlap(got[i].Attribution.Weights, ref[i].Attribution.Weights, 5)
	}
	return sum / float64(len(ref))
}
