package core

import (
	"context"
	"math/rand"
	"testing"

	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/rf"
)

// TestClassifierIndependentCounts is the paper's §4.1 argument for
// evaluating on one black box, stated as counts: what Shahin pools and
// reuses depends on the data distribution, never on the labels the model
// returns, so a random forest and a linear threshold over the same
// tuples cost the same classifier calls, pool calls and reused samples.
// LIME and KernelSHAP have fixed sample budgets; Anchor's bandit stops
// on the labels it reads, so its counts are the model's business and it
// is left out.
//
// KernelSHAP holds all three counts in Sequential, and in Batch the pool
// calls and the budget (calls - pool calls + reused), but not how the
// budget splits into fresh and reused: it estimates a class's base rate
// the first time it explains that class, from the generator its
// coalitions are drawn from, so a model that first predicts a class at
// another tuple shifts every later draw and which of them the pool
// serves.
func TestClassifierIndependentCounts(t *testing.T) {
	spec, err := datagen.Spec("recidivism")
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(2400, 61)
	if err != nil {
		t.Fatal(err)
	}
	trainD, testD := d.Split(0.5, rand.New(rand.NewSource(62)))
	st, err := dataset.Compute(trainD)
	if err != nil {
		t.Fatal(err)
	}
	forest, err := rf.Train(trainD, rf.Config{NumTrees: 20, MaxDepth: 8, Seed: 63})
	if err != nil {
		t.Fatal(err)
	}
	// A fixed hyperplane: no trees, no training, a decision surface of
	// another shape.
	linear := rf.Func{Classes: 2, F: func(x []float64) int {
		s := 0.0
		for a, v := range x {
			s += float64(1-2*(a%2)) * v
		}
		if s > 0 {
			return 1
		}
		return 0
	}}
	tuples := testD.Rows(0, 40)

	type counts struct{ calls, pool, reused int64 }
	for _, tc := range []struct {
		kind  Kind
		split bool // Batch's fresh/reused split is model-free too
	}{{LIME, true}, {SHAP, false}} {
		kind, opts := tc.kind, smallOpts(tc.kind, 64)
		run := func(cls rf.Classifier) (seq, batch counts, classes []int) {
			s, err := SequentialCtx(context.Background(), st, cls, opts, tuples)
			if err != nil {
				t.Fatal(err)
			}
			b, err := NewBatch(st, cls, opts)
			if err != nil {
				t.Fatal(err)
			}
			res, err := b.ExplainAll(tuples)
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range res.Explanations {
				classes = append(classes, e.Attribution.Class)
			}
			seq = counts{s.Report.Invocations, s.Report.PoolInvocations, s.Report.ReusedSamples}
			batch = counts{res.Report.Invocations, res.Report.PoolInvocations, res.Report.ReusedSamples}
			return seq, batch, classes
		}
		fSeq, fBatch, fClasses := run(forest)
		lSeq, lBatch, lClasses := run(linear)

		differ := 0
		for i := range fClasses {
			if fClasses[i] != lClasses[i] {
				differ++
			}
		}
		if differ == 0 {
			t.Fatalf("%s: the two models predict alike on every tuple; the test compares nothing", kind)
		}
		if fBatch.reused == 0 {
			t.Fatalf("%s: Batch reused no sample; the test compares nothing", kind)
		}
		if fSeq != lSeq {
			t.Errorf("%s Sequential: forest %+v, linear %+v", kind, fSeq, lSeq)
		}
		budget := func(c counts) int64 { return c.calls - c.pool + c.reused }
		if fBatch.pool != lBatch.pool || budget(fBatch) != budget(lBatch) || tc.split && fBatch != lBatch {
			t.Errorf("%s Batch: forest %+v, linear %+v", kind, fBatch, lBatch)
		}
		t.Logf("%s: %d of %d tuples labelled apart; Sequential %+v, Batch %+v", kind, differ, len(tuples), fSeq, fBatch)
	}
}
