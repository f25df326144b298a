package shahin_test

import (
	"bytes"
	"testing"

	"shahin"
)

// pipeline builds the standard fixtures through the public API only.
func pipeline(t *testing.T, name string, rows int, seed int64) (*shahin.Stats, *shahin.Forest, *shahin.Dataset) {
	t.Helper()
	d, err := shahin.GenerateDataset(name, rows, seed)
	if err != nil {
		t.Fatal(err)
	}
	train, test := shahin.SplitDataset(d, 1.0/3, seed+1)
	st, err := shahin.ComputeStats(train)
	if err != nil {
		t.Fatal(err)
	}
	model, err := shahin.TrainForest(train, shahin.ForestConfig{NumTrees: 25, MaxDepth: 8, Seed: seed + 2})
	if err != nil {
		t.Fatal(err)
	}
	return st, model, test
}

func TestPublicBatchPipeline(t *testing.T) {
	st, model, test := pipeline(t, "recidivism", 2400, 1)
	counting := shahin.NewCountingClassifier(model)
	batch, err := shahin.NewBatch(st, counting, shahin.Options{
		Explainer: shahin.LIME,
		LIME:      shahin.LIMEConfig{NumSamples: 250},
		Tau:       40,
		Seed:      3,
	})
	if err != nil {
		t.Fatal(err)
	}
	tuples := test.Rows(0, 40)
	res, err := batch.ExplainAll(tuples)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explanations) != 40 {
		t.Fatalf("explained %d of 40", len(res.Explanations))
	}
	if counting.Invocations() != res.Report.Invocations {
		t.Fatalf("external counter %d != report %d", counting.Invocations(), res.Report.Invocations)
	}
	if got := res.Explanations[0].Attribution; got == nil || len(got.Weights) != test.NumAttrs() {
		t.Fatal("malformed attribution")
	}
}

func TestPublicStreamPipeline(t *testing.T) {
	st, model, test := pipeline(t, "recidivism", 2400, 5)
	stream, err := shahin.NewStream(st, model, shahin.Options{
		Explainer:       shahin.SHAP,
		SHAP:            shahin.SHAPConfig{NumSamples: 128, BaseSamples: 30},
		Tau:             30,
		StreamRecompute: 25,
		Seed:            6,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, tup := range test.Rows(0, 60) {
		exp, err := stream.Explain(tup)
		if err != nil {
			t.Fatalf("tuple %d: %v", i, err)
		}
		if exp.Attribution == nil {
			t.Fatalf("tuple %d: no attribution", i)
		}
	}
	if rep := stream.Report(); rep.Tuples != 60 {
		t.Fatalf("report tuples=%d", rep.Tuples)
	}
}

func TestPublicBaselines(t *testing.T) {
	st, model, test := pipeline(t, "recidivism", 1800, 7)
	opts := shahin.Options{Explainer: shahin.LIME, LIME: shahin.LIMEConfig{NumSamples: 150}, Seed: 8}
	tuples := test.Rows(0, 12)

	seq, err := shahin.Sequential(st, model, opts, tuples)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := shahin.Dist(st, model, opts, tuples, 4)
	if err != nil {
		t.Fatal(err)
	}
	greedy, err := shahin.Greedy(st, model, opts, tuples, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for name, r := range map[string]*shahin.Result{"seq": seq, "dist": dist, "greedy": greedy} {
		if len(r.Explanations) != len(tuples) {
			t.Fatalf("%s explained %d of %d", name, len(r.Explanations), len(tuples))
		}
	}
}

func TestPublicAnchorRuleRendering(t *testing.T) {
	st, model, test := pipeline(t, "recidivism", 1800, 9)
	batch, err := shahin.NewBatch(st, model, shahin.Options{Explainer: shahin.Anchor, Tau: 30, Seed: 10})
	if err != nil {
		t.Fatal(err)
	}
	res, err := batch.ExplainAll(test.Rows(0, 5))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Explanations {
		if e.Rule == nil {
			t.Fatal("no rule")
		}
		if s := e.Rule.Describe(test.Schema); s == "" {
			t.Fatal("empty rule description")
		}
	}
}

func TestPublicCSVRoundTrip(t *testing.T) {
	d, err := shahin.GenerateDataset("covertype", 50, 11)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := shahin.WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := shahin.ReadCSV(&buf, d.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 50 {
		t.Fatalf("round trip rows=%d", back.NumRows())
	}
}

func TestPublicDatasetNames(t *testing.T) {
	names := shahin.DatasetNames()
	if len(names) != 5 {
		t.Fatalf("DatasetNames=%v", names)
	}
	if _, err := shahin.GenerateDataset("unknown", 10, 1); err == nil {
		t.Fatal("unknown dataset accepted")
	}
}

func TestPublicCustomClassifier(t *testing.T) {
	st, _, test := pipeline(t, "recidivism", 1500, 12)
	cls := shahin.ClassifierFunc{Classes: 2, F: func(x []float64) int {
		if x[0] > 0 {
			return 1
		}
		return 0
	}}
	res, err := shahin.Sequential(st, cls, shahin.Options{
		Explainer: shahin.LIME, LIME: shahin.LIMEConfig{NumSamples: 100}, Seed: 13,
	}, test.Rows(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explanations) != 3 {
		t.Fatal("custom classifier pipeline failed")
	}
}

func TestPublicParseKind(t *testing.T) {
	k, err := shahin.ParseKind("anchor")
	if err != nil || k != shahin.Anchor {
		t.Fatalf("ParseKind=%v,%v", k, err)
	}
}

func TestPublicInferCSV(t *testing.T) {
	d, err := shahin.GenerateDataset("recidivism", 120, 50)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := shahin.WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	inferred, err := shahin.InferCSV(&buf, shahin.InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if inferred.NumRows() != 120 {
		t.Fatalf("rows=%d", inferred.NumRows())
	}
	// The inferred dataset must be usable end to end.
	train, test := shahin.SplitDataset(inferred, 0.5, 51)
	st, err := shahin.ComputeStats(train)
	if err != nil {
		t.Fatal(err)
	}
	model, err := shahin.TrainForest(train, shahin.ForestConfig{NumTrees: 10, MaxDepth: 6, Seed: 52})
	if err != nil {
		t.Fatal(err)
	}
	res, err := shahin.Sequential(st, model, shahin.Options{
		Explainer: shahin.LIME, LIME: shahin.LIMEConfig{NumSamples: 80}, Seed: 52,
	}, test.Rows(0, 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Explanations) != 2 {
		t.Fatal("inferred pipeline failed")
	}
}

func TestPublicSampleSHAP(t *testing.T) {
	st, model, test := pipeline(t, "recidivism", 1500, 53)
	res, err := shahin.Sequential(st, model, shahin.Options{
		Explainer: shahin.SampleSHAP,
		SSHAP:     shahin.SSHAPConfig{Permutations: 5, BaseSamples: 20},
		Seed:      54,
	}, test.Rows(0, 3))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Explanations {
		if e.Attribution == nil {
			t.Fatal("no attribution")
		}
	}
}
