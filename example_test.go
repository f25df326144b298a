package shahin_test

import (
	"bytes"
	"fmt"

	"shahin"
)

// ExampleNewBatch shows the core workflow: train a model, explain a
// batch, inspect one attribution.
func ExampleNewBatch() {
	data, _ := shahin.GenerateDataset("recidivism", 1500, 7)
	train, test := shahin.SplitDataset(data, 1.0/3, 8)
	stats, _ := shahin.ComputeStats(train)
	model, _ := shahin.TrainForest(train, shahin.ForestConfig{NumTrees: 20, Seed: 9})

	batch, _ := shahin.NewBatch(stats, model, shahin.Options{
		Explainer: shahin.LIME,
		LIME:      shahin.LIMEConfig{NumSamples: 200},
		Seed:      10,
	})
	res, _ := batch.ExplainAll(test.Rows(0, 10))

	att := res.Explanations[0].Attribution
	fmt.Println(len(res.Explanations), "explanations")
	fmt.Println(len(att.Weights) == test.NumAttrs())
	// Output:
	// 10 explanations
	// true
}

// ExampleBuildExplanationStore is the paper's pre-compute-then-serve
// pattern: persist a batch's explanations, load them back, and answer a
// lookup without explaining again.
func ExampleBuildExplanationStore() {
	data, _ := shahin.GenerateDataset("lending", 1500, 40)
	train, test := shahin.SplitDataset(data, 1.0/3, 41)
	stats, _ := shahin.ComputeStats(train)
	model, _ := shahin.TrainForest(train, shahin.ForestConfig{NumTrees: 20, Seed: 42})

	tuples := test.Rows(0, 30)
	batch, _ := shahin.NewBatch(stats, model, shahin.Options{
		Explainer: shahin.LIME,
		LIME:      shahin.LIMEConfig{NumSamples: 200},
		Seed:      44,
	})
	res, _ := batch.ExplainAll(tuples)

	st, _ := shahin.BuildExplanationStore(tuples, res.Explanations)
	var buf bytes.Buffer
	if err := st.Save(&buf); err != nil {
		fmt.Println(err)
		return
	}
	loaded, _ := shahin.LoadExplanationStore(&buf)
	exp, ok := loaded.Get(tuples[7])
	want := res.Explanations[7].Attribution
	fmt.Println(loaded.Len(), "entries")
	fmt.Println(ok, exp.Attribution.Class == want.Class, exp.Attribution.TopK(1)[0] == want.TopK(1)[0])
	// Output:
	// 30 entries
	// true true true
}

// ExampleClassifierFunc demonstrates explaining an arbitrary model: any
// function from tuple to class index satisfies the Classifier interface.
func ExampleClassifierFunc() {
	data, _ := shahin.GenerateDataset("covertype", 1200, 11)
	train, test := shahin.SplitDataset(data, 1.0/3, 12)
	stats, _ := shahin.ComputeStats(train)

	model := shahin.ClassifierFunc{Classes: 2, F: func(x []float64) int {
		if int(x[0]) == 0 {
			return 1
		}
		return 0
	}}
	res, _ := shahin.Sequential(stats, model, shahin.Options{
		Explainer: shahin.LIME,
		LIME:      shahin.LIMEConfig{NumSamples: 150},
		Seed:      13,
	}, test.Rows(0, 1))

	top := res.Explanations[0].Attribution.TopK(1)[0]
	fmt.Println(test.Schema.Attrs[top].Name)
	// Output:
	// cat00
}

// ExampleRule_Describe renders an Anchor rule for humans.
func ExampleRule_Describe() {
	data, _ := shahin.GenerateDataset("recidivism", 1500, 14)
	train, test := shahin.SplitDataset(data, 1.0/3, 15)
	stats, _ := shahin.ComputeStats(train)

	model := shahin.ClassifierFunc{Classes: 2, F: func(x []float64) int {
		if int(x[0]) == 0 {
			return 1
		}
		return 0
	}}
	batch, _ := shahin.NewBatch(stats, model, shahin.Options{Explainer: shahin.Anchor, Tau: 30, Seed: 16})

	tuple := test.Rows(0, 1)[0]
	tuple[0] = 0 // ensure the decisive value
	res, err := batch.ExplainAll([][]float64{tuple})
	if err != nil {
		fmt.Println(err)
		return
	}
	rule := res.Explanations[0].Rule
	fmt.Println(len(rule.Items) >= 1, rule.Precision > 0.9)
	// Output:
	// true true
}
