// Command shahin-store pre-computes explanations for a whole dataset with
// a Shahin batch run and persists them, then serves lookups from the
// store — the pre-compute-then-retrieve deployment the paper's
// introduction motivates.
//
// Usage:
//
//	shahin-store -mode build -dataset census -rows 5000 -n 500 -o exps.gob
//	shahin-store -mode lookup -dataset census -rows 5000 -store exps.gob -tuple 17
//
// Build with the -dataset/-data/-rows/-seed and -trees/-explainer of the
// shahin-serve that will load the file (-store): the two resolve those
// flags through the same code, and a stored answer is a claim about one
// forest.
//
// Ctrl-C during a build cancels the batch run and flushes the
// explanations finished so far, so a long pre-compute interrupted near
// the end still yields a usable (partial) store.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"shahin"
	"shahin/internal/cli"
	"shahin/internal/core"
)

func main() {
	var (
		data  = cli.DataFlags(flag.CommandLine)
		model = cli.ModelFlags(flag.CommandLine)
		obsv  = cli.ObsFlags(flag.CommandLine, "chrome-trace", "events-out")

		mode      = flag.String("mode", "build", "build or lookup")
		n         = flag.Int("n", 500, "held-out tuples to pre-compute (build mode)")
		out       = flag.String("o", "explanations.gob", "store output path (build mode)")
		storePath = flag.String("store", "explanations.gob", "store path (lookup mode)")
		tupleIdx  = flag.Int("tuple", 0, "held-out tuple index to look up (lookup mode)")
	)
	flag.Parse()

	rec, err := obsv.Start(false)
	if err != nil {
		cli.Fatal(err)
	}
	// Both modes resolve the same flags to the same held-out split, so
	// lookup indexes refer to the tuples build explained.
	env, err := data.Load()
	if err != nil {
		cli.Fatal(err)
	}

	switch *mode {
	case "build":
		if err := model.Train(env, nil, rec); err != nil {
			cli.Fatal(err)
		}
		tuples := env.HeldOut(*n)
		batch, err := shahin.NewBatch(env.Stats, env.Forest, env.Options)
		if err != nil {
			cli.Fatal(err)
		}
		// Ctrl-C cancels the run; whatever finished is still flushed. A
		// second Ctrl-C forces an immediate exit without flushing.
		ctx, stop := cli.Shutdown(context.Background())
		res, err := batch.ExplainAllCtx(ctx, tuples)
		stop()
		if res == nil {
			cli.Fatal(err)
		}
		doneTuples, doneExps := tuples, res.Explanations
		if err != nil {
			doneTuples, doneExps = core.Finished(tuples, res.Explanations)
			fmt.Printf("interrupted: flushing %d of %d explanations\n", len(doneExps), len(tuples))
		}
		st, err := shahin.BuildExplanationStore(doneTuples, doneExps)
		if err != nil {
			cli.Fatal(err)
		}
		if err := cli.WriteFile(*out, st.Save); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("%s\nstore -> %s\n", res.Report.String(), *out)
		if err := obsv.Finish(); err != nil {
			cli.Fatal(err)
		}

	case "lookup":
		f, err := os.Open(*storePath)
		if err != nil {
			cli.Fatal(err)
		}
		defer f.Close() //shahinvet:allow errcheck — read-only close cannot lose data
		st, err := shahin.LoadExplanationStore(f)
		if err != nil {
			cli.Fatal(err)
		}
		if *tupleIdx < 0 || *tupleIdx >= env.Held.NumRows() {
			cli.Fatal(fmt.Errorf("tuple index %d outside held-out set [0,%d)", *tupleIdx, env.Held.NumRows()))
		}
		exp, ok := st.Get(env.Held.Row(*tupleIdx, nil))
		if !ok {
			cli.Fatal(fmt.Errorf("tuple %d not in store (was it within -n at build time?)", *tupleIdx))
		}
		if exp.Rule != nil {
			fmt.Println(exp.Rule.Describe(env.Held.Schema))
			return
		}
		att := exp.Attribution
		fmt.Printf("tuple %d -> class %s:", *tupleIdx, env.Held.Schema.Classes[att.Class])
		for _, a := range att.TopK(5) {
			fmt.Printf(" %s=%.3f", env.Held.Schema.Attrs[a].Name, att.Weights[a])
		}
		fmt.Println()

	default:
		cli.Fatal(fmt.Errorf("unknown mode %q (want build or lookup)", *mode))
	}
}
