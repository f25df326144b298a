// Command shahin-explain runs the full pipeline on a CSV dataset: train a
// random forest on a split, explain a batch of held-out tuples with the
// selected algorithm and mode, and print the explanations plus the cost
// report.
//
// The CSV must carry the schema of one of the built-in dataset families
// (produce one with shahin-datagen); alternatively omit -data to generate
// tuples in memory.
//
// Usage:
//
//	shahin-explain -dataset census -rows 5000 -explainer lime -mode batch -n 100
//	shahin-explain -dataset census -data census.csv -explainer anchor -n 20
//
// Ctrl-C cancels the run: the explanations finished so far are printed
// with a partial cost report, and unattempted tuples are marked failed.
// A second Ctrl-C forces an immediate exit without the partial print.
// The -fail-rate/-predict-timeout family runs the same pipeline against
// a deliberately unreliable classifier backend (see README, Robustness).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"strings"

	"shahin"
	"shahin/internal/cli"
	"shahin/internal/obs"
)

func main() {
	var (
		data   = cli.DataFlags(flag.CommandLine)
		model  = cli.ModelFlags(flag.CommandLine)
		faults = cli.FaultFlags(flag.CommandLine)
		obsv   = cli.ObsFlags(flag.CommandLine, "chrome-trace", "events-out")

		n       = flag.Int("n", 50, "number of held-out tuples to explain")
		mode    = flag.String("mode", "batch", "batch, stream, or seq")
		topK    = flag.Int("top", 5, "attributes to print per attribution")
		workers = flag.Int("workers", 1, "parallel explanation workers (batch mode, non-Anchor)")
		tparent = flag.String("traceparent", "", "W3C traceparent to adopt: the run's root spans join the given trace (e.g. from a calling pipeline)")
	)
	flag.Parse()

	// Ctrl-C cancels in-flight work; the finished explanations are still
	// printed below with a partial report. A second Ctrl-C skips the
	// partial print and exits immediately.
	ctx, stop := cli.Shutdown(context.Background())
	defer stop()
	if *tparent != "" {
		tc, err := obs.ParseTraceparent(*tparent)
		if err != nil {
			cli.Fatal(fmt.Errorf("-traceparent: %w", err))
		}
		ctx = obs.ContextWithTrace(ctx, tc)
	}

	rec, err := obsv.Start(false)
	if err != nil {
		cli.Fatal(err)
	}
	env, err := data.Load()
	if err != nil {
		cli.Fatal(err)
	}
	if err := model.Train(env, faults, rec); err != nil {
		cli.Fatal(err)
	}
	env.Options.Workers = *workers
	fmt.Printf("model: %d trees, train accuracy %.3f\n", len(env.Forest.Trees), env.Forest.Accuracy(env.Train))
	tuples := env.HeldOut(*n)

	var (
		explanations []shahin.Explanation
		report       shahin.Report
		canceled     bool
	)
	switch *mode {
	case "batch":
		b, err := shahin.NewBatch(env.Stats, env.Forest, env.Options)
		if err != nil {
			cli.Fatal(err)
		}
		res, err := b.ExplainAllCtx(ctx, tuples)
		if res == nil {
			cli.Fatal(err)
		}
		canceled = err != nil
		explanations, report = res.Explanations, res.Report
	case "stream":
		s, err := shahin.NewStream(env.Stats, env.Forest, env.Options)
		if err != nil {
			cli.Fatal(err)
		}
		for _, tup := range tuples {
			exp, err := s.ExplainCtx(ctx, tup)
			if errors.Is(err, context.Canceled) {
				canceled = true
				break
			}
			if err != nil {
				cli.Fatal(err)
			}
			explanations = append(explanations, exp)
		}
		report = s.Report()
	case "seq":
		res, err := shahin.SequentialCtx(ctx, env.Stats, env.Forest, env.Options, tuples)
		if res == nil {
			cli.Fatal(err)
		}
		canceled = err != nil
		explanations, report = res.Explanations, res.Report
	default:
		cli.Fatal(fmt.Errorf("unknown mode %q (want batch, stream, or seq)", *mode))
	}

	attempted := 0
	for i, e := range explanations {
		if e.Status != shahin.StatusFailed {
			attempted++
		}
		fmt.Printf("tuple %3d: %s%s\n", i, render(e, env.Held.Schema, *topK), statusMark(e.Status))
	}
	if canceled {
		fmt.Printf("\ninterrupted: %d of %d tuples explained before cancellation\n", attempted, len(tuples))
	}
	fmt.Printf("\n%s\n", report.String())
	if err := obsv.Finish(); err != nil {
		cli.Fatal(err)
	}
}

// render formats one explanation for the terminal. Tuples left
// unattempted by a cancelled run have neither payload.
func render(e shahin.Explanation, schema *shahin.Schema, topK int) string {
	if e.Rule != nil {
		return e.Rule.Describe(schema)
	}
	att := e.Attribution
	if att == nil {
		return "(not explained)"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "class=%s:", schema.Classes[att.Class])
	for _, a := range att.TopK(topK) {
		fmt.Fprintf(&b, " %s=%.3f", schema.Attrs[a].Name, att.Weights[a])
	}
	return b.String()
}

// statusMark annotates non-OK explanations in the tuple listing.
func statusMark(s shahin.Status) string {
	switch s {
	case shahin.StatusDegraded:
		return "  [degraded]"
	case shahin.StatusFailed:
		return "  [failed]"
	}
	return ""
}
