package bench

import (
	"context"
	"time"

	"shahin/internal/core"
)

// runSequential runs the sequential baseline over the tuples.
func runSequential(env *Env, opts core.Options, tuples [][]float64) (*core.Result, error) {
	return core.SequentialCtx(context.Background(), env.Stats, env.Classifier(), opts, tuples)
}

// runBatch runs Shahin-Batch over the tuples.
func runBatch(env *Env, opts core.Options, tuples [][]float64) (*core.Result, error) {
	b, err := core.NewBatch(env.Stats, env.Classifier(), opts)
	if err != nil {
		return nil, err
	}
	return b.ExplainAll(tuples)
}

// runStream feeds the tuples one at a time through Shahin-Streaming and
// returns the explanations plus the accumulated report.
func runStream(env *Env, opts core.Options, tuples [][]float64) (*core.Result, error) {
	s, err := core.NewStream(env.Stats, env.Classifier(), opts)
	if err != nil {
		return nil, err
	}
	out := make([]core.Explanation, 0, len(tuples))
	for _, t := range tuples {
		exp, err := s.Explain(t)
		if err != nil {
			return nil, err
		}
		out = append(out, exp)
	}
	return &core.Result{Explanations: out, Report: s.Report()}, nil
}

// runDist is the paper's DIST-k baseline (§4.1): the batch split evenly
// across k machines, each explaining its chunk sequentially, and the
// average machine time reported. In the paper each machine has the whole
// box to itself, so the chunks run one after another, each timed alone;
// as goroutines they would measure the local core count instead.
func runDist(env *Env, opts core.Options, tuples [][]float64, k int) (*core.Result, error) {
	k = min(k, len(tuples))
	chunk := (len(tuples) + k - 1) / k
	res := &core.Result{Report: core.Report{Tuples: len(tuples)}}
	machines := 0
	for lo := 0; lo < len(tuples); lo += chunk {
		machine := opts
		machine.Seed += int64(machines) * 1_000_003
		part, err := runSequential(env, machine, tuples[lo:min(lo+chunk, len(tuples))])
		if err != nil {
			return nil, err
		}
		res.Explanations = append(res.Explanations, part.Explanations...)
		res.Report.WallTime += part.Report.WallTime
		machines++
	}
	res.Report.WallTime /= time.Duration(machines)
	return res, nil
}

// speedup returns baseline / measured wall-time ratio.
func speedup(baseline, measured time.Duration) float64 {
	if measured <= 0 {
		return 0
	}
	return float64(baseline) / float64(measured)
}

// secondsPerTuple renders a report as seconds per explanation.
func secondsPerTuple(rep core.Report) float64 {
	if rep.Tuples == 0 {
		return 0
	}
	return rep.WallTime.Seconds() / float64(rep.Tuples)
}
