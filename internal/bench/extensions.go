package bench

import (
	"fmt"

	"shahin/internal/core"
	"shahin/internal/metrics"
)

// ExtApproximate (ext-approx) explores the paper's closing remark that
// "one could achieve substantial speedup by allowing certain
// approximation": sweeping LIME's reuse cap from conservative to total
// reuse, trading fidelity (Kendall-τ against the sequential baseline) for
// speed.
func ExtApproximate(cfg Config) (*Table, error) {
	cfg = cfg.Fill()
	env, err := NewEnv("census", cfg)
	if err != nil {
		return nil, err
	}
	tuples, err := env.Tuples(cfg.Batch)
	if err != nil {
		return nil, err
	}
	opts := cfg.Options(core.LIME)
	seq, err := runSequential(env, opts, tuples)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Extension: approximation via reuse fraction (LIME, census, batch=%d)", cfg.Batch),
		Header: []string{"MaxReuse", "Speedup", "Kendall-tau", "Top1-agree"},
	}
	for _, reuse := range []float64{0.25, 0.5, 0.75, 0.9, 1.0} {
		o := opts
		o.LIME.MaxReuse = reuse
		res, err := runBatch(env, o, tuples)
		if err != nil {
			return nil, err
		}
		var tau, top1 float64
		for i := range tuples {
			a := seq.Explanations[i].Attribution.Weights
			b := res.Explanations[i].Attribution.Weights
			tau += metrics.KendallTau(a, b)
			top1 += metrics.TopKOverlap(a, b, 1)
		}
		n := float64(len(tuples))
		t.AddRow(f2(reuse),
			f2(speedup(seq.Report.WallTime, res.Report.WallTime)),
			f3(tau/n), f3(top1/n))
	}
	return t, nil
}

// ExtParallel (ext-parallel) measures the worker-pool extension: Shahin's
// algorithmic savings compose with data parallelism over a frozen pool
// snapshot.
func ExtParallel(cfg Config) (*Table, error) {
	cfg = cfg.Fill()
	env, err := NewEnv("census", cfg)
	if err != nil {
		return nil, err
	}
	tuples, err := env.Tuples(cfg.Batch)
	if err != nil {
		return nil, err
	}
	opts := cfg.Options(core.LIME)
	seq, err := runSequential(env, opts, tuples)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Extension: Shahin with worker parallelism (LIME, census, batch=%d)", cfg.Batch),
		Header: []string{"Workers", "Speedup vs sequential"},
	}
	for _, workers := range []int{1, 2, 4} {
		o := opts
		o.Workers = workers
		res, err := runBatch(env, o, tuples)
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(workers), f2(speedup(seq.Report.WallTime, res.Report.WallTime)))
	}
	t.AddNote("wall-clock scaling is bounded by the local core count; the paper's DIST-k models separate machines")
	return t, nil
}
