package bench

import (
	"fmt"

	"shahin/internal/core"
	"shahin/internal/explain/sshap"
	"shahin/internal/metrics"
)

// ExtSampleShapley (ext-sshap) measures how far the reuse framework
// carries a fourth perturbation algorithm, Sampling Shapley — the paper's
// generality claim (§3.4) quantified. Its permutation walks consist
// mostly of large coalitions no pool can serve, so the expected speedup
// is real but smaller than for the three paper algorithms.
func ExtSampleShapley(cfg Config) (*Table, error) {
	cfg = cfg.Fill()
	env, err := NewEnv("census", cfg)
	if err != nil {
		return nil, err
	}
	tuples, err := env.Tuples(cfg.Batch)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  fmt.Sprintf("Extension: Sampling-Shapley under Shahin (census, batch=%d)", cfg.Batch),
		Header: []string{"Explainer", "Speedup", "Marginal speedup", "Reused"},
	}
	kinds := []core.Kind{core.SHAP, core.SampleSHAP}
	for _, kind := range kinds {
		opts := cfg.Options(kind)
		opts.SSHAP = sshap.Config{Permutations: 20, BaseSamples: 50}
		seq, err := runSequential(env, opts, tuples)
		if err != nil {
			return nil, err
		}
		res, err := runBatch(env, opts, tuples)
		if err != nil {
			return nil, err
		}
		marginal := res.Report.Invocations - res.Report.PoolInvocations
		marginalSpeedup := float64(seq.Report.Invocations) / float64(marginal)
		t.AddRow(kind.String(),
			f2(speedup(seq.Report.WallTime, res.Report.WallTime)),
			f2(marginalSpeedup),
			fmt.Sprintf("%d", res.Report.ReusedSamples))
	}
	t.AddNote("marginal speedup excludes the one-time pool construction (invocation ratio)")
	return t, nil
}

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
