package bench

import (
	"fmt"

	"shahin/internal/core"
)

// AblationKernel (A2) questions the SHAP-kernel-proportional coalition
// size sampling (Equation 1): how much reuse does it enable compared to
// uniform coalition sizes?
func AblationKernel(cfg Config) (*Table, error) {
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
		Title:  fmt.Sprintf("Ablation A2: SHAP coalition size sampling (census, batch=%d)", cfg.Batch),
		Header: []string{"Size sampling", "Speedup", "Reused samples", "Invocations"},
	}
	for _, mode := range []struct {
		label   string
		uniform bool
	}{
		{"kernel-proportional (Eq. 1)", false},
		{"uniform", true},
	} {
		opts := cfg.Options(core.SHAP)
		opts.SHAP.UniformSizes = mode.uniform
		seq, err := runSequential(env, opts, tuples)
		if err != nil {
			return nil, err
		}
		res, err := runBatch(env, opts, tuples)
		if err != nil {
			return nil, err
		}
		t.AddRow(mode.label,
			f2(speedup(seq.Report.WallTime, res.Report.WallTime)),
			fmt.Sprintf("%d", res.Report.ReusedSamples),
			fmt.Sprintf("%d", res.Report.Invocations))
	}
	return t, nil
}
