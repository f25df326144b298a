package bench

import (
	"fmt"

	"shahin/internal/core"
)

// Figure2 regenerates the paper's Figure 2: speedup over the sequential
// baseline for Shahin-Batch vs the DIST-1/4/8 and GREEDY baselines, on
// the Census-Income twin, as the batch size grows, for every explainer.
func Figure2(cfg Config) (*Table, error) {
	cfg = cfg.Fill()
	env, err := NewEnv("census", cfg)
	if err != nil {
		return nil, err
	}
	t := &Table{
		Title:  "Figure 2: speedup vs baselines (census)",
		Header: []string{"Explainer", "Batch", "Shahin", "DIST-1", "DIST-4", "DIST-8", "GREEDY"},
	}
	for _, kind := range core.Kinds() {
		opts := cfg.Options(kind)
		for _, batch := range cfg.Batches {
			tuples, err := env.Tuples(batch)
			if err != nil {
				return nil, err
			}
			seq, err := runSequential(env, opts, tuples)
			if err != nil {
				return nil, fmt.Errorf("figure2 %s/%d seq: %w", kind, batch, err)
			}
			base := seq.Report.WallTime

			shahin, err := runBatch(env, opts, tuples)
			if err != nil {
				return nil, err
			}
			dist4, err := runDist(env, opts, tuples, 4)
			if err != nil {
				return nil, err
			}
			dist8, err := runDist(env, opts, tuples, 8)
			if err != nil {
				return nil, err
			}
			greedy, err := runGreedy(env, opts, tuples)
			if err != nil {
				return nil, err
			}
			t.AddRow(kind.String(), itoa(batch),
				f2(speedup(base, shahin.Report.WallTime)),
				f2(1.0),
				f2(speedup(base, dist4.Report.WallTime)),
				f2(speedup(base, dist8.Report.WallTime)),
				f2(speedup(base, greedy.Report.WallTime)))
		}
	}
	t.AddNote("DIST-k reports the average of k workers' times over an even split (paper §4.1); GREEDY budget = 10x batch bytes")
	return t, nil
}

// Figure3 regenerates the paper's Figure 3: Shahin-Batch speedup ratio
// over the sequential baseline for every dataset and explainer as the
// batch size grows.
func Figure3(cfg Config) (*Table, error) {
	return speedupSweep(cfg, "Figure 3: Shahin-Batch speedup ratio", runBatch)
}

// Figure4 regenerates the paper's Figure 4: Shahin-Streaming speedup
// ratio over the sequential baseline for every dataset and explainer.
func Figure4(cfg Config) (*Table, error) {
	return speedupSweep(cfg, "Figure 4: Shahin-Streaming speedup ratio", runStream)
}

// speedupSweep is the shared engine of Figures 3 and 4.
func speedupSweep(cfg Config, title string, run func(*Env, core.Options, [][]float64) (*core.Result, error)) (*Table, error) {
	cfg = cfg.Fill()
	t := &Table{
		Title:  title,
		Header: []string{"Dataset", "Batch", "LIME", "Anchor", "SHAP"},
	}
	for _, name := range DatasetNames() {
		env, err := NewEnv(name, cfg)
		if err != nil {
			return nil, err
		}
		for _, batch := range cfg.Batches {
			tuples, err := env.Tuples(batch)
			if err != nil {
				return nil, err
			}
			row := []string{name, itoa(batch)}
			for _, kind := range core.Kinds() {
				opts := cfg.Options(kind)
				seq, err := runSequential(env, opts, tuples)
				if err != nil {
					return nil, fmt.Errorf("%s %s/%s seq: %w", title, name, kind, err)
				}
				res, err := run(env, opts, tuples)
				if err != nil {
					return nil, fmt.Errorf("%s %s/%s: %w", title, name, kind, err)
				}
				row = append(row, f2(speedup(seq.Report.WallTime, res.Report.WallTime)))
			}
			t.AddRow(row...)
		}
	}
	return t, nil
}

// Figure5 regenerates the paper's Figure 5: the percentage of wall time
// Shahin-Batch spends on housekeeping (itemset mining + pooled sample
// retrieval), LIME on the Census-Income twin, as the batch grows.
func Figure5(cfg Config) (*Table, error) {
	cfg = cfg.Fill()
	env, err := NewEnv("census", cfg)
	if err != nil {
		return nil, err
	}
	opts := cfg.Options(core.LIME)
	t := &Table{
		Title:  "Figure 5: Shahin housekeeping overhead (LIME, census)",
		Header: []string{"Batch", "Overhead %", "Pooled itemsets", "Reused samples"},
	}
	for _, batch := range cfg.Batches {
		tuples, err := env.Tuples(batch)
		if err != nil {
			return nil, err
		}
		res, err := runBatch(env, opts, tuples)
		if err != nil {
			return nil, err
		}
		t.AddRow(itoa(batch),
			f2(100*res.Report.OverheadFraction()),
			itoa(res.Report.FrequentItemsets),
			fmt.Sprintf("%d", res.Report.ReusedSamples))
	}
	return t, nil
}

// fig6Sets is Figure 6's itemset count F. The paper varies τ with F
// fixed; ten is the floor of the pool's automatic budget (core's poolCap
// never caps below ten itemsets), so no τ can shrink F under it and
// confound the sweep.
const fig6Sets = 10

// Figure6 regenerates the paper's Figure 6: the impact of τ (the number
// of perturbations stored per frequent itemset) on the speedup ratio.
func Figure6(cfg Config) (*Table, error) {
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
		Title:  fmt.Sprintf("Figure 6: impact of tau (census, batch=%d, %d itemsets)", cfg.Batch, fig6Sets),
		Header: []string{"Tau", "LIME", "Anchor", "SHAP"},
	}
	taus := []int{1, 10, 100, 1000}
	base := map[core.Kind]float64{}
	for _, kind := range core.Kinds() {
		seq, err := runSequential(env, cfg.Options(kind), tuples)
		if err != nil {
			return nil, err
		}
		base[kind] = seq.Report.WallTime.Seconds()
	}
	for _, tau := range taus {
		row := []string{itoa(tau)}
		for _, kind := range core.Kinds() {
			opts := cfg.Options(kind)
			opts.Tau = tau
			opts.MaxItemsets = fig6Sets
			res, err := runBatch(env, opts, tuples)
			if err != nil {
				return nil, fmt.Errorf("figure6 tau=%d %s: %w", tau, kind, err)
			}
			row = append(row, f2(base[kind]/res.Report.WallTime.Seconds()))
		}
		t.AddRow(row...)
	}
	t.AddNote("itemset count held at %d across the sweep; at this batch size tau=1000's pool build is not amortised, so the paper's plateau appears as a decline", fig6Sets)
	return t, nil
}

// Figure7 regenerates the paper's Figure 7: the impact of the
// perturbation cache budget on the speedup ratio. The sweep is scaled
// with the workload (the paper sweeps 16 MB–1 GB at batch 10k-50k).
func Figure7(cfg Config) (*Table, error) {
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
		Title:  fmt.Sprintf("Figure 7: impact of cache size (census, batch=%d)", cfg.Batch),
		Header: []string{"Cache", "LIME", "Anchor", "SHAP"},
	}
	base := map[core.Kind]float64{}
	for _, kind := range core.Kinds() {
		seq, err := runSequential(env, cfg.Options(kind), tuples)
		if err != nil {
			return nil, err
		}
		base[kind] = seq.Report.WallTime.Seconds()
	}
	sizes := []int64{64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20}
	for _, size := range sizes {
		row := []string{fmtBytes(size)}
		for _, kind := range core.Kinds() {
			opts := cfg.Options(kind)
			opts.CacheBytes = size
			res, err := runBatch(env, opts, tuples)
			if err != nil {
				return nil, fmt.Errorf("figure7 cache=%d %s: %w", size, kind, err)
			}
			row = append(row, f2(base[kind]/res.Report.WallTime.Seconds()))
		}
		t.AddRow(row...)
	}
	t.AddNote("sizes scaled ~1/16 of the paper's sweep to match the scaled batch and tau")
	return t, nil
}

func fmtBytes(b int64) string {
	switch {
	case b >= 1<<20:
		return fmt.Sprintf("%dMB", b>>20)
	case b >= 1<<10:
		return fmt.Sprintf("%dKB", b>>10)
	default:
		return fmt.Sprintf("%dB", b)
	}
}
