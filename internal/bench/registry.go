package bench

// Experiment is one runnable entry in the experiment list: a
// human-readable description plus the runner itself.
type Experiment struct {
	// Desc is the one-line description shown by `shahin-bench -list`.
	Desc string
	// Run executes the experiment at the given config scale.
	Run func(Config) (*Table, error)
}

// experiments lists the paper's tables and figures, this repo's
// ablations and its extensions, in the order a bare shahin-bench runs
// them.
var experiments = []struct {
	id string
	Experiment
}{
	{"table1", Experiment{"Table 1: dataset characteristics + per-tuple seconds", Table1}},
	{"fig2", Experiment{"Figure 2: Shahin vs DIST-k and GREEDY baselines", Figure2}},
	{"fig3", Experiment{"Figure 3: Shahin-Batch speedup across datasets", Figure3}},
	{"fig4", Experiment{"Figure 4: Shahin-Streaming speedup across datasets", Figure4}},
	{"fig5", Experiment{"Figure 5: housekeeping overhead", Figure5}},
	{"fig6", Experiment{"Figure 6: impact of tau", Figure6}},
	{"fig7", Experiment{"Figure 7: impact of cache size", Figure7}},
	{"quality", Experiment{"Explanation quality vs sequential baseline", Quality}},
	{"abl-kernel", Experiment{"Ablation A2: SHAP kernel size sampling", AblationKernel}},
	{"ext-approx", Experiment{"Extension: approximation via reuse fraction", ExtApproximate}},
	{"ext-parallel", Experiment{"Extension: worker parallelism", ExtParallel}},
}

// LookupExperiment returns the experiment registered under id.
func LookupExperiment(id string) (Experiment, bool) {
	for _, e := range experiments {
		if e.id == id {
			return e.Experiment, true
		}
	}
	return Experiment{}, false
}

// ExperimentIDs returns every experiment id in run order.
func ExperimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}
