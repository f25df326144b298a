// Command shahin-bench regenerates the tables and figures of the paper's
// evaluation section (plus this repo's ablations and extensions) on the
// synthetic dataset twins.
//
// Usage:
//
//	shahin-bench                      # every experiment, laptop scale
//	shahin-bench -exp fig2,fig6      # specific experiments
//	shahin-bench -full               # larger workloads (minutes)
//	shahin-bench -list               # available experiments
//	shahin-bench -json BENCH_full.json   # keep the tables as JSON
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strings"
	"time"

	"shahin/internal/bench"
	"shahin/internal/cli"
)

func main() {
	var (
		exp     = flag.String("exp", "", "comma-separated experiment ids (default: all)")
		list    = flag.Bool("list", false, "list experiments and exit")
		full    = flag.Bool("full", false, "larger workloads (closer to paper scale; takes minutes)")
		rows    = flag.Int("rows", 0, "override dataset rows")
		batch   = flag.Int("batch", 0, "override single-batch size")
		seed    = flag.Int64("seed", 1, "master seed")
		delay   = flag.Duration("delay", 0, "override per-invocation classifier delay")
		jsonOut = flag.String("json", "", "write the run record (name, env, config, tables) as JSON to this file when done")
		obsv    = cli.ObsFlags(flag.CommandLine, "chrome-trace", "events-out")
	)
	flag.Parse()

	if *list {
		for _, id := range bench.ExperimentIDs() {
			e, _ := bench.LookupExperiment(id)
			fmt.Printf("%-12s %s\n", id, e.Desc)
		}
		return
	}

	// Every experiment is instrumented: spans and counters cost a few
	// atomic operations per tuple, invisible next to the calibrated
	// per-invocation classifier delay.
	rec, err := obsv.Start(true)
	if err != nil {
		cli.Fatal(err)
	}

	cfg := bench.Config{Seed: *seed, Recorder: rec}.Fill()
	if *full {
		cfg.Rows = 20000
		cfg.Batch = 1000
		cfg.Batches = []int{100, 500, 1000, 2000}
		cfg.LIMESamples = 1000
		cfg.SHAPSamples = 1024
	}
	if *rows > 0 {
		cfg.Rows = *rows
	}
	if *batch > 0 {
		cfg.Batch = *batch
	}
	if *delay > 0 {
		cfg.Delay = *delay
	}

	ids := bench.ExperimentIDs()
	if *exp != "" {
		ids = strings.Split(*exp, ",")
	}
	exps, err := resolve(ids)
	if err != nil {
		cli.Fatal(err)
	}
	var tables []*bench.Table
	for i, e := range exps {
		id := ids[i]
		start := time.Now() //shahinvet:allow walltime — experiment wall time shown to the user
		tab, err := e.Run(cfg)
		if err != nil {
			cli.Fatal(fmt.Errorf("%s: %w", id, err))
		}
		tab.Fprint(os.Stdout)
		tables = append(tables, tab)
		fmt.Printf("(%s took %v)\n", id, time.Since(start).Round(time.Millisecond))
	}

	// The run record is written once and read by nothing in this repo:
	// it keeps a figure run's tables next to the scale and machine that
	// produced them.
	err = cli.WriteArtifact(*jsonOut, "run record", func(w io.Writer) error {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Name   string         `json:"name"`
			Env    envFingerprint `json:"env"`
			Config bench.Config   `json:"config"`
			Tables []*bench.Table `json:"tables"`
		}{strings.Join(ids, ","), fingerprint(), cfg, tables})
	})
	if err == nil {
		err = obsv.Finish()
	}
	if err != nil {
		cli.Fatal(err)
	}
}

// resolve trims every id and looks it up before any experiment runs, so
// an unknown id fails at once rather than after the experiments listed
// before it.
func resolve(ids []string) ([]bench.Experiment, error) {
	exps := make([]bench.Experiment, len(ids))
	for i, id := range ids {
		ids[i] = strings.TrimSpace(id)
		e, ok := bench.LookupExperiment(ids[i])
		if !ok {
			return nil, fmt.Errorf("unknown experiment %q (want one of %s)", ids[i], strings.Join(bench.ExperimentIDs(), ", "))
		}
		exps[i] = e
	}
	return exps, nil
}

// envFingerprint pins the environment a run record was made on, so its
// tables are attributable to an exact toolchain and commit.
type envFingerprint struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	GitCommit string `json:"git_commit,omitempty"`
	GitDirty  bool   `json:"git_dirty,omitempty"`
}

// fingerprint captures the current environment. The git commit comes
// from the binary's embedded build info when available (test binaries
// and `go run` builds may not carry it).
func fingerprint() envFingerprint {
	fp := envFingerprint{
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				fp.GitCommit = s.Value
			case "vcs.modified":
				fp.GitDirty = s.Value == "true"
			}
		}
	}
	return fp
}
