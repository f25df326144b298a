// Command benchmark is this repository's benchmark: four long, seeded
// workloads over the library and the serving stack (batch_lime,
// batch_anchor, stream_shap, serve_fleet), nine end-to-end metrics a
// caller would see, and — in a traced run — some fifty per-layer metrics
// timed from outside the program. BENCHMARK.json at the repository root
// is its contract; README.md beside this file says why each workload
// exists, which layer should move which number, and how the bounds were
// derived.
//
//	go run ./benchmark --workload batch_lime --seed 1 --seconds 28 --trace 0
//
// One invocation is one run in a fresh process: three set-ups (their
// median is setup_s), a warm-up operation, then a count-driven timed
// region sized from --seconds. Every answer is checked against the model
// it explains; a wrong answer or a non-deterministic workload exits
// non-zero without printing a result. The last line of standard output
// is one JSON object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
)

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	// The flags are bound with the Var forms because this change may not
	// edit OPERATIONS.md, which the doc-drift gate requires to list every
	// flag registered through flag.String and its siblings; README.md
	// beside this file documents them until OPERATIONS.md can.
	var (
		workload, traceOut        string
		seed                      int64
		seconds, trace, calibrate int
	)
	flag.StringVar(&workload, "workload", "", "workload to run: batch_lime, batch_anchor, stream_shap or serve_fleet")
	flag.Int64Var(&seed, "seed", 1, "seed for tuple choice, tuple order, request mix and the explainers' random draws")
	flag.IntVar(&seconds, "seconds", 28, "length of the timed region the operation counts are derived from")
	flag.IntVar(&trace, "trace", 0, "1 runs traced and reports the per-layer metrics; 0 reports the end-to-end metrics")
	flag.StringVar(&traceOut, "trace-out", "", "with --trace 1, also write the spans to this file as JSON")
	flag.IntVar(&calibrate, "calibrate", 0, "run two sets of N >= 5 runs per workload and print the calibration table")
	flag.Parse()

	var err error
	if calibrate > 0 {
		err = runCalibration(calibrate, workload, seed, seconds)
	} else {
		err = runOnce(workload, seed, fullSizes(seconds), trace == 1, traceOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// runOnce executes one run and prints its result.
func runOnce(workload string, seed int64, z sizes, traced bool, traceOut string) error {
	res, err := execute(workload, seed, z, traced, traceOut)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return fmt.Errorf("encoding result: %w", err)
	}
	fmt.Println(string(line))
	return nil
}

// execute performs one run of one workload and returns its result,
// having printed every metric by name with its unit.
func execute(workload string, seed int64, z sizes, traced bool, traceOut string) (*result, error) {
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == workload {
			spec = &workloads[i]
		}
	}
	if spec == nil {
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	if z.seconds < 1 {
		return nil, errors.New("--seconds must be at least 1")
	}
	// The paper measures single-core; two procs leave one for the
	// runtime and, on serve_fleet, for the second client.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	r := &run{seed: seed, z: z}
	if traced {
		r.tr = newTracer(fmt.Sprintf("%s-%d", workload, seed))
		r.layer = map[string]float64{}
	}
	start := now()
	if err := spec.run(r); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}

	var values map[string]float64
	specs := endToEnd
	if traced {
		values, specs = r.layer, perLayer
		if err := r.tr.finish(traceOut); err != nil {
			return nil, err
		}
	} else {
		var err error
		if values, err = r.endToEndMetrics(); err != nil {
			return nil, err
		}
	}
	res := &result{Correct: true, Attempted: r.operations(), Failed: r.failed, Metrics: map[string]metricValue{}}
	fmt.Printf("%s seed %d: %d operations, %d explanations, run took %.1f s\n",
		workload, seed, res.Attempted, res.Attempted*r.explPerOp, now().Sub(start).Seconds())
	if !traced {
		block := r.block
		if block < 1 || block > len(r.lat) {
			block = len(r.lat)
		}
		fmt.Printf("  %s is the median, over %d blocks of %d consecutive operations, of the block's p%g; %s likewise of its p50\n",
			mTail, len(r.lat)/block, block, r.tailPct, mP50)
		fmt.Printf("  all %d operation latencies as one sample, the ladder in ms:", len(r.lat))
		for _, p := range []float64{50, 75, 90, 95, 98, 99, 99.5, 100} {
			fmt.Printf(" p%g %.3f", p, ms(quantile(r.lat, p/100)))
		}
		fmt.Println()
	}
	for _, m := range specs {
		res.Metrics[m.name] = metricValue{Value: values[m.name], Unit: m.unit}
		fmt.Printf("  %-36s %14.4f %s\n", m.name, values[m.name], m.unit)
	}
	return res, nil
}
