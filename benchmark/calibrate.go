package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// runCalibration measures how well the benchmark repeats: for each
// workload (or just the named one) it makes two sets of n runs, every
// run a fresh process of this same binary, run i of either set on seed
// base+i. Per workload × end-to-end metric it prints both set medians,
// their relative difference, each set's quartile spread as a share of
// its median (the statistic the bounds must cover), and the worst single
// run's deviation from its set median. README.md holds the committed
// table; no bound in BENCHMARK.json may be tighter than twice the drift
// it shows.
func runCalibration(n int, workload string, base int64, seconds int) error {
	if n < 5 {
		return errors.New("--calibrate needs at least 5 runs per set")
	}
	self, err := os.Executable()
	if err != nil {
		return fmt.Errorf("locating the benchmark binary: %w", err)
	}
	fmt.Printf("| workload | metric | median A | median B | B vs A | spread A | spread B | worst run |\n|---|---|---|---|---|---|---|---|\n")
	for _, w := range workloads {
		if workload != "" && workload != w.name {
			continue
		}
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for i := 0; i < n; i++ {
				res, err := runChild(self, w.name, base+int64(i), seconds)
				if err != nil {
					return err
				}
				for _, m := range endToEnd {
					sets[s][m.name] = append(sets[s][m.name], res.Metrics[m.name].Value)
				}
			}
		}
		for _, m := range endToEnd {
			a, b := sets[0][m.name], sets[1][m.name]
			ma, mb := medianFloat(a), medianFloat(b)
			worst := 0.0
			for _, v := range a {
				worst = math.Max(worst, math.Abs(v-ma)/ma)
			}
			for _, v := range b {
				worst = math.Max(worst, math.Abs(v-mb)/mb)
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %+.2f %% | %.2f %% | %.2f %% | %.2f %% |\n",
				w.name, m.name, ma, mb, 100*(mb-ma)/ma, 100*spread(a), 100*spread(b), 100*worst)
		}
	}
	return nil
}

// runChild performs one untraced run in a fresh process and parses the
// result from the last line it printed.
func runChild(self, workload string, seed int64, seconds int) (*result, error) {
	cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		return nil, fmt.Errorf("%s seed %d: parsing result: %w", workload, seed, err)
	}
	return &res, nil
}

// spread is the distance between the first and third quartile as a
// share of the median, with quartiles as Python's
// statistics.quantiles(values, n=4) gives them (exclusive method).
func spread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	q := func(k float64) float64 {
		pos := k * float64(len(s)+1) / 4 // 1-based rank
		lo := int(pos)
		switch {
		case lo < 1:
			return s[0]
		case lo >= len(s):
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return (q(3) - q(1)) / medianFloat(s)
}
