package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// contract mirrors BENCHMARK.json.
type contract struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func loadContract(t *testing.T) contract {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return c
}

// TestContractMatchesSpec holds BENCHMARK.json and spec.go in step:
// same workloads, same metrics in the same order with the same unit,
// direction and bound, and every layer metric saying which end-to-end
// metric it should move on which workload.
func TestContractMatchesSpec(t *testing.T) {
	c := loadContract(t)
	if got := strings.Join(c.Command, " "); got != "go run ./benchmark" {
		t.Errorf("command = %q", got)
	}
	if len(c.Paths) != 1 || c.Paths[0] != "benchmark" {
		t.Errorf("paths = %v", c.Paths)
	}
	if c.RunSeconds < 1 || c.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", c.RunSeconds)
	}

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in spec.go", len(c.Workloads), len(workloads))
	}
	workloadNames := map[string]bool{}
	for i, w := range workloads {
		workloadNames[w.name] = true
		if c.Workloads[i].Name != w.name || c.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), spec.go has %q (%q)", i, c.Workloads[i].Name, c.Workloads[i].Why, w.name, w.why)
		}
		if !nameRE.MatchString(w.name) || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
	}

	seen := map[string]bool{}
	compare := func(kind string, got []contractMetric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%d %s metrics in BENCHMARK.json, %d in spec.go", len(got), kind, len(want))
		}
		for i, m := range want {
			g := got[i]
			if g.Name != m.name || g.Unit != m.unit || g.Better != m.better {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, spec.go has %+v", kind, i, g, m)
			}
			if !nameRE.MatchString(m.name) || !unitRE.MatchString(m.unit) {
				t.Errorf("%s metric %q (%q): name or unit outside the allowed characters", kind, m.name, m.unit)
			}
			if m.better != "lower" && m.better != "higher" {
				t.Errorf("%s metric %q: direction %q", kind, m.name, m.better)
			}
			if seen[m.name] {
				t.Errorf("metric name %q used twice", m.name)
			}
			seen[m.name] = true
			switch {
			case bounded && (g.Bound == nil || *g.Bound != m.bound || m.bound <= 0 || m.bound > 0.25):
				t.Errorf("end-to-end metric %q: bound %v in BENCHMARK.json, %v in spec.go", m.name, g.Bound, m.bound)
			case !bounded && g.Bound != nil:
				t.Errorf("per-layer metric %q carries a bound", m.name)
			}
		}
	}
	compare("end-to-end", c.EndToEnd, endToEnd, true)
	compare("per-layer", c.PerLayer, perLayer, false)

	endToEndNames := map[string]bool{}
	for _, m := range endToEnd {
		endToEndNames[m.name] = true
	}
	if m := endToEnd[0]; m.name != mSetup || m.unit != "s" || m.better != "lower" {
		t.Errorf("the first end-to-end metric must be setup_s in s, lower is better; got %+v", m)
	}
	for _, m := range perLayer {
		metric, rest, ok := strings.Cut(m.moves, " on ")
		if !ok || !endToEndNames[metric] {
			t.Errorf("per-layer metric %q: moves %q does not start with an end-to-end metric", m.name, m.moves)
			continue
		}
		first := strings.FieldsFunc(rest, func(r rune) bool { return r == ',' || r == ';' || r == ' ' })
		if len(first) == 0 || !workloadNames[first[0]] {
			t.Errorf("per-layer metric %q: moves %q does not name a workload", m.name, m.moves)
		}
	}
}

// TestWorkloadsRunTiny runs every workload once untraced and once
// traced at a tiny scale and checks that each prints exactly the
// metrics BENCHMARK.json promises, with their units, and that every
// end-to-end value is a finite non-zero number.
func TestWorkloadsRunTiny(t *testing.T) {
	if testing.Short() {
		t.Skip("runs all four workloads; skipped in -short mode")
	}
	c := loadContract(t)
	for _, w := range c.Workloads {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			res, err := execute(w.Name, 7, tinySizes(), traced, "")
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json lists %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: metric %q not printed", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s %s: unit %q, BENCHMARK.json says %q", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s %s = %v", w.Name, m.Name, got.Value)
				case !traced && got.Value == 0:
					t.Errorf("%s %s reads 0; end-to-end metrics must never be 0", w.Name, m.Name)
				}
			}
		}
	}
}
