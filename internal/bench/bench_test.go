package bench

import (
	"bytes"
	"encoding/json"
	"strconv"
	"strings"
	"testing"
	"time"

	"shahin/internal/core"
)

// tiny returns the smallest config that still exercises every code path.
func tiny() Config {
	return Config{
		Rows:        2400,
		Batch:       30,
		Batches:     []int{20, 40},
		Trees:       15,
		Delay:       2 * time.Microsecond,
		Seed:        1,
		LIMESamples: 150,
		SHAPSamples: 96,
		Tau:         30,
	}.Fill()
}

func TestConfigFill(t *testing.T) {
	c := Config{}.Fill()
	if c.Rows != 6000 || c.Batch != 200 || c.Trees != 50 {
		t.Fatalf("defaults %+v", c)
	}
	if c.Delay != 50*time.Microsecond || len(c.Batches) != 3 {
		t.Fatalf("defaults %+v", c)
	}
	q := Quick()
	if q.Batch <= 0 || q.Rows <= 0 {
		t.Fatal("Quick config degenerate")
	}
}

func TestNewEnv(t *testing.T) {
	env, err := NewEnv("recidivism", tiny())
	if err != nil {
		t.Fatal(err)
	}
	if env.Train.NumRows()+env.Test.NumRows() != 2400 {
		t.Fatal("split lost rows")
	}
	if env.Forest == nil || env.Stats == nil {
		t.Fatal("env incomplete")
	}
	if _, err := env.Tuples(10_000_000); err == nil {
		t.Fatal("oversized tuple request accepted")
	}
	if _, err := NewEnv("nope", tiny()); err == nil {
		t.Fatal("unknown dataset accepted")
	}
	// The delayed classifier must agree with the raw forest.
	cls := env.Classifier()
	row := env.Test.Rows(0, 1)[0]
	if cls.Predict(row) != env.Forest.Predict(row) {
		t.Fatal("delay wrapper changed predictions")
	}
}

func TestTablePrinting(t *testing.T) {
	tab := &Table{Title: "T", Header: []string{"a", "bb"}}
	tab.AddRow("1", "2")
	tab.AddNote("n=%d", 5)
	var buf bytes.Buffer
	tab.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== T ==", "a", "bb", "note: n=5"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in %q", want, out)
		}
	}
}

func TestTableMarshalJSON(t *testing.T) {
	tab := &Table{
		Title:  "Figure 5: housekeeping overhead",
		Header: []string{"Explainer", "Invocations", "ReuseRate"},
	}
	tab.AddRow("LIME", "1470", "0.746")
	tab.AddRow("SHAP", "897", "0.720")
	tab.AddNote("counts are seed-deterministic")

	data, err := json.Marshal(tab)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Title  string   `json:"title"`
		Header []string `json:"header"`
		Rows   [][]any  `json:"rows"`
		Notes  []string `json:"notes"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.Title != tab.Title || len(got.Header) != 3 || len(got.Rows) != 2 || len(got.Notes) != 1 {
		t.Fatalf("shape %+v", got)
	}
	// Cells come back typed: strings stay strings, counts become JSON
	// numbers, decimals become floats.
	if got.Rows[0][0] != "LIME" {
		t.Errorf("string cell %v (%T)", got.Rows[0][0], got.Rows[0][0])
	}
	if got.Rows[0][1] != float64(1470) {
		t.Errorf("integer cell %v (%T)", got.Rows[0][1], got.Rows[0][1])
	}
	if got.Rows[1][2] != 0.720 {
		t.Errorf("float cell %v (%T)", got.Rows[1][2], got.Rows[1][2])
	}
}

// parseSpeedup extracts a float cell.
func parseSpeedup(t *testing.T, cell string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("cell %q: %v", cell, err)
	}
	return v
}

func TestFigure2ShahinWins(t *testing.T) {
	tab, err := Figure2(tiny())
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 6 { // 3 explainers x 2 batch sizes
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	// Per-cell wall ratios at a 2µs delay are noisy; assert the
	// contention-robust aggregate: mean Shahin speedup at the largest
	// batch clearly exceeds 1 and no cell collapses.
	var sum float64
	n := 0
	for _, row := range tab.Rows {
		if row[1] != "40" {
			continue
		}
		shahin := parseSpeedup(t, row[2])
		if shahin < 0.4 {
			t.Errorf("%s: Shahin speedup %.2f collapsed", row[0], shahin)
		}
		sum += shahin
		n++
	}
	if mean := sum / float64(n); mean <= 1.2 {
		t.Errorf("mean Shahin speedup at largest batch %.2f <= 1.2", mean)
	}
}

func TestFigure3SpeedupGrowsWithBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("figure 3 sweeps 5 datasets x 3 explainers x batch sizes")
	}
	cfg := tiny()
	tab, err := Figure3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != len(DatasetNames())*len(cfg.Batches) {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	// Individual cells are wall-clock ratios at a 2µs delay and swing
	// under machine contention; assert the contention-robust aggregate:
	// the mean speedup at the largest batch clearly exceeds 1, and no
	// cell collapses outright.
	var sum float64
	n := 0
	for _, row := range tab.Rows {
		if row[1] != "40" {
			continue
		}
		for col := 2; col <= 4; col++ {
			v := parseSpeedup(t, row[col])
			if v < 0.25 {
				t.Errorf("%s col %d speedup %.2f collapsed", row[0], col, v)
			}
			sum += v
			n++
		}
	}
	if mean := sum / float64(n); mean <= 1.2 {
		t.Errorf("mean speedup at largest batch %.2f <= 1.2", mean)
	}
}

func TestFigure5OverheadSmall(t *testing.T) {
	tab, err := Figure5(tiny())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tab.Rows {
		if v := parseSpeedup(t, row[1]); v > 50 {
			t.Errorf("batch %s overhead %.1f%% implausibly high", row[0], v)
		}
	}
}

func TestFigure6TauShape(t *testing.T) {
	cfg := tiny()
	tab, err := Figure6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 4 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	// LIME speedup at tau=100 must exceed tau=1 (more reusable samples).
	t1 := parseSpeedup(t, tab.Rows[0][1])
	t100 := parseSpeedup(t, tab.Rows[2][1])
	if t100 <= t1 {
		t.Errorf("LIME speedup tau=100 (%.2f) not above tau=1 (%.2f)", t100, t1)
	}
}

// Quality: Shahin's deviation from the baseline must stay within the
// baseline's own seed-to-seed variation (the paper's fidelity claim).
func TestQualityWithinNoiseFloor(t *testing.T) {
	tab, err := Quality(tiny())
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string][]string{}
	for _, row := range tab.Rows {
		rows[row[0]] = row
	}
	for _, kind := range []string{"LIME", "SHAP"} {
		sh, ok1 := rows[kind+" Shahin-vs-seq"]
		noise, ok2 := rows[kind+" seq-vs-seq"]
		if !ok1 || !ok2 {
			t.Fatalf("%s rows missing: %v", kind, tab.Rows)
		}
		shTau := parseSpeedup(t, sh[1])
		noiseTau := parseSpeedup(t, noise[1])
		if shTau < noiseTau-0.2 {
			t.Errorf("%s: Shahin tau %.3f well below noise floor %.3f", kind, shTau, noiseTau)
		}
		shTop := parseSpeedup(t, sh[2])
		noiseTop := parseSpeedup(t, noise[2])
		if shTop < noiseTop-0.25 {
			t.Errorf("%s: Shahin top-1 %.3f well below noise floor %.3f", kind, shTop, noiseTop)
		}
	}
	if _, ok := rows["Anchor Shahin-vs-seq"]; !ok {
		t.Error("Anchor quality row missing")
	}
}

func TestAblations(t *testing.T) {
	cfg := tiny()
	for name, fn := range map[string]func(Config) (*Table, error){
		"A1": AblationSample,
		"A2": AblationKernel,
		"A3": AblationBorder,
	} {
		tab, err := fn(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tab.Rows) < 2 {
			t.Fatalf("%s produced %d rows", name, len(tab.Rows))
		}
	}
}

func TestTable1Runs(t *testing.T) {
	if testing.Short() {
		t.Skip("table 1 covers 5 datasets x 3 explainers x 3 modes")
	}
	cfg := tiny()
	cfg.Batch = 20
	tab, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tab.Rows) != 5 {
		t.Fatalf("rows=%d", len(tab.Rows))
	}
	// Shape columns must match the paper exactly.
	want := map[string][3]string{
		"census":     {"27", "15", "18"},
		"recidivism": {"14", "5", "20"},
		"lending":    {"26", "24", "837"},
		"kddcup99":   {"13", "27", "490"},
		"covertype":  {"44", "10", "7"},
	}
	for _, row := range tab.Rows {
		w := want[row[0]]
		if row[2] != w[0] || row[3] != w[1] || row[4] != w[2] {
			t.Errorf("%s shape columns %v want %v", row[0], row[2:5], w)
		}
	}
	_ = core.Kinds()
}

func TestExtensions(t *testing.T) {
	if testing.Short() {
		t.Skip("extension experiments train extra models")
	}
	cfg := tiny()
	for name, fn := range map[string]func(Config) (*Table, error){
		"ext-sshap":    ExtSampleShapley,
		"ext-approx":   ExtApproximate,
		"ext-parallel": ExtParallel,
	} {
		tab, err := fn(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(tab.Rows) < 2 {
			t.Fatalf("%s produced %d rows", name, len(tab.Rows))
		}
	}
}

// The approximation sweep must show speedup increasing with the reuse
// fraction.
func TestExtApproximateMonotoneSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep runs five batch configurations")
	}
	tab, err := ExtApproximate(tiny())
	if err != nil {
		t.Fatal(err)
	}
	first := parseSpeedup(t, tab.Rows[0][1])
	last := parseSpeedup(t, tab.Rows[len(tab.Rows)-1][1])
	if last <= first {
		t.Fatalf("full reuse (%.2f) not faster than 25%% reuse (%.2f)", last, first)
	}
}
