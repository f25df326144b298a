// Benchmarks regenerating every table and figure of the paper's
// evaluation section at a reduced scale. Each benchmark runs one full
// experiment per iteration and reports the headline quantity (speedup,
// overhead %) as a custom metric; run with -v to see the full tables, or
// use cmd/shahin-bench for the complete printed output at larger scale.
package shahin_test

import (
	"bytes"
	"strconv"
	"testing"

	"shahin/internal/bench"
)

// runExperiment executes one experiment per b.N iteration and returns the
// last table.
func runExperiment(b *testing.B, fn func(bench.Config) (*bench.Table, error)) *bench.Table {
	b.Helper()
	cfg := bench.Quick()
	var tab *bench.Table
	for i := 0; i < b.N; i++ {
		var err error
		tab, err = fn(cfg)
		if err != nil {
			b.Fatal(err)
		}
	}
	if testing.Verbose() {
		var buf bytes.Buffer
		tab.Fprint(&buf)
		b.Log("\n" + buf.String())
	}
	return tab
}

// cell parses a numeric table cell.
func cell(b *testing.B, tab *bench.Table, row, col int) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(tab.Rows[row][col], 64)
	if err != nil {
		b.Fatalf("cell (%d,%d)=%q: %v", row, col, tab.Rows[row][col], err)
	}
	return v
}

// BenchmarkTable1 regenerates Table 1 (per-tuple seconds for sequential,
// Shahin-Batch, Shahin-Streaming across the five datasets).
func BenchmarkTable1(b *testing.B) {
	runExperiment(b, bench.Table1)
}

// BenchmarkFigure2 regenerates Figure 2 (Shahin vs DIST-k and GREEDY) and
// reports Shahin's speedup at the largest batch, averaged over explainers.
func BenchmarkFigure2(b *testing.B) {
	tab := runExperiment(b, bench.Figure2)
	sum, n := 0.0, 0
	last := tab.Rows[len(tab.Rows)-1][1]
	for _, row := range tab.Rows {
		if row[1] == last {
			sum += mustFloat(b, row[2])
			n++
		}
	}
	b.ReportMetric(sum/float64(n), "speedup")
}

// BenchmarkFigure3 regenerates Figure 3 and reports the mean Shahin-Batch
// speedup across datasets and explainers at the largest batch size.
func BenchmarkFigure3(b *testing.B) {
	tab := runExperiment(b, bench.Figure3)
	reportSweepSpeedup(b, tab)
}

// BenchmarkFigure4 regenerates Figure 4 (streaming) and reports the mean
// speedup at the largest batch size.
func BenchmarkFigure4(b *testing.B) {
	tab := runExperiment(b, bench.Figure4)
	reportSweepSpeedup(b, tab)
}

// BenchmarkFigure5 regenerates Figure 5 and reports the overhead
// percentage at the largest batch.
func BenchmarkFigure5(b *testing.B) {
	tab := runExperiment(b, bench.Figure5)
	b.ReportMetric(cell(b, tab, len(tab.Rows)-1, 1), "overhead%")
}

// BenchmarkFigure6 regenerates Figure 6 and reports the LIME speedup at
// tau = 100.
func BenchmarkFigure6(b *testing.B) {
	tab := runExperiment(b, bench.Figure6)
	for i, row := range tab.Rows {
		if row[0] == "100" {
			b.ReportMetric(cell(b, tab, i, 1), "speedup@tau100")
		}
	}
}

// BenchmarkFigure7 regenerates Figure 7 and reports the LIME speedup at
// the largest cache size.
func BenchmarkFigure7(b *testing.B) {
	tab := runExperiment(b, bench.Figure7)
	b.ReportMetric(cell(b, tab, len(tab.Rows)-1, 1), "speedup@maxcache")
}

// BenchmarkQuality regenerates the explanation-quality evaluation and
// reports LIME's Kendall-tau against the sequential baseline.
func BenchmarkQuality(b *testing.B) {
	tab := runExperiment(b, bench.Quality)
	for i, row := range tab.Rows {
		if row[0] == "LIME Shahin-vs-seq" {
			b.ReportMetric(cell(b, tab, i, 1), "kendall-tau")
		}
	}
}

// BenchmarkAblationKernel regenerates ablation A2 (SHAP size sampling).
func BenchmarkAblationKernel(b *testing.B) {
	runExperiment(b, bench.AblationKernel)
}

// reportSweepSpeedup averages the three explainer columns at the largest
// batch size of a Figure-3/4-shaped table.
func reportSweepSpeedup(b *testing.B, tab *bench.Table) {
	b.Helper()
	last := tab.Rows[len(tab.Rows)-1][1]
	sum, n := 0.0, 0
	for _, row := range tab.Rows {
		if row[1] != last {
			continue
		}
		for col := 2; col <= 4; col++ {
			sum += mustFloat(b, row[col])
			n++
		}
	}
	b.ReportMetric(sum/float64(n), "speedup")
}

func mustFloat(b *testing.B, s string) float64 {
	b.Helper()
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		b.Fatalf("parse %q: %v", s, err)
	}
	return v
}
