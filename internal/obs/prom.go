package obs

import (
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
)

// WritePrometheus renders the registry in the Prometheus text
// exposition format (version 0.0.4): every counter as a `counter`,
// every gauge as a `gauge`, and every histogram as a native prometheus
// `histogram` with cumulative power-of-two `le` buckets plus `_sum` and
// `_count` series. Metric names are sanitized (see promName) and
// prefixed with "shahin_"; output order is deterministic. A nil
// recorder writes nothing.
func (r *Recorder) WritePrometheus(w io.Writer) error {
	if r == nil {
		return nil
	}
	m := r.Metrics()
	if err := writePromKind(w, "counter", "", m.Counters, writePromInt); err != nil {
		return err
	}
	if err := writePromKind(w, "gauge", "", m.Gauges, writePromInt); err != nil {
		return err
	}
	if err := writePromKind(w, "histogram", " (power-of-two ns buckets)", m.Histograms, writePromHistogram); err != nil {
		return err
	}

	if st, ok := r.SLOStatus(); ok {
		if err := writePromSLO(w, st); err != nil {
			return err
		}
	}

	if err := writePromBuildInfo(w); err != nil {
		return err
	}

	pn := "shahin_uptime_ms"
	_, err := fmt.Fprintf(w, "# HELP %s Milliseconds since the recorder started.\n# TYPE %s gauge\n%s %s\n",
		pn, pn, pn, formatPromFloat(m.UptimeMS))
	return err
}

// writePromKind renders every metric of one kind in name order: the
// HELP line — curated, or the generic one naming the metric, its kind
// and the kind's note — the TYPE line, then the series body writes.
func writePromKind[V any](w io.Writer, kind, note string, metrics map[string]V, body func(w io.Writer, pn string, v V) error) error {
	names := make([]string, 0, len(metrics))
	for name := range metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		pn := "shahin_" + promName(name)
		help, ok := promHelp[name]
		if !ok {
			help = fmt.Sprintf("Shahin %s %q%s.", kind, name, note)
		}
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", pn, help, pn, kind); err != nil {
			return err
		}
		if err := body(w, pn, metrics[name]); err != nil {
			return err
		}
	}
	return nil
}

// writePromInt is a counter's or a gauge's one series.
func writePromInt(w io.Writer, pn string, v int64) error {
	_, err := fmt.Fprintf(w, "%s %d\n", pn, v)
	return err
}

// promHelp carries curated HELP text for the well-known metric names;
// anything unlisted gets writePromKind's generic line. The map is only
// ever looked up by key — never iterated — so its order cannot leak
// into the (deterministic) output.
var promHelp = map[string]string{
	CounterInvocations:       "Classifier Predict calls, including pool pre-labelling.",
	CounterReusedSamples:     "Pooled samples served in place of fresh classifier calls.",
	GaugeWarmPooledItemsets:  "Itemsets currently holding materialised perturbations in the warm pool.",
	GaugeServeStoreSize:      "Explanations currently held by the serving store.",
	GaugeBreakerState:        "Circuit-breaker state: 0 closed, 1 open, 2 half-open.",
	GaugeServeQueueDepth:     "Requests currently queued for the next serving flush.",
	GaugeRuntimeHeapLive:     "Live heap bytes (runtime/metrics /memory/classes/heap/objects).",
	GaugeRuntimeHeapGoal:     "Heap size the garbage collector is aiming for.",
	GaugeRuntimeAllocBytes:   "Cumulative heap bytes allocated since process start.",
	GaugeRuntimeAllocObjects: "Cumulative heap objects allocated since process start.",
	GaugeRuntimeGoroutines:   "Live goroutines.",
	GaugeRuntimeGCCycles:     "Completed GC cycles since process start.",
	GaugeRuntimeGCCPUPPM:     "Fraction of available CPU spent in the garbage collector, in parts per million.",
	HistRuntimeGCPause:       "GC stop-the-world pause distribution folded from runtime/metrics.",
	HistRuntimeSchedLatency:  "Goroutine scheduling latency distribution folded from runtime/metrics.",
}

// EnvFingerprint pins the environment a binary runs on, so a scraped
// fleet is attributable to an exact toolchain and commit.
type EnvFingerprint struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"num_cpu"`
	GitCommit string `json:"git_commit,omitempty"`
	GitDirty  bool   `json:"git_dirty,omitempty"`
}

// Fingerprint captures the current environment. The git commit comes
// from the binary's embedded build info when available (test binaries
// and `go run` builds may not carry it).
func Fingerprint() EnvFingerprint {
	fp := EnvFingerprint{
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

// writePromBuildInfo renders the build/environment fingerprint as a
// constant gauge.
func writePromBuildInfo(w io.Writer) error {
	fp := Fingerprint()
	pn := "shahin_build_info"
	if _, err := fmt.Fprintf(w, "# HELP %s Build and environment fingerprint; the value is always 1.\n# TYPE %s gauge\n", pn, pn); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s{dirty=\"%t\",goarch=%q,goos=%q,goversion=%q,num_cpu=\"%d\",revision=%q} 1\n",
		pn, fp.GitDirty, fp.GOARCH, fp.GOOS, fp.GoVersion, fp.NumCPU, fp.GitCommit)
	return err
}

// writePromSLO renders the SLO tracker's rolling-window evaluation:
// per-objective compliance, burn rate, and met flag, labelled by
// objective name, plus the window length.
func writePromSLO(w io.Writer, st SLOStatus) error {
	series := []struct {
		name string
		help string
		get  func(o SLOObjective) float64
	}{
		{"slo_compliance", "Good-event fraction over the rolling SLO window.",
			func(o SLOObjective) float64 { return o.Compliance }},
		{"slo_burn_rate", "Error-budget burn rate over the rolling SLO window (1.0 = burning exactly at budget).",
			func(o SLOObjective) float64 { return o.BurnRate }},
		{"slo_met", "Whether the objective currently meets its goal (1) or not (0).",
			func(o SLOObjective) float64 {
				if o.Met {
					return 1
				}
				return 0
			}},
	}
	for _, s := range series {
		pn := "shahin_" + s.name
		if _, err := fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n", pn, s.help, pn); err != nil {
			return err
		}
		for _, o := range st.Objectives {
			if _, err := fmt.Fprintf(w, "%s{objective=%q} %s\n", pn, o.Name, formatPromFloat(s.get(o))); err != nil {
				return err
			}
		}
	}
	pn := "shahin_slo_window_ms"
	_, err := fmt.Fprintf(w, "# HELP %s Rolling SLO window length in milliseconds.\n# TYPE %s gauge\n%s %s\n",
		pn, pn, pn, formatPromFloat(st.WindowMS))
	return err
}

// writePromHistogram is a histogram's series: cumulative bucket counts
// keyed by upper bound, then sum and count.
func writePromHistogram(w io.Writer, pn string, s HistogramSnapshot) error {
	var cum int64
	for _, b := range s.Buckets {
		cum += b.Count
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, b.UpperNS, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %d\n%s_count %d\n",
		pn, s.Count, pn, s.SumNS, pn, s.Count)
	return err
}

// promName sanitizes a metric name to the prometheus charset
// [a-zA-Z_:][a-zA-Z0-9_:]*: every other rune (dashes, dots, spaces)
// becomes an underscore, and a leading digit gets one prepended.
func promName(name string) string {
	if name == "" {
		return "_"
	}
	b := []byte(name)
	for i, c := range b {
		valid := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' || c >= '0' && c <= '9'
		if !valid {
			b[i] = '_'
		}
	}
	if b[0] >= '0' && b[0] <= '9' {
		return "_" + string(b)
	}
	return string(b)
}

// formatPromFloat renders a float the way prometheus expects (shortest
// round-trippable form).
func formatPromFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
