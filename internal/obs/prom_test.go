package obs

import (
	"bytes"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPromName(t *testing.T) {
	cases := map[string]string{
		"classifier_invocations": "classifier_invocations",
		"pool-build":             "pool_build",
		"explain.tuple":          "explain_tuple",
		"a b":                    "a_b",
		"9lives":                 "_9lives",
		"":                       "_",
		"ns:stage":               "ns:stage",
	}
	for in, want := range cases {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}

// promSampleLine matches one Prometheus text-format sample:
// name{labels} value.
var promSampleLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9][0-9eE+.\-]*$`)

func TestWritePrometheusParses(t *testing.T) {
	r := NewRecorder()
	r.Counter("weird-name.metric").Add(3)
	r.Counter(CounterInvocations).Add(1234)
	r.Gauge(GaugeTuplesTotal).Set(40)
	h := r.Histogram("explain.tuple")
	h.Observe(100 * time.Microsecond)
	h.Observe(3 * time.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()

	for _, want := range []string{
		"shahin_weird_name_metric 3",
		"shahin_classifier_invocations 1234",
		"shahin_tuples_total 40",
		"# TYPE shahin_explain_tuple histogram",
		`shahin_explain_tuple_bucket{le="+Inf"} 2`,
		"shahin_explain_tuple_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}

	// Every line must be a comment or a well-formed sample, HELP/TYPE
	// must precede their metric, and histogram buckets must be cumulative.
	typed := map[string]bool{}
	var lastCum int64 = -1
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			typed[strings.Fields(line)[2]] = true
			continue
		}
		if !promSampleLine.MatchString(line) {
			t.Errorf("malformed sample line %q", line)
			continue
		}
		name := line[:strings.IndexAny(line, "{ ")]
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !typed[name] && !typed[base] {
			t.Errorf("sample %q has no preceding HELP/TYPE", name)
		}
		if strings.HasPrefix(line, "shahin_explain_tuple_bucket{") {
			fields := strings.Fields(line)
			v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
			if err != nil {
				t.Fatalf("bucket line %q: %v", line, err)
			}
			if v < lastCum {
				t.Errorf("bucket counts not cumulative: %d after %d in %q", v, lastCum, line)
			}
			lastCum = v
		}
	}

	var nilRec *Recorder
	buf.Reset()
	if err := nilRec.WritePrometheus(&buf); err != nil || buf.Len() != 0 {
		t.Fatalf("nil recorder wrote %q, err %v", buf.String(), err)
	}
}

// TestWritePrometheusBuildInfo: the fingerprint gauge must render with
// its full sorted label set and a constant value of 1.
func TestWritePrometheusBuildInfo(t *testing.T) {
	r := NewRecorder()
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE shahin_build_info gauge",
		`goversion="` + runtime.Version() + `"`,
		`goos="` + runtime.GOOS + `"`,
		`goarch="` + runtime.GOARCH + `"`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("build_info output missing %q", want)
		}
	}
	line := ""
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "shahin_build_info{") {
			line = l
		}
	}
	if line == "" || !strings.HasSuffix(line, "} 1") {
		t.Fatalf("build_info sample line %q, want constant 1", line)
	}
	for _, label := range []string{"dirty=", "goarch=", "goos=", "goversion=", "num_cpu=", "revision="} {
		if !strings.Contains(line, label) {
			t.Errorf("build_info line missing label %s: %q", label, line)
		}
	}
}

// TestWritePrometheusCuratedHelp: well-known metrics carry their
// curated HELP text; unknown ones fall back to the generic line.
func TestWritePrometheusCuratedHelp(t *testing.T) {
	r := NewRecorder()
	r.Counter(CounterInvocations).Add(1)
	r.Gauge(GaugeBreakerState).Set(0)
	r.Gauge("some_adhoc_gauge").Set(7)
	r.StartRuntimeSampling(time.Hour) // one immediate sample registers the runtime metrics
	r.StopRuntimeSampling()

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# HELP shahin_classifier_invocations " + promHelp[CounterInvocations],
		"# HELP shahin_fault_breaker_state " + promHelp[GaugeBreakerState],
		"# HELP shahin_runtime_heap_live_bytes " + promHelp[GaugeRuntimeHeapLive],
		"# HELP shahin_runtime_gc_pause_ns " + promHelp[HistRuntimeGCPause],
		`# HELP shahin_some_adhoc_gauge Shahin gauge "some_adhoc_gauge".`,
		"shahin_runtime_goroutines ",
		"# TYPE shahin_runtime_sched_latency_ns histogram",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

func TestFingerprint(t *testing.T) {
	fp := Fingerprint()
	if fp.GoVersion != runtime.Version() {
		t.Errorf("go version %q", fp.GoVersion)
	}
	if fp.GOOS != runtime.GOOS || fp.GOARCH != runtime.GOARCH {
		t.Errorf("platform %s/%s", fp.GOOS, fp.GOARCH)
	}
	if fp.NumCPU < 1 {
		t.Errorf("num cpu %d", fp.NumCPU)
	}
}
