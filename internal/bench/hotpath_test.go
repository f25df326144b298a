package bench

import (
	"sort"
	"testing"
)

// TestHotpathBodies: every //shahin:hotpath function has a benchmark
// body, the bodies are deterministic fixtures (no errors at build), and
// each one actually runs.
func TestHotpathBodies(t *testing.T) {
	bodies, err := hotpathBodies(1)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"exact.(*Explainer).Explain",
		"lime.(*Explainer).kernel",
		"lime.topKByAbs",
		"linmodel.(*Sym).Solve",
		"perturb.(*Generator).FillItemset",
		"perturb.(*Generator).ForItemset",
		"perturb.(*Generator).ForTuple",
		"perturb.BinaryEncode",
		"perturb.MatchesBins",
		"rf.(*Forest).Predict",
		"router.(*Ring).Lookup",
		"router.Signature",
	}
	var got []string
	for name := range bodies {
		got = append(got, name)
	}
	sort.Strings(got)
	if len(got) != len(want) {
		t.Fatalf("hotpathBodies returned %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hotpathBodies returned %v, want %v", got, want)
		}
	}
	// Each body must survive a small iteration count without panicking.
	for name, body := range bodies {
		name, body := name, body
		t.Run(name, func(t *testing.T) { body(3) })
	}
}

// TestHotpathResultsOne: the testing.Benchmark harness produces sane
// numbers for a single real body without running the full suite.
func TestHotpathResultsOne(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a real benchmark")
	}
	results, err := HotpathResults(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 12 {
		t.Fatalf("HotpathResults returned %d entries, want 12", len(results))
	}
	names := map[string]bool{}
	for _, r := range results {
		if names[r.Name] {
			t.Errorf("duplicate benchmark name %q", r.Name)
		}
		names[r.Name] = true
		if r.Runs <= 0 || r.NsPerOp <= 0 {
			t.Errorf("%s: runs=%d ns/op=%v, want positive", r.Name, r.Runs, r.NsPerOp)
		}
		if r.AllocsPerOp < 0 || r.BytesPerOp < 0 {
			t.Errorf("%s: negative allocation stats %+v", r.Name, r)
		}
	}
	if !sort.SliceIsSorted(results, func(i, j int) bool { return results[i].Name < results[j].Name }) {
		t.Error("results not sorted by name")
	}
}
