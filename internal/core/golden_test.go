package core

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"shahin/internal/dataset"
	"shahin/internal/fault"
	"shahin/internal/obs"
	"shahin/internal/rf"
)

// updateGolden rewrites testdata/runners_golden.json from the code under
// test: `go test ./internal/core -run TestRunnersGolden -update`. A
// refactor never needs it; a behaviour change regenerates the file and
// the diff of the file is the record of which runs moved.
var updateGolden = flag.Bool("update", false, "rewrite testdata/runners_golden.json from this commit's code")

const goldenPath = "testdata/runners_golden.json"

// goldenFaults is a seeded, call-indexed fault profile: transient errors
// with retries, and a short hard outage that opens the breaker (an open
// breaker rejects calls before they reach the injector, so twelve outage
// calls last a few hundred predictions — some tuples degrade, not all).
// No deadline and microsecond backoff keep it independent of the wall
// clock.
func goldenFaults(seed int64) *fault.Config {
	return &fault.Config{
		FailRate:             0.03,
		Seed:                 seed,
		MaxRetries:           2,
		RetryBase:            time.Microsecond,
		RetryMax:             4 * time.Microsecond,
		OutageStart:          2500,
		OutageCalls:          60,
		BreakerThreshold:     5,
		BreakerCooldownCalls: 40,
	}
}

// goldenRunner is one way of driving the tuples through core. reps holds
// every report the run produced; the last is the headline the golden
// line spells out.
type goldenRunner struct {
	name string
	// faults reports whether the runner honours Options.Fault on one
	// goroutine (parallel workers share a call-indexed injector, so
	// their fault order depends on scheduling; Greedy has no bridge).
	faults bool
	run    func(st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64) ([]Explanation, []Report, error)
}

func goldenRunners() []goldenRunner {
	batch := func(workers int) func(*dataset.Stats, rf.Classifier, Options, [][]float64) ([]Explanation, []Report, error) {
		return func(st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64) ([]Explanation, []Report, error) {
			opts.Workers = workers
			b, err := NewBatch(st, cls, opts)
			if err != nil {
				return nil, nil, err
			}
			res, err := b.ExplainAll(tuples[:40])
			if err != nil {
				return nil, nil, err
			}
			return res.Explanations, []Report{res.Report}, nil
		}
	}
	stream := func(border bool, recompute int) func(*dataset.Stats, rf.Classifier, Options, [][]float64) ([]Explanation, []Report, error) {
		return func(st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64) ([]Explanation, []Report, error) {
			opts.StreamRecompute = recompute
			if recompute >= 50 {
				opts.Tau = 20 // a small τ lifts the itemset cap, leaving room to promote
			}
			opts.StreamBorder = &border
			s, err := NewStream(st, cls, opts)
			if err != nil {
				return nil, nil, err
			}
			exps := make([]Explanation, 0, 120)
			for _, tup := range tuples[:120] {
				e, err := s.Explain(tup)
				if err != nil {
					return nil, nil, err
				}
				exps = append(exps, e)
			}
			return exps, []Report{s.Report()}, nil
		}
	}
	return []goldenRunner{
		{"batch-w1", true, batch(1)},
		{"batch-w4", false, batch(4)},
		{"stream-border", true, stream(true, 20)},
		{"stream-noborder", true, stream(false, 20)},
		// Promotion needs a 50-tuple window, which a period of 20 never
		// reaches; these two differ exactly by the border promotions.
		{"stream-border-r60", true, stream(true, 60)},
		{"stream-noborder-r60", true, stream(false, 60)},
		{"warm", true, func(st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64) ([]Explanation, []Report, error) {
			w, err := NewWarm(st, cls, opts, 30)
			if err != nil {
				return nil, nil, err
			}
			var (
				exps []Explanation
				reps []Report
			)
			for f := 0; f < 3; f++ {
				res, err := w.ExplainAll(tuples[20*f : 20*f+20])
				if err != nil {
					return nil, nil, err
				}
				exps = append(exps, res.Explanations...)
				reps = append(reps, res.Report)
			}
			return exps, append(reps, w.Report()), nil
		}},
		{"sequential", true, func(st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64) ([]Explanation, []Report, error) {
			res, err := Sequential(st, cls, opts, tuples[:25])
			if err != nil {
				return nil, nil, err
			}
			return res.Explanations, []Report{res.Report}, nil
		}},
		{"dist-k3", true, func(st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64) ([]Explanation, []Report, error) {
			res, err := Dist(st, cls, opts, tuples[:30], 3)
			if err != nil {
				return nil, nil, err
			}
			return res.Explanations, []Report{res.Report}, nil
		}},
		{"greedy", false, func(st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64) ([]Explanation, []Report, error) {
			res, err := Greedy(st, cls, opts, tuples[:30], 1<<20)
			if err != nil {
				return nil, nil, err
			}
			return res.Explanations, []Report{res.Report}, nil
		}},
	}
}

// goldenCounts renders the seed-deterministic counters of a report.
func goldenCounts(r Report) string {
	return fmt.Sprintf("inv=%d pool=%d reused=%d freq=%d visits=%d deg=%d fail=%d cache=%d/%d/%d",
		r.Invocations, r.PoolInvocations, r.ReusedSamples, r.FrequentItemsets, r.NodeVisits,
		r.Degraded, r.Failed, r.Cache.Hits, r.Cache.Misses, r.Cache.Evictions)
}

// goldenLine is one run's golden value: a digest of the explanation
// JSON, a digest of the counters of every report the run produced, then
// the headline counters in the clear — so a diff of the golden file says
// whether answers moved, accounting moved, or both, and by how much.
func goldenLine(t *testing.T, exps []Explanation, reps []Report) string {
	t.Helper()
	buf, err := json.Marshal(exps)
	if err != nil {
		t.Fatal(err)
	}
	answers := sha256.Sum256(buf)
	counts := sha256.New()
	for _, r := range reps {
		fmt.Fprintf(counts, "|%s", goldenCounts(r))
	}
	return fmt.Sprintf("exp=%s rep=%s %s", hex.EncodeToString(answers[:8]),
		hex.EncodeToString(counts.Sum(nil)[:8]), goldenCounts(reps[len(reps)-1]))
}

// TestRunnersGolden pins every runner's answers and counters against
// values generated by the commit before the pool kernel existed: Batch
// (serial and parallel), Stream (border on and off), Warm (three flushes
// across a staleness re-mine), Sequential, Dist and Greedy, for all five
// explainer kinds, with and without a recorder, and — on the serial
// runners — with and without injected faults. The determinism tests
// compare a run with itself; this compares it with the last commit.
func TestRunnersGolden(t *testing.T) {
	plain := newEnv(t, 7, 120)
	owned := newExactEnv(t, 7, 120)

	got := map[string]string{}
	var names []string // in generation order, so failures print deterministically
	for _, kind := range AllKinds() {
		// The exact walker needs owned trees; every other kind runs on
		// the shared opaque test classifier.
		st, cls, tuples := plain.st, plain.cls, plain.tuples
		if kind == ExactSHAP {
			st, cls, tuples = owned.st, rf.Classifier(owned.forest), owned.tuples
		}
		for _, rn := range goldenRunners() {
			for _, recorded := range []bool{false, true} {
				for _, faulty := range []bool{false, true} {
					if faulty && !rn.faults {
						continue
					}
					name := fmt.Sprintf("%s/%s/rec=%t/fault=%t", rn.name, kind, recorded, faulty)
					opts := smallOpts(kind, 9)
					if recorded {
						opts.Recorder = obs.NewRecorder()
					}
					if faulty {
						opts.Fault = goldenFaults(13)
					}
					exps, reps, err := rn.run(st, cls, opts, tuples)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					got[name] = goldenLine(t, exps, reps)
					names = append(names, name)
				}
			}
		}
	}

	if *updateGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	buf, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate it with -update)", err)
	}
	var want map[string]string
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Errorf("golden file has %d runs, this commit produces %d", len(want), len(got))
	}
	for _, name := range names {
		if got[name] != want[name] {
			t.Errorf("%s\n  got  %s\n  want %s", name, got[name], want[name])
		}
	}
}
