package core

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"math/rand"
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
// with retries, and a short hard outage from call start that opens the
// breaker (an open breaker rejects calls before they reach the injector,
// so twelve outage calls last a few hundred predictions — some tuples
// degrade, not all). No deadline and microsecond backoff keep it
// independent of the wall clock.
func goldenFaults(seed, start int64) *fault.Config {
	return &fault.Config{
		FailRate:             0.03,
		Seed:                 seed,
		MaxRetries:           2,
		RetryBase:            time.Microsecond,
		RetryMax:             4 * time.Microsecond,
		OutageStart:          start,
		OutageCalls:          60,
		BreakerThreshold:     5,
		BreakerCooldownCalls: 40,
	}
}

// goldenRunner is one way of driving the tuples through core. reps holds
// every report the run produced; the last is the headline the golden
// line spells out. A runner that keeps its pool returns it.
type goldenRunner struct {
	name string
	// faults reports whether the runner honours Options.Fault on one
	// goroutine (parallel workers share a call-indexed injector, so
	// their fault order depends on scheduling).
	faults bool
	run    goldenRun
}

type goldenRun func(st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64) ([]Explanation, []Report, *poolState, error)

func goldenRunners() []goldenRunner {
	batch := func(workers int) goldenRun {
		return func(st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64) ([]Explanation, []Report, *poolState, error) {
			opts.Workers = workers
			b, err := NewBatch(st, cls, opts)
			if err != nil {
				return nil, nil, nil, err
			}
			res, err := b.ExplainAll(tuples[:40])
			if err != nil {
				return nil, nil, nil, err
			}
			return res.Explanations, []Report{res.Report}, nil, nil // the pool goes with the run: see batchPool
		}
	}
	stream := func(recompute int) goldenRun {
		return func(st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64) ([]Explanation, []Report, *poolState, error) {
			opts.StreamRecompute = recompute
			if recompute >= 50 {
				opts.Tau = 20 // a small τ lifts the itemset cap, leaving room to promote
			}
			s, err := NewStream(st, cls, opts)
			if err != nil {
				return nil, nil, nil, err
			}
			exps := make([]Explanation, 0, 120)
			for _, tup := range tuples[:120] {
				e, err := s.Explain(tup)
				if err != nil {
					return nil, nil, nil, err
				}
				exps = append(exps, e)
			}
			return exps, []Report{s.Report()}, s.ps, nil
		}
	}
	return []goldenRunner{
		{"batch-w1", true, batch(1)},
		{"batch-w4", false, batch(4)},
		// Promotion needs a 50-tuple window, which a period of 20 never
		// reaches; a period of 60 does.
		{"stream-border", true, stream(20)},
		{"stream-border-r60", true, stream(60)},
		{"warm", true, func(st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64) ([]Explanation, []Report, *poolState, error) {
			w, err := NewWarm(st, cls, opts, 30)
			if err != nil {
				return nil, nil, nil, err
			}
			var (
				exps []Explanation
				reps []Report
			)
			for f := 0; f < 3; f++ {
				res, err := w.ExplainAll(tuples[20*f : 20*f+20])
				if err != nil {
					return nil, nil, nil, err
				}
				exps = append(exps, res.Explanations...)
				reps = append(reps, res.Report)
			}
			return exps, append(reps, w.Report()), w.s.ps, nil
		}},
		{"sequential", true, func(st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64) ([]Explanation, []Report, *poolState, error) {
			res, err := SequentialCtx(context.Background(), st, cls, opts, tuples[:25])
			if err != nil {
				return nil, nil, nil, err
			}
			return res.Explanations, []Report{res.Report}, nil, nil
		}},
	}
}

// goldenCounts renders the seed-deterministic counters of a report.
func goldenCounts(r Report) string {
	return fmt.Sprintf("inv=%d pool=%d reused=%d freq=%d visits=%d deg=%d fail=%d cache=%d/%d/%d",
		r.Invocations, r.PoolInvocations, r.ReusedSamples, r.FrequentItemsets, r.NodeVisits,
		r.Degraded, r.Failed, r.Cache.Hits, r.Cache.Misses, r.Cache.Evictions)
}

// goldenLine is one run's golden value: a digest of the explanations'
// values, a digest of the counters of every report the run produced,
// then the headline counters in the clear — so a diff of the golden file
// says whether answers moved, accounting moved, or both, and by how much.
func goldenLine(t *testing.T, exps []Explanation, reps []Report) string {
	t.Helper()
	counts := sha256.New()
	for _, r := range reps {
		fmt.Fprintf(counts, "|%s", goldenCounts(r))
	}
	return fmt.Sprintf("exp=%s rep=%s %s", answerDigest(exps),
		hex.EncodeToString(counts.Sum(nil)[:8]), goldenCounts(reps[len(reps)-1]))
}

// answerDigest hashes what the explanations say, not how they marshal:
// each one's status and, for an attribution, its class, intercept and
// weights by their bits; for a rule, its class, items, and precision and
// coverage by their bits. Renaming a JSON tag moves no digest; a weight
// one ulp off does.
func answerDigest(exps []Explanation) string {
	h := sha256.New()
	bits := func(xs ...float64) {
		for _, x := range xs {
			fmt.Fprintf(h, " %016x", math.Float64bits(x))
		}
	}
	for _, e := range exps {
		fmt.Fprintf(h, "|s%d", e.Status)
		if a := e.Attribution; a != nil {
			fmt.Fprintf(h, " a%d", a.Class)
			bits(a.Intercept)
			bits(a.Weights...)
		}
		if r := e.Rule; r != nil {
			fmt.Fprintf(h, " r%d %v %t", r.Class, r.Items, r.Unverified)
			bits(r.Precision, r.Coverage)
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// goldenEnv returns what each kind's golden runs explain: the exact
// walker needs owned trees; every other kind runs on the shared opaque
// test classifier.
func goldenEnv(t *testing.T) func(Kind) (*dataset.Stats, rf.Classifier, [][]float64) {
	plain := newEnv(t, 7, 120)
	owned := newExactEnv(t, 7, 120)
	return func(kind Kind) (*dataset.Stats, rf.Classifier, [][]float64) {
		if kind == ExactSHAP {
			return owned.st, owned.forest, owned.tuples
		}
		return plain.st, plain.cls, plain.tuples
	}
}

// batchPool rebuilds the pool a Batch run over tuples built and dropped:
// ExplainAllCtx's steps under a fresh frame — buildPool, then the explain
// phase, in which Anchor's pool fills; watch, if set, sees the pool
// between the two. ran is that run's report; a pool built at another
// cost is not its pool.
func batchPool(t *testing.T, st *dataset.Stats, cls rf.Classifier, opts Options, tuples [][]float64, ran Report, watch func(*poolState)) *poolState {
	t.Helper()
	b, err := NewBatch(st, cls, opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(b.opts.Seed))
	f := b.begin(context.Background(), rng, obs.StageBatch, len(tuples))
	defer f.span.End()
	var rep Report
	ps, err := b.buildPool(f, rng, tuples, &rep)
	if err != nil {
		t.Fatal(err)
	}
	if watch != nil {
		watch(ps)
	}
	ps.attach(f.eng)
	if _, _, err := ps.step(f.eng).explainAll(f, ps, tuples, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.PoolInvocations != ran.PoolInvocations || rep.FrequentItemsets != ran.FrequentItemsets {
		t.Fatalf("batchPool labelled %d samples for %d itemsets, the run %d for %d: it no longer follows ExplainAllCtx",
			rep.PoolInvocations, rep.FrequentItemsets, ran.PoolInvocations, ran.FrequentItemsets)
	}
	return ps
}

// TestPooledLabelsAreClassifierLabels: a pooled label is served to every
// later tuple as the classifier's own, so after a seeded fault run every
// sample a runner's pool holds must be one the classifier labelled, call
// for call (checkPoolLabels) — none the degradation ladder supplied while
// the backend was failing. (ExactSHAP under a fault chain runs as pooled
// KernelSHAP.)
// Anchor's repository also takes its own pulls' samples, which are kept
// only when none of the pull's labels was guessed.
//
// Two profiles: the golden one, its outage moved to the run's first
// fill (firstFill) and its breaker held open ten times as long, so the
// outage spans thousands of calls of fills; and midfill, which fails one
// call in twenty-five with no retry, so most fills take a guess and a few
// take none. The mutant "materialize stores every label" (stored := true)
// fails every subtest of both, at this cooldown and at the profile's own.
func TestPooledLabelsAreClassifierLabels(t *testing.T) {
	env := goldenEnv(t)
	midFill := &fault.Config{FailRate: 0.04, Seed: 13, BreakerThreshold: -1}
	degraded, pooled := 0, 0
	for _, kind := range AllKinds() {
		st, plain, tuples := env(kind)
		for _, rn := range goldenRunners() {
			if !rn.faults || rn.name == "sequential" {
				continue // Sequential pools nothing
			}
			for _, profile := range []string{"", "/midfill"} {
				opts := smallOpts(kind, 9)
				opts.Fault = midFill
				if profile == "" {
					opts.Fault = goldenFaults(13, firstFill(t, rn, st, plain, kind, tuples))
					opts.Fault.BreakerCooldownCalls = 400
				}
				cls := newWitness(st, plain)
				_, reps, ps, err := rn.run(st, cls, opts, tuples)
				if err != nil {
					t.Fatalf("%s/%s%s: %v", rn.name, kind, profile, err)
				}
				if rn.name == "batch-w1" {
					cls = newWitness(st, plain)
					ps = batchPool(t, st, cls, opts, tuples[:40], reps[0], nil)
				}
				degraded += reps[len(reps)-1].Degraded
				if profile != "" {
					pooled += ps.repo.Len()
				}
				t.Run(fmt.Sprintf("%s/%s%s", rn.name, kind, profile), func(t *testing.T) { checkPoolLabels(t, ps, cls) })
			}
		}
	}
	if pooled == 0 {
		t.Error("the midfill profile pooled nothing: its subtests check no sample")
	}
	if degraded == 0 {
		t.Error("no answer of any run was degraded: the profile no longer exercises the ladder")
	}
}

// firstFill is the attempt at which rn's run over tuples begins its
// first fill, read from a recorded run under the golden profile without
// its outage: the chain's attempts (calls that reached the classifier,
// and injected failures) when the pool first counts labels, less the
// fill's own. Fills run in the middle of tuples, so the outage starts at
// the fill, wherever in its tuple the fill falls.
func firstFill(t *testing.T, rn goldenRunner, st *dataset.Stats, cls rf.Classifier, kind Kind, tuples [][]float64) int64 {
	t.Helper()
	opts := smallOpts(kind, 9)
	opts.Fault = goldenFaults(13, 0)
	opts.Fault.OutageCalls = 0
	opts.Recorder = obs.NewRecorder()
	at := &fillStart{Classifier: cls, rec: opts.Recorder, at: -1}
	if _, _, _, err := rn.run(st, at, opts, tuples); err != nil {
		t.Fatalf("%s/%s without its outage: %v", rn.name, kind, err)
	}
	for _, e := range opts.Recorder.Events() {
		if e.Type == obs.EventPreLabel && at.at >= 0 {
			return at.at - e.Fresh
		}
	}
	t.Fatalf("%s/%s filled nothing", rn.name, kind)
	return 0
}

// fillStart is a classifier that notes the chain's attempts at the first
// call after the pool first counts labels.
type fillStart struct {
	rf.Classifier
	rec       *obs.Recorder
	calls, at int64
}

func (f *fillStart) Predict(x []float64) int {
	if f.at < 0 && f.rec.Counter(obs.CounterPoolInvocations).Value() > 0 {
		f.at = f.calls + f.rec.Counter(obs.CounterFaultsInjected).Value()
	}
	f.calls++
	return f.Classifier.Predict(x)
}

// TestRunnersGolden pins every runner's answers and counters against
// values generated by the commit before the pool kernel existed: Batch
// (serial and parallel), Stream (two re-mine periods), Warm (three
// flushes across a staleness re-mine) and Sequential, for all four
// explainer kinds, with and without a recorder, and — on the serial
// runners — with and without injected faults. The determinism tests
// compare a run with itself; this compares it with the last commit. A
// faulted run's outage starts halfway through the calls the same run
// makes past its pool's labels without the outage, so it lands among
// the explanations of every run however the pool's size moves, and every
// faulted run must degrade an answer.
func TestRunnersGolden(t *testing.T) {
	env := goldenEnv(t)
	got := map[string]string{}
	var names []string // in generation order, so failures print deterministically
	for _, kind := range AllKinds() {
		st, cls, tuples := env(kind)
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
						probe := smallOpts(kind, 9)
						probe.Fault = goldenFaults(13, 0)
						probe.Fault.OutageCalls = 0
						_, reps, _, err := rn.run(st, cls, probe, tuples)
						if err != nil {
							t.Fatalf("%s without its outage: %v", name, err)
						}
						r := reps[len(reps)-1]
						opts.Fault = goldenFaults(13, r.PoolInvocations+(r.Invocations-r.PoolInvocations)/2)
					}
					exps, reps, _, err := rn.run(st, cls, opts, tuples)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if faulty && reps[len(reps)-1].Degraded == 0 {
						t.Errorf("%s: no answer degraded: the outage never reached the ladder", name)
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
