// Package cli is the one bootstrap behind every shahin binary, so the
// binaries cannot drift apart.
//
// The protocol (protocol.go). The paper's evaluation is: synthetic or
// CSV data, 1/3 to train a random forest, 2/3 held out to explain, a
// seeded explainer. Everything reuse rests on — pooled labels, the
// router's itemset signatures, a shahin-store file that shahin-serve
// answers from — is sound only between processes that derived the same
// Stats and the same forest, because a memoised answer is a claim
// about one model. So the derivation exists once, here: the data group
// (-dataset -data -rows -seed) resolves to a dataset, which is split
// 1/3 : 2/3 with -seed+1; Stats are computed on the training third; the
// model group (-trees -explainer -exact-background) trains the forest
// with -seed+2 and seeds core.Options with -seed+3; the fault group
// seeds its injected-fault stream with -seed+17. shahin-router takes
// the data group only and must arrive at Stats byte-equal to its
// replicas', or tuples that share a pool stop landing on the replica
// that holds it — silently, since every request still succeeds.
// internal/bench.NewEnv (a depth-10 figure forest) and examples/ (the
// public API, spelled out) are deliberately separate callers.
//
// The run (run.go). The observability group (-obs-addr and whichever
// of -chrome-trace -events-out a binary takes) owns the
// rule that a recorder exists only if something will read it, the
// endpoint banner and every artifact write; Serve is the
// listen→serve→signal→drain loop of shahin-serve and shahin-router;
// Fatal is how all of them die.
//
// Shutdown (cli.go). The two-stage signal protocol: the first
// SIGINT/SIGTERM cancels gracefully, a second one forces exit. Which
// tuples a cancelled run answered is core's rule (core.Finished), not
// this package's.
package cli

import (
	"flag"
	"math/rand"
	"os"
	"strings"
	"time"

	"shahin/internal/core"
	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/fault"
	"shahin/internal/obs"
	"shahin/internal/rf"
)

// The protocol's constants. Nothing outside this file spells them.
const (
	trainFraction = 1.0 / 3 // the paper's 1/3 train, 2/3 explain
	splitSeed     = 1       // added to -seed for the train/held-out shuffle
	forestSeed    = 2       // ... for the random forest
	explainerSeed = 3       // ... for core.Options.Seed
	faultSeed     = 17      // ... for the injected-fault stream
)

// Data is the data flag group: -dataset, -data, -rows, -seed.
type Data struct {
	Name string // the -dataset family, for banners
	path string
	rows int
	seed int64
}

// DataFlags registers the data group on fs.
func DataFlags(fs *flag.FlagSet) *Data {
	d := &Data{}
	fs.StringVar(&d.Name, "dataset", "census", "dataset family (schema source): "+strings.Join(datagen.Names(), ", "))
	fs.StringVar(&d.path, "data", "", "CSV file to load (default: generate -rows synthetic tuples)")
	fs.IntVar(&d.rows, "rows", 5000, "synthetic rows when -data is not given")
	fs.Int64Var(&d.seed, "seed", 1, "seed for data, split, training and explanation; a router and its replicas must share it")
	return d
}

// Model is the model flag group: -trees, -explainer, -exact-background.
type Model struct {
	trees     int
	explainer string
	exactBG   int
}

// ModelFlags registers the model group on fs.
func ModelFlags(fs *flag.FlagSet) *Model {
	m := &Model{}
	fs.IntVar(&m.trees, "trees", 50, "random forest size")
	fs.StringVar(&m.explainer, "explainer", "lime", "lime, anchor, shap, or exactshap (exact TreeSHAP over the owned forest; falls back to shap when illegal)")
	fs.IntVar(&m.exactBG, "exact-background", 256, "background sample size for exactshap cover weights")
	return m
}

// Fault is the fault flag group: -fail-rate, -spike-rate, -spike-delay,
// -predict-timeout, -retries.
type Fault struct {
	failRate, spikeRate        float64
	spikeDelay, predictTimeout time.Duration
	retries                    int
}

// FaultFlags registers the fault group on fs.
func FaultFlags(fs *flag.FlagSet) *Fault {
	f := &Fault{}
	fs.Float64Var(&f.failRate, "fail-rate", 0, "fault injection: probability a classifier call fails transiently")
	fs.Float64Var(&f.spikeRate, "spike-rate", 0, "fault injection: probability a classifier call stalls for -spike-delay")
	fs.DurationVar(&f.spikeDelay, "spike-delay", 20*time.Millisecond, "fault injection: stall duration for latency spikes")
	fs.DurationVar(&f.predictTimeout, "predict-timeout", 0, "per-call classifier deadline (0 disables)")
	fs.IntVar(&f.retries, "retries", 3, "max retries of a transient classifier failure")
	return f
}

// Env is what the flag groups resolve to. Load fills the data half;
// Train adds the model half.
type Env struct {
	Train, Held *dataset.Dataset // the third the forest learns from, the two thirds to explain
	Stats       *dataset.Stats   // of Train
	Forest      *rf.Forest
	Options     core.Options

	seed int64
}

// Load resolves the data group: the CSV when -data names one, else the
// synthetic twin; then the seeded split and the training part's
// statistics. shahin-router stops here — it needs Stats and nothing else.
func (d *Data) Load() (*Env, error) {
	all, err := d.loadData()
	if err != nil {
		return nil, err
	}
	train, held := all.Split(trainFraction, rand.New(rand.NewSource(d.seed+splitSeed)))
	stats, err := dataset.Compute(train)
	if err != nil {
		return nil, err
	}
	return &Env{Train: train, Held: held, Stats: stats, seed: d.seed}, nil
}

// loadData reads the CSV when given, else generates synthetic tuples.
func (d *Data) loadData() (*dataset.Dataset, error) {
	cfg, err := datagen.Spec(d.Name)
	if err != nil {
		return nil, err
	}
	if d.path == "" {
		return cfg.Generate(d.rows, d.seed)
	}
	f, err := os.Open(d.path)
	if err != nil {
		return nil, err
	}
	defer f.Close() //shahinvet:allow errcheck — read-only close cannot lose data
	return dataset.ReadCSV(f, cfg.Schema())
}

// Train trains e.Forest on e.Train and fills e.Options from the model
// group, the fault group (nil for a binary that takes none) and the
// run's recorder. A fault chain is configured only when a flag of
// the group asks for one, so a faultless run keeps its exact path.
func (m *Model) Train(e *Env, f *Fault, rec *obs.Recorder) error {
	kind, err := core.ParseKind(m.explainer)
	if err != nil {
		return err
	}
	e.Forest, err = rf.Train(e.Train, rf.Config{NumTrees: m.trees, Seed: e.seed + forestSeed})
	if err != nil {
		return err
	}
	e.Options = core.Options{Explainer: kind, Seed: e.seed + explainerSeed, Recorder: rec}
	e.Options.Exact.Background = m.exactBG
	if f != nil && (f.failRate > 0 || f.spikeRate > 0 || f.predictTimeout > 0) {
		e.Options.Fault = &fault.Config{
			FailRate:       f.failRate,
			SpikeRate:      f.spikeRate,
			SpikeDelay:     f.spikeDelay,
			Seed:           e.seed + faultSeed,
			PredictTimeout: f.predictTimeout,
			MaxRetries:     f.retries,
		}
	}
	return nil
}

// HeldOut returns the first n held-out tuples (all of them when n is
// larger): the tuples shahin-explain explains and shahin-store
// pre-computes, so a store index means the same tuple in both.
func (e *Env) HeldOut(n int) [][]float64 {
	if n > e.Held.NumRows() {
		n = e.Held.NumRows()
	}
	return e.Held.Rows(0, n)
}
