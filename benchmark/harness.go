package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"shahin"
	"shahin/internal/obs"
	"shahin/internal/rf"
)

// now is the benchmark's only clock read.
func now() time.Time {
	return time.Now() //shahinvet:allow walltime — the benchmark times the program from outside; every reading goes through this helper
}

// twinSeed generates every workload's dataset twin and forest. The twin
// stands in for one of the paper's fixed real datasets, so --seed does
// not regenerate it: a different forest alone moved Anchor's classifier
// calls by 12 % between seeds (README.md, "What the seed drives").
const twinSeed = 2021

// sizes scales a run. fullSizes is the benchmark; the package test uses
// tinySizes so all four workloads finish in seconds.
type sizes struct {
	rows, trees, depth int // twin rows (a third of them train the forest), forest size
	fleetPool          int // serve_fleet only: explain-pool rows beside the same rows/3 training rows
	setups             int // independent set-ups per run; setup_s is their median
	seconds            int // timed seconds the operation counts are derived from
	limeTuples         int // tuples per batch_lime operation
	anchorTuples       int // tuples per batch_anchor operation
	streamTuples       int // tuples per stream_shap pass
	streamRecompute    int // stream_shap's re-mining period in tuples
	fleetTuples        int // tuples per serve_fleet request
	fleetBlock         int // serve_fleet requests per block (see drive); the timed region is a whole number of blocks
	probe              int // tuples in the agreement and Sequential probes
	replayRounds       int // timing rounds per replayed layer call
}

func fullSizes(seconds int) sizes {
	return sizes{rows: 12000, fleetPool: 12000, trees: 50, depth: 10, setups: 3, seconds: seconds,
		limeTuples: 400, anchorTuples: 100, streamTuples: 1000, streamRecompute: 100, fleetTuples: 16, fleetBlock: 50,
		probe: 128, replayRounds: 9}
}

func tinySizes() sizes {
	return sizes{rows: 1200, fleetPool: 800, trees: 6, depth: 6, setups: 2, seconds: 1,
		limeTuples: 24, anchorTuples: 6, streamTuples: 50, streamRecompute: 20, fleetTuples: 4, fleetBlock: 20,
		probe: 8, replayRounds: 2}
}

// pool is the explain pool's size under the paper's protocol: the two
// thirds of the twin the forest was not trained on.
func (z sizes) pool() int { return z.rows - z.rows/3 }

// ops derives a fixed operation count from the requested seconds and the
// operation's nominal cost on the reference box: runs are count-driven,
// never stopped by a timer, so counts repeat exactly. There are always
// at least two.
func (z sizes) ops(nominalSeconds float64) int {
	return max(2, int(math.Round(float64(z.seconds)/nominalSeconds)))
}

// env is one set-up's product: the twin, its statistics and its forest.
type env struct {
	stats    *shahin.Stats
	forest   *shahin.Forest
	pool     *shahin.Dataset // the 2/3 of the twin explanations are drawn from
	statsDur time.Duration
	trainDur time.Duration
}

// newEnv generates the family's twin, trains on z.rows/3 of its rows and
// keeps the other poolRows to draw explained tuples from.
func newEnv(family string, poolRows int, z sizes) (*env, error) {
	trainRows := z.rows / 3
	data, err := shahin.GenerateDataset(family, trainRows+poolRows, twinSeed)
	if err != nil {
		return nil, fmt.Errorf("generating %s twin: %w", family, err)
	}
	train, pool := shahin.SplitDataset(data, float64(trainRows)/float64(trainRows+poolRows), twinSeed+1)
	t0 := now()
	stats, err := shahin.ComputeStats(train)
	if err != nil {
		return nil, fmt.Errorf("computing stats: %w", err)
	}
	t1 := now()
	forest, err := shahin.TrainForest(train, shahin.ForestConfig{NumTrees: z.trees, MaxDepth: z.depth, Seed: twinSeed + 2})
	if err != nil {
		return nil, fmt.Errorf("training forest: %w", err)
	}
	return &env{stats: stats, forest: forest, pool: pool, statsDur: t1.Sub(t0), trainDur: now().Sub(t1)}, nil
}

// windows draws count disjoint seeded tuple sets of n rows each from the
// explain pool (wrapping round only when the pool is too small).
func (e *env) windows(rng *rand.Rand, count, n int) [][][]float64 {
	perm := rng.Perm(e.pool.NumRows())
	out := make([][][]float64, count)
	for w := range out {
		out[w] = make([][]float64, n)
		for i := range out[w] {
			out[w][i] = e.pool.Row(perm[(w*n+i)%len(perm)], nil)
		}
	}
	return out
}

// run is one benchmark run: one workload, one seed, one fresh process.
type run struct {
	seed   int64
	z      sizes
	tr     *tracer // nil in an untraced run
	parent int     // the span new spans are children of

	env *env
	cls *rf.Counting // wraps env.forest; every Predict the program makes is counted here

	// predictNS accumulates in-situ Predict time while hooked (traced
	// operations only).
	predictNS atomic.Int64

	setups []time.Duration

	// Timed region.
	lat         []time.Duration // one per operation (the traced half in a traced run)
	untraced    []time.Duration // traced run only: the same operations before the classifier was hooked
	hookedCalls int64           // traced run only: classifier calls while hooked
	unitWall    []time.Duration // stream_shap: one wall time per pass; nil elsewhere
	perUnit     int             // explanations per unitWall sample (per latency sample when unitWall is nil)
	explPerOp   int             // explanations per operation
	calls       int64
	allocBytes  int64
	failed      int
	tailPct     float64
	block       int // operations per latency block; 0 when the whole run is one block
	agreement   float64

	// Traced run only.
	layer    map[string]float64 // per-layer metrics
	seqWall  time.Duration      // Sequential probe: wall time per tuple
	seqCalls float64            // Sequential probe: classifier calls per tuple
}

// setup performs z.setups independent set-ups, each building the twin
// with poolRows rows to explain and then whatever build constructs over
// it, including the warm-up operation. build returns a fingerprint of
// the warm-up's output; all set-ups must agree on it, which checks that
// generation, training and the explainer are deterministic end to end.
// The last set-up is kept.
func (r *run) setup(family string, poolRows int, build func() (fingerprint string, err error)) error {
	first := ""
	for k := 0; k < r.z.setups; k++ {
		sp := r.tr.start("setup", rootSpan)
		r.parent = sp
		t0 := now()
		e, err := newEnv(family, poolRows, r.z)
		if err != nil {
			return err
		}
		r.env, r.cls = e, rf.NewCounting(e.forest)
		fp, err := build()
		if err != nil {
			return fmt.Errorf("set-up %d: %w", k, err)
		}
		r.setups = append(r.setups, now().Sub(t0))
		r.tr.end(sp, nil)
		r.parent = rootSpan
		if k == 0 {
			first = fp
		} else if fp != first {
			return fmt.Errorf("set-up %d produced %q, set-up 0 produced %q: the workload is not deterministic", k, fp, first)
		}
	}
	return nil
}

// hookPredict turns in-situ Predict timing on or off.
func (r *run) hookPredict(on bool) {
	if !on {
		r.cls.SetPredictHook(nil)
		return
	}
	r.cls.SetPredictHook(func(d time.Duration) { r.predictNS.Add(int64(d)) })
}

// timed runs body as the timed region: it collects garbage first, then
// brackets body with the classifier-call and heap-allocation counters.
func (r *run) timed(body func() error) error {
	runtime.GC()
	calls0, alloc0 := r.cls.Invocations(), obs.NowAllocs()
	if err := body(); err != nil {
		return err
	}
	r.calls = r.cls.Invocations() - calls0
	r.allocBytes = alloc0.Since().Bytes
	return nil
}

// measure runs the timed region. phase performs operations 0..n-1 from
// a fresh state and returns their latencies. An untraced run is one
// phase of ops operations. A traced run is four phases over the same
// first quarter of the operations — untraced, traced, untraced, traced —
// so tracing overhead is a paired comparison that drift on the box
// cancels out of. r.tr is nil during the untraced phases.
func (r *run) measure(ops int, phase func(n int) ([]time.Duration, error)) error {
	return r.timed(func() (err error) {
		if r.tr == nil {
			r.lat, err = phase(ops)
			return err
		}
		tr := r.tr
		defer func() { r.tr = tr }()
		for k := 0; k < 4; k++ {
			var lat []time.Duration
			if k%2 == 0 {
				r.tr = nil
				lat, err = phase(max(ops/4, 1))
				r.untraced = append(r.untraced, lat...)
			} else {
				r.tr = tr
				r.hookPredict(true)
				calls0 := r.cls.Invocations()
				lat, err = phase(max(ops/4, 1))
				r.hookedCalls += r.cls.Invocations() - calls0
				r.hookPredict(false)
				r.lat = append(r.lat, lat...)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// operations is how many operations the timed region attempted.
func (r *run) operations() int { return len(r.lat) + len(r.untraced) }

// op times one operation and records its span, which carries the
// classifier calls and (while hooked) classifier time spent inside it.
func (r *run) op(i int, fn func() error) (time.Duration, error) {
	if r.tr == nil {
		t0 := now()
		err := fn()
		return now().Sub(t0), err
	}
	sp := r.tr.start("op", r.parent)
	calls0, busy0 := r.cls.Invocations(), r.predictNS.Load()
	t0 := now()
	err := fn()
	d := now().Sub(t0)
	r.tr.end(sp, map[string]float64{
		"index":            float64(i),
		"classifier_calls": float64(r.cls.Invocations() - calls0),
		"classifier_ns":    float64(r.predictNS.Load() - busy0),
	})
	return d, err
}

// endToEndMetrics assembles the nine end-to-end values.
func (r *run) endToEndMetrics() (map[string]float64, error) {
	if len(r.lat) == 0 {
		return nil, errors.New("no timed operations")
	}
	explanations := float64(r.operations() * r.explPerOp)
	unit := r.lat
	if r.unitWall != nil {
		unit = r.unitWall
	}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, err
	}
	return map[string]float64{
		mSetup:     median(r.setups).Seconds(),
		mRate:      float64(r.perUnit) / median(unit).Seconds(),
		mP50:       ms(blockQuantile(r.lat, r.block, 0.5)),
		mTail:      ms(blockQuantile(r.lat, r.block, r.tailPct/100)),
		mCalls:     float64(r.calls) / explanations,
		mAlloc:     float64(r.allocBytes) / 1024 / explanations,
		mRSS:       rss,
		mAgreement: r.agreement,
		mSuccess:   1 - float64(r.failed)/float64(len(r.lat)),
	}, nil
}

// peakRSSMiB reads the process's high-water resident set size.
func peakRSSMiB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM line in /proc/self/status")
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile of ds by linear interpolation between
// order statistics.
func quantile(ds []time.Duration, q float64) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + time.Duration(frac*float64(s[lo+1]-s[lo]))
}

func median(ds []time.Duration) time.Duration { return quantile(ds, 0.5) }

// blockQuantile is the median, over consecutive blocks of n operations,
// of each block's q-quantile; with n outside 1..len(ds) the whole of ds
// is one block, and operations after the last whole block are left out.
// The latency metrics are reported this way because the shared box's
// disturbances come in bursts: a neighbour busy through a third of a run
// moves every percentile of the whole run (serve_fleet p98: 56–64 ms in
// calm runs, 77–91 ms in disturbed ones) but touches only a third of the
// blocks, and the median block is a calm one (README.md, "Why block
// medians").
func blockQuantile(ds []time.Duration, n int, q float64) time.Duration {
	if n < 1 || n > len(ds) {
		n = len(ds)
	}
	var per []time.Duration
	for i := 0; i+n <= len(ds); i += n {
		per = append(per, quantile(ds[i:i+n], q))
	}
	return median(per)
}

// medianFloat is the median of xs, 0 when xs is empty.
func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// replay times fn, a layer's public call on harvested inputs, from
// outside: rounds batches of n calls each, reporting the median batch's
// nanoseconds and heap bytes per call. The whole replay is one span.
func (r *run) replay(name string, n int, fn func()) (nsPerCall, bytesPerCall float64) {
	sp := r.tr.start(name, r.parent)
	durs := make([]float64, r.z.replayRounds)
	allocs := make([]float64, r.z.replayRounds)
	for k := range durs {
		a0, t0 := obs.NowAllocs(), now()
		for i := 0; i < n; i++ {
			fn()
		}
		durs[k] = float64(now().Sub(t0)) / float64(n)
		allocs[k] = float64(a0.Since().Bytes) / float64(n)
	}
	r.tr.end(sp, map[string]float64{"calls": float64(n * len(durs))})
	return medianFloat(durs), medianFloat(allocs)
}
