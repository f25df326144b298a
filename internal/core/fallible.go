package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"shahin/internal/dataset"
	"shahin/internal/fault"
	"shahin/internal/obs"
	"shahin/internal/rf"
)

// Status classifies how a tuple's explanation was answered. The zero
// value is StatusOK so explanations from infallible runs marshal exactly
// as before the failure model existed.
type Status uint8

const (
	// StatusOK means every classifier call behind the explanation
	// succeeded (possibly after retries).
	StatusOK Status = iota
	// StatusDegraded means at least one prediction was answered by the
	// degradation ladder — the label cache, pooled labels, or the running
	// majority class — because the backend was failing or the breaker
	// was open.
	StatusDegraded
	// StatusFailed means the tuple was cancelled mid-explanation, never
	// attempted, or needed a prediction no fallback could answer.
	StatusFailed
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusDegraded:
		return "degraded"
	case StatusFailed:
		return "failed"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// MarshalJSON renders the status as its string form.
func (s Status) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses the string form back.
func (s *Status) UnmarshalJSON(data []byte) error {
	var name string
	if err := json.Unmarshal(data, &name); err != nil {
		return err
	}
	switch name {
	case "ok", "":
		*s = StatusOK
	case "degraded":
		*s = StatusDegraded
	case "failed":
		*s = StatusFailed
	default:
		return fmt.Errorf("core: unknown explanation status %q", name)
	}
	return nil
}

// bridgeLabelCacheCap bounds the exact-row label cache the degradation
// ladder consults first (FIFO eviction; ~8k rows is plenty to cover the
// perturbations in flight around an outage).
const bridgeLabelCacheCap = 8192

// fallibleBridge lifts a *fault.Chain back into the infallible
// rf.Classifier interface the explainers consume. Successful calls pass
// straight through (optionally recording the label for later fallback);
// failed calls walk the degradation ladder instead of surfacing an
// error the explainers cannot handle:
//
//  1. exact-row label cache — the same perturbation was labelled before;
//  2. pooled labels — the majority class of the materialised samples of
//     a frequent itemset containing the row;
//  3. the running majority class of all successful predictions.
//
// The bridge sits *below* the engine's meter, so every logical
// prediction — including degraded ones — is still charged to the unit's
// cost record and the event-reconciliation identity holds unchanged.
// One bridge serves one goroutine; parallel workers fork their own (the
// chain underneath is shared and internally locked).
type fallibleBridge struct {
	ctx   context.Context
	base  context.Context // construction-time context; ctx resets to it between tuples
	chain *fault.Chain
	st    *dataset.Stats
	track bool // bookkeeping only when the chain can actually fail

	// Fallback sources: the live repository (or a frozen snapshot) and
	// the itemsets it has materialised samples for.
	pooled   sampleSource
	poolSets []dataset.Itemset

	labels   map[uint64]int // exact-row label cache
	order    []uint64       // FIFO eviction order of the cache
	majority []int64        // successful predictions per class

	itemBuf []dataset.Item // scratch for itemising fallback rows

	degradedCtr *obs.Counter
	failedCtr   *obs.Counter

	// tuple is the current unit's outcome, reset by beginTuple; guesses
	// counts every label the ladder (or a dead context) gave, for life.
	tuple   outcome
	guesses int64
}

// maxDegradeSpans bounds the degradation marker spans under one root:
// enough to see the ladder working in a trace, bounded against outage
// storms.
const maxDegradeSpans = 32

var _ rf.Classifier = (*fallibleBridge)(nil)

func newFallibleBridge(ctx context.Context, chain *fault.Chain, st *dataset.Stats, rec *obs.Recorder) *fallibleBridge {
	fb := &fallibleBridge{
		ctx:         ctx,
		base:        ctx,
		chain:       chain,
		st:          st,
		track:       chain.CanFail(),
		degradedCtr: rec.Counter(obs.CounterDegradedAnswers),
		failedCtr:   rec.Counter(obs.CounterFailedAnswers),
	}
	if fb.track {
		fb.labels = make(map[uint64]int)
		fb.majority = make([]int64, chain.NumClasses())
	}
	return fb
}

// fork returns a bridge for another goroutine: same chain, context, and
// fallback pool, but private caches and per-tuple flags.
func (fb *fallibleBridge) fork() *fallibleBridge {
	nb := &fallibleBridge{
		ctx:         fb.ctx,
		base:        fb.base,
		chain:       fb.chain,
		st:          fb.st,
		track:       fb.track,
		pooled:      fb.pooled,
		poolSets:    fb.poolSets,
		degradedCtr: fb.degradedCtr,
		failedCtr:   fb.failedCtr,
	}
	if nb.track {
		nb.labels = make(map[uint64]int)
		nb.majority = make([]int64, len(fb.majority))
	}
	return nb
}

// setPool points the degradation ladder at the materialised samples.
func (fb *fallibleBridge) setPool(src sampleSource, sets []dataset.Itemset) {
	fb.pooled = src
	fb.poolSets = sets
}

// outcome is how a unit's predictions were answered: some by the ladder
// (degraded), some by nothing (failed), some after the context died.
type outcome struct{ degraded, failed, canceled bool }

// beginTuple resets the per-tuple outcome flags.
func (fb *fallibleBridge) beginTuple() { fb.tuple = outcome{} }

// status reports the current tuple's outcome.
func (fb *fallibleBridge) status() Status {
	switch {
	case fb.tuple.failed || fb.tuple.canceled:
		return StatusFailed
	case fb.tuple.degraded:
		return StatusDegraded
	default:
		return StatusOK
	}
}

// NumClasses implements rf.Classifier.
func (fb *fallibleBridge) NumClasses() int { return fb.chain.NumClasses() }

// Predict implements rf.Classifier over the fallible chain. It never
// fails: cancelled and unanswerable calls fall back quietly (so the
// in-flight explanation finishes fast and well-formed) and the tuple is
// marked failed or degraded instead.
func (fb *fallibleBridge) Predict(x []float64) int {
	if fb.ctx.Err() != nil {
		fb.tuple.canceled = true
		y, _, _ := fb.fallback(x)
		return y
	}
	y, err := fb.chain.PredictCtx(fb.ctx, x)
	if err == nil {
		if fb.track {
			fb.noteSuccess(x, y)
		}
		return y
	}
	if fb.ctx.Err() != nil {
		fb.tuple.canceled = true
		fy, _, _ := fb.fallback(x)
		return fy
	}
	fy, rung, ok := fb.fallback(x)
	if ok {
		fb.tuple.degraded = true
		fb.degradedCtr.Inc()
	} else {
		fb.tuple.failed = true
		fb.failedCtr.Inc()
	}
	fb.noteDegrade(rung)
	return fy
}

// noteDegrade attaches a degradation-rung marker span to the run's span
// (carried by the bridge's context), at most maxDegradeSpans under it.
func (fb *fallibleBridge) noteDegrade(rung string) {
	c := obs.SpanFromContext(fb.ctx).Mark("degrade", maxDegradeSpans)
	if c == nil {
		return
	}
	if rung == "" {
		rung = "none"
	}
	c.SetAttr("rung", rung)
	c.End()
}

// fallback counts a guess and walks the degradation ladder, reporting
// which rung answered; ok is false when none could (the caller gets
// class 0 and the tuple is marked failed).
func (fb *fallibleBridge) fallback(x []float64) (y int, rung string, ok bool) {
	fb.guesses++
	if fb.labels != nil {
		if y, ok := fb.labels[hashRow(x)]; ok {
			return y, "label-cache", true
		}
	}
	if fb.pooled != nil && fb.st != nil && len(fb.poolSets) > 0 {
		fb.itemBuf = fb.st.ItemizeRow(x, fb.itemBuf[:0])
		for _, set := range fb.poolSets {
			if !set.ContainsAll(fb.itemBuf) {
				continue
			}
			samples, ok := fb.pooled.Get(set.Key())
			if !ok || len(samples) == 0 {
				continue
			}
			counts := make([]int, fb.chain.NumClasses())
			for _, s := range samples {
				if s.Label >= 0 && s.Label < len(counts) {
					counts[s.Label]++
				}
			}
			best := 0
			for c := 1; c < len(counts); c++ {
				if counts[c] > counts[best] {
					best = c
				}
			}
			return best, "pooled-majority", true
		}
	}
	if fb.majority != nil {
		best, total := 0, int64(0)
		for c, n := range fb.majority {
			total += n
			if n > fb.majority[best] {
				best = c
			}
		}
		if total > 0 {
			return best, "global-majority", true
		}
	}
	return 0, "", false
}

// noteSuccess records a successful prediction for later fallback.
func (fb *fallibleBridge) noteSuccess(x []float64, y int) {
	if y >= 0 && y < len(fb.majority) {
		fb.majority[y]++
	}
	key := hashRow(x)
	if _, ok := fb.labels[key]; ok {
		return
	}
	if len(fb.order) >= bridgeLabelCacheCap {
		delete(fb.labels, fb.order[0])
		fb.order = fb.order[1:]
	}
	fb.labels[key] = y
	fb.order = append(fb.order, key)
}

// hashRow is FNV-1a over the bit patterns of the row's values: exact
// (bitwise) row identity, which is what the label cache needs — the
// same perturbation re-labelled, not a nearest neighbour.
func hashRow(x []float64) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range x {
		b := math.Float64bits(v)
		for s := 0; s < 64; s += 8 {
			h ^= (b >> s) & 0xff
			h *= 1099511628211
		}
	}
	return h
}

// buildBridge assembles the fault chain and bridge for a run. Without
// opts.Fault the chain cannot fail and the bridge passes every call
// straight through, checking only ctx.
func buildBridge(ctx context.Context, opts Options, st *dataset.Stats, cls rf.Classifier) *fallibleBridge {
	var cfg fault.Config
	if opts.Fault != nil {
		cfg = *opts.Fault
	}
	return newFallibleBridge(ctx, fault.Build(cls, cfg, opts.Recorder), st, opts.Recorder)
}
