package main

import (
	"fmt"
	"math/rand"
	"time"

	"shahin"
)

// runStreamSHAP times core.Stream under memory pressure. An operation is
// one Explain call; a pass feeds a fresh Stream the same seeded tuples,
// so every pass does identical work and must cost identical classifier
// calls. One operation in a hundred carries a re-mine, which is why the
// tail is p99.5 — the median re-mine stall — and not p99, which sits on
// the boundary between the two modes.
func runStreamSHAP(r *run) error {
	opts := r.options(shahin.SHAP)
	opts.StreamRecompute = r.z.streamRecompute
	opts.CacheBytes = 8 << 20
	passes := r.z.ops(5.2)

	// pass feeds tuples to a fresh stream, timing each Explain.
	pass := func(tuples [][]float64) (lat []time.Duration, exps []shahin.Explanation, rep shahin.Report, err error) {
		s, err := shahin.NewStream(r.env.stats, r.cls, opts)
		if err != nil {
			return nil, nil, rep, err
		}
		lat, exps = make([]time.Duration, len(tuples)), make([]shahin.Explanation, len(tuples))
		for i, t := range tuples {
			if lat[i], err = r.op(i, func() (err error) {
				exps[i], err = s.Explain(t)
				return err
			}); err != nil {
				return nil, nil, rep, fmt.Errorf("tuple %d: %w", i, err)
			}
		}
		return lat, exps, s.Report(), nil
	}

	var tuples [][]float64
	// The warm-up is a short pass that reaches the first re-mine.
	err := r.setup("census", r.z.pool(), func() (string, error) {
		tuples = r.env.windows(rand.New(rand.NewSource(r.seed)), 1, r.z.streamTuples)[0]
		warm := tuples[:min(len(tuples), opts.StreamRecompute+10)]
		_, exps, _, err := pass(warm)
		if err != nil {
			return "", err
		}
		return fingerprint(exps, r.cls.Invocations()), r.checkAll(warm, exps)
	})
	if err != nil {
		return err
	}

	var first []shahin.Explanation
	var reports []shahin.Report
	firstPrint := ""
	err = r.measure(passes, func(n int) ([]time.Duration, error) {
		var all []time.Duration
		for p := 0; p < n; p++ {
			calls0, t0 := r.cls.Invocations(), now()
			lat, exps, rep, err := pass(tuples)
			if err != nil {
				return nil, fmt.Errorf("pass %d: %w", p, err)
			}
			r.unitWall = append(r.unitWall, now().Sub(t0))
			all = append(all, lat...)
			if r.tr != nil {
				reports = append(reports, rep)
			}
			fp := fingerprint(exps, r.cls.Invocations()-calls0)
			if firstPrint == "" {
				first, firstPrint = exps, fp
			} else if fp != firstPrint {
				return nil, fmt.Errorf("pass %d produced %q, the first pass %q: the workload is not deterministic", p, fp, firstPrint)
			}
		}
		return all, nil
	})
	if err != nil {
		return err
	}
	r.perUnit, r.explPerOp, r.tailPct, r.block = len(tuples), 1, 99.5, len(tuples)

	// Every pass gave the first pass's answers, so checking those checks all.
	for i := range tuples {
		if err := r.countFailure(r.checkExplanation(tuples[i], first[i])); err != nil {
			return fmt.Errorf("tuple %d: %w", i, err)
		}
	}
	r.failed *= r.operations() / len(tuples) // every pass repeated the first pass's failures
	// The reference runs on the pass's last tuples: the first hundred
	// are explained before any pool exists and agree trivially.
	tail := len(tuples) - min(r.z.probe, len(tuples))
	seq, err := r.sequential(opts, tuples[tail:])
	if err != nil {
		return err
	}
	r.agreement = topOverlap(first[tail:], seq.Explanations)
	if r.tr == nil {
		return nil
	}

	r.coreLayers(reports)
	frequent, err := r.replayFIM(tuples[:min(len(tuples), opts.StreamRecompute)], true)
	if err != nil {
		return err
	}
	r.replayItemize(tuples)
	r.replayCache(frequent)
	r.replayPerturb(tuples, frequent, true)
	if err := r.replayLinmodel(tuples[0], false); err != nil {
		return err
	}
	return r.replayExplainer(shahin.SHAP, tuples)
}
