package core

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"shahin/internal/alloctest"
	"shahin/internal/fault"
	"shahin/internal/rf"
)

// freshFlush is the flush as it ran before Warm kept its RNG and engine:
// a new source seeded with Seed + 104729·n and a new engine over the
// flush's bridge, every flush. It is the oracle the kept pair must match.
func freshFlush(w *Warm, ctx context.Context, tuples [][]float64) (*Result, error) {
	return w.flush(ctx, tuples, func(n int, fb *fallibleBridge) (*rand.Rand, *engine) {
		rng := rand.New(rand.NewSource(w.opts.Seed + 104729*int64(n)))
		return rng, newEngine(w.opts, w.st, rng, fb, w.proto)
	})
}

// tripwire cancels a context on the left-th prediction once armed, so a
// flush is cut at the same call however long the run before it was.
type tripwire struct {
	rf.Classifier
	left   int
	cancel context.CancelFunc
}

func (c *tripwire) Predict(x []float64) int {
	if c.left > 0 {
		c.left--
		if c.left == 0 {
			c.cancel()
		}
	}
	return c.Classifier.Predict(x)
}

// flushLine renders what a flush answered and counted.
func flushLine(t *testing.T, res *Result, err error) string {
	t.Helper()
	if res == nil {
		return fmt.Sprintf("no result: %v", err)
	}
	buf, jerr := json.Marshal(res.Explanations)
	if jerr != nil {
		t.Fatal(jerr)
	}
	return fmt.Sprintf("err=%v flush=%d tuples=%d %s %s", err, res.Flush, res.Report.Tuples, goldenCounts(res.Report), buf)
}

// TestWarmKeptEngineMatchesFresh: a Warm that re-seeds one RNG and
// rebinds one engine per flush answers and counts exactly as one that
// builds both afresh, over flushes of one to nine tuples, re-mines, a
// flush cancelled mid-way, with and without faults.
func TestWarmKeptEngineMatchesFresh(t *testing.T) {
	const flushes, cut = 45, 17
	env := newEnv(t, 7, 240)
	for _, kind := range Kinds() {
		for _, faulty := range []bool{false, true} {
			t.Run(fmt.Sprintf("%v/fault=%v", kind, faulty), func(t *testing.T) {
				opts := smallOpts(kind, 11)
				if faulty {
					opts.Fault = goldenFaults(12)
				}
				sizes := rand.New(rand.NewSource(13))
				type side struct {
					w    *Warm
					trip *tripwire
				}
				build := func() side {
					trip := &tripwire{Classifier: env.cls}
					w, err := NewWarm(env.st, trip, opts, 30)
					if err != nil {
						t.Fatal(err)
					}
					return side{w, trip}
				}
				kept, fresh := build(), build()
				next := 0
				for f := 1; f <= flushes; f++ {
					n := 1 + sizes.Intn(9)
					tuples := make([][]float64, n)
					for i := range tuples {
						tuples[i] = env.tuples[next%len(env.tuples)]
						next++
					}
					var lines [2]string
					for i, s := range []side{kept, fresh} {
						ctx, cancel := context.WithCancel(context.Background())
						if f == cut {
							s.trip.left, s.trip.cancel = 40, cancel
						}
						run := s.w.ExplainAllCtx
						if i == 1 {
							run = func(ctx context.Context, tuples [][]float64) (*Result, error) { return freshFlush(s.w, ctx, tuples) }
						}
						res, err := run(ctx, tuples)
						cancel()
						lines[i] = flushLine(t, res, err)
					}
					if lines[0] != lines[1] {
						t.Fatalf("flush %d (%d tuples):\nkept  %s\nfresh %s", f, n, lines[0], lines[1])
					}
					if f == cut && kept.w.Report().Failed == 0 {
						t.Fatalf("flush %d was not cut mid-way", f)
					}
				}
				if k, f := goldenCounts(kept.w.Report()), goldenCounts(fresh.w.Report()); k != f {
					t.Fatalf("cumulative reports differ:\nkept  %s\nfresh %s", k, f)
				}
				if kept.w.Remines() < 2 {
					t.Fatalf("%d re-mines: the sequence never renewed the pool", kept.w.Remines())
				}
			})
		}
	}
}

// TestWarmOneTupleFlushAllocs: once the pool is primed, a one-tuple LIME
// flush allocates at most half the 9 586 B a flush that built its RNG
// and engine afresh did (Go 1.24, amd64); it now takes about 2.8 KB.
func TestWarmOneTupleFlushAllocs(t *testing.T) {
	env := newEnv(t, 7, 64)
	w, err := NewWarm(env.st, env.cls, smallOpts(LIME, 7), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.ExplainAll(env.tuples[:32]); err != nil {
		t.Fatal(err)
	}
	one := env.tuples[32:33]
	allocs, bytes := alloctest.PerCall(func() {
		if _, err := w.ExplainAll(one); err != nil {
			t.Fatal(err)
		}
	})
	if bytes > 9586/2 {
		t.Fatalf("one-tuple LIME flush allocates %d B (%d objects), want at most %d", bytes, allocs, 9586/2)
	}
}

// TestWarmWindowTrimMatchesEager: mining the window's last 4·staleAfter
// rows and cutting it back only at twice that answers as trimming it
// every flush did, and copies at most once per 4·staleAfter flushes. A
// fault rate that keeps most renews from completing keeps the window
// growing past the cap.
func TestWarmWindowTrimMatchesEager(t *testing.T) {
	const staleAfter, flushes = 4, 200
	const keep = 4 * staleAfter
	env := newEnv(t, 9, flushes)
	for _, kind := range []Kind{LIME, SHAP} {
		t.Run(kind.String(), func(t *testing.T) {
			opts := smallOpts(kind, 21)
			opts.Fault = &fault.Config{FailRate: 0.05, Seed: 22}
			build := func() *Warm {
				w, err := NewWarm(env.st, env.cls, opts, staleAfter)
				if err != nil {
					t.Fatal(err)
				}
				return w
			}
			lazy, eager := build(), build()
			trims, longest := 0, 0
			for f, tuple := range env.tuples {
				before, renews := len(lazy.ps.window), lazy.Remines()
				a, errA := lazy.ExplainAll([][]float64{tuple})
				b, errB := eager.ExplainAll([][]float64{tuple})
				if la, lb := flushLine(t, a, errA), flushLine(t, b, errB); la != lb {
					t.Fatalf("flush %d:\nlazy  %s\neager %s", f+1, la, lb)
				}
				if lazy.Remines() == renews && len(lazy.ps.window) < before+1 {
					trims++
				}
				longest = max(longest, len(lazy.ps.window))
				if w := eager.ps.window; len(w) > keep {
					eager.ps.window = append(w[:0:0], w[len(w)-keep:]...)
				}
			}
			if longest <= keep {
				t.Fatalf("the window never outgrew %d rows (longest %d): nothing was trimmed", keep, longest)
			}
			if limit := flushes/keep + 1; trims == 0 || trims > limit {
				t.Fatalf("window trimmed %d times in %d one-tuple flushes, want 1..%d", trims, flushes, limit)
			}
		})
	}
}
