package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"shahin/internal/dataset"
	"shahin/internal/rf"
)

// opened is one entry point built over some inputs, as the door table
// drives it.
type opened struct {
	// explain hands the tuples over the way the entry point takes them
	// (one call, or one call per tuple for Stream) and stops at the first
	// error.
	explain func(tuples [][]float64) ([]Explanation, error)
	// trace says what a refused call left behind, given how many tuples
	// earlier calls legitimately took; "" for nothing.
	trace func(accepted int) string
}

// entryPoint is one of core's six, building what it builds at
// construction (so a constructor's refusal and a call's look alike to
// the table).
type entryPoint struct {
	name      string
	perTuple  bool // takes its tuples one call at a time: every refusal names tuple 0
	longLived bool // keeps state across calls
	open      func(st *dataset.Stats, cls rf.Classifier, opts Options) (*opened, error)
}

func entryPoints() []entryPoint {
	noTrace := func(int) string { return "" }
	all := func(run func(tuples [][]float64) (*Result, error)) func([][]float64) ([]Explanation, error) {
		return func(tuples [][]float64) ([]Explanation, error) { return explanations(run(tuples)) }
	}
	return []entryPoint{
		{name: "batch", open: func(st *dataset.Stats, cls rf.Classifier, opts Options) (*opened, error) {
			b, err := NewBatch(st, cls, opts)
			if err != nil {
				return nil, err
			}
			return &opened{explain: all(b.ExplainAll), trace: noTrace}, nil
		}},
		{name: "stream", perTuple: true, longLived: true, open: func(st *dataset.Stats, cls rf.Classifier, opts Options) (*opened, error) {
			s, err := NewStream(st, cls, opts)
			if err != nil {
				return nil, err
			}
			return &opened{
				explain: func(tuples [][]float64) ([]Explanation, error) {
					if len(tuples) == 0 {
						tuples = [][]float64{nil} // the nearest a stream has to an empty call
					}
					var out []Explanation
					for _, tup := range tuples {
						e, err := s.Explain(tup)
						if err != nil {
							return out, err
						}
						out = append(out, e)
					}
					return out, nil
				},
				trace: func(accepted int) string {
					if len(s.ps.window) != accepted || s.Report().Tuples != accepted {
						return fmt.Sprintf("window holds %d tuples and Report().Tuples=%d after %d good ones", len(s.ps.window), s.Report().Tuples, accepted)
					}
					return ""
				},
			}, nil
		}},
		{name: "warm", longLived: true, open: func(st *dataset.Stats, cls rf.Classifier, opts Options) (*opened, error) {
			w, err := NewWarm(st, cls, opts, 0)
			if err != nil {
				return nil, err
			}
			return &opened{
				explain: all(w.ExplainAll),
				trace: func(int) string {
					if w.Flushes() != 0 || w.s.ps.repo.Len() != 0 || len(w.s.ps.window) != 0 {
						return fmt.Sprintf("Flushes()=%d, %d pooled itemsets, window holds %d tuples", w.Flushes(), w.s.ps.repo.Len(), len(w.s.ps.window))
					}
					return ""
				},
			}, nil
		}},
		{name: "sequential", open: func(st *dataset.Stats, cls rf.Classifier, opts Options) (*opened, error) {
			return &opened{trace: noTrace, explain: all(func(tuples [][]float64) (*Result, error) {
				return SequentialCtx(context.Background(), st, cls, opts, tuples)
			})}, nil
		}},
	}
}

// TestEntryPointsRefuseAlike: a malformed call gets the same answer at
// each of core's four entry points — an error naming the cause (and the
// tuple, when it is a tuple), never a panic — and leaves no trace: no
// tuple in a window, no flush number spent, nothing pooled, so the next
// good call on a long-lived runner answers the bytes a fresh one does.
func TestEntryPointsRefuseAlike(t *testing.T) {
	env := newEnv(t, 7, 6)
	width := env.st.NumAttrs()
	good := env.tuples
	short := good[2][:width-1]
	long := append(append([]float64(nil), good[2]...), 0, 0)

	cases := []struct {
		name   string
		st     *dataset.Stats
		cls    rf.Classifier
		tuples [][]float64
		want   string // what the error must say; for a tuple, its width
		bad    int    // index of the malformed tuple, -1: the call itself is malformed
	}{
		{"nil stats", nil, env.cls, good, "needs stats and a classifier", -1},
		{"nil classifier", env.st, nil, good, "needs stats and a classifier", -1},
		{"no tuples", env.st, env.cls, nil, "no tuples to explain", -1},
		{"a cell short", env.st, env.cls, [][]float64{short}, fmt.Sprintf("has %d cells, schema expects %d", width-1, width), 0},
		{"two cells long", env.st, env.cls, [][]float64{long}, fmt.Sprintf("has %d cells, schema expects %d", width+2, width), 0},
		{"bad tuple in the middle", env.st, env.cls, [][]float64{good[0], good[1], short, good[3]}, fmt.Sprintf("has %d cells, schema expects %d", width-1, width), 2},
	}
	for _, ep := range entryPoints() {
		for _, c := range cases {
			for _, kind := range []Kind{LIME, Anchor} {
				t.Run(fmt.Sprintf("%s/%s/%s", ep.name, c.name, kind), func(t *testing.T) {
					opts := smallOpts(kind, 9)
					want, accepted := c.want, 0
					switch {
					case c.bad >= 0 && ep.perTuple:
						want, accepted = "tuple 0 "+want, c.bad
					case c.bad >= 0:
						want = fmt.Sprintf("tuple %d %s", c.bad, want)
					case c.tuples == nil && ep.perTuple:
						want = fmt.Sprintf("tuple 0 has 0 cells, schema expects %d", width)
					}

					var o *opened
					err := func() (err error) {
						defer func() {
							if p := recover(); p != nil {
								err = nil
								t.Errorf("panicked: %v", p)
							}
						}()
						if o, err = ep.open(c.st, c.cls, opts); err != nil {
							return err
						}
						_, err = o.explain(c.tuples)
						return err
					}()
					if t.Failed() {
						return
					}
					if err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("err = %v, want one saying %q", err, want)
					}
					if o == nil {
						return // refused at construction: nothing exists to have moved
					}
					if left := o.trace(accepted); left != "" {
						t.Errorf("the refused call left a trace: %s", left)
					}
					if !ep.longLived {
						return
					}
					// The runner goes on as if the refused call had never
					// been made: a twin that never saw it answers the same
					// bytes.
					got, err := o.explain(good)
					if err != nil {
						t.Fatal(err)
					}
					twin, err := ep.open(c.st, c.cls, opts)
					if err != nil {
						t.Fatal(err)
					}
					wantExps, err := twin.explain(append(c.tuples[:accepted:accepted], good...))
					if err != nil {
						t.Fatal(err)
					}
					a, _ := json.Marshal(got)
					b, _ := json.Marshal(wantExps[accepted:])
					if !bytes.Equal(a, b) {
						t.Errorf("the call after the refusal differs from a fresh runner's:\n got %s\nwant %s", a, b)
					}
				})
			}
		}
	}

	// ExplainExact bypasses the flush path and its door; the walker's own
	// width check is what stands there.
	t.Run("warm-exact/wrong width", func(t *testing.T) {
		owned := newExactEnv(t, 7, 1)
		w, err := NewWarm(owned.st, owned.forest, smallOpts(LIME, 9), 0)
		if err != nil {
			t.Fatal(err)
		}
		tup := owned.tuples[0]
		for _, bad := range [][]float64{tup[:len(tup)-1], append(tup[:len(tup):len(tup)], 0, 0)} {
			if _, _, err := w.ExplainExact(bad); err == nil || !strings.Contains(err.Error(), "tuple width") {
				t.Errorf("ExplainExact on %d cells: err = %v, want the walker's width error", len(bad), err)
			}
		}
		if got := w.Report().Tuples; got != 0 {
			t.Errorf("refused exact tuples were counted: Report().Tuples=%d", got)
		}
	})
}
