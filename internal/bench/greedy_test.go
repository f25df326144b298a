package bench

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"shahin/internal/core"
	"shahin/internal/dataset"
	"shahin/internal/perturb"
)

// greedyEnv is the census twin and the 40 tuples GREEDY's tests explain.
func greedyEnv(t *testing.T) (*Env, Config, [][]float64) {
	t.Helper()
	cfg := tiny()
	env, err := NewEnv("census", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tuples, err := env.Tuples(40)
	if err != nil {
		t.Fatal(err)
	}
	return env, cfg, tuples
}

// greedyDigest is what a GREEDY run answered and reused: a digest of its
// explanations' JSON (shortest round-trip floats, so bit for bit), its
// reuse and its classifier calls.
func greedyDigest(t *testing.T, res *core.Result) string {
	t.Helper()
	sum := sha256.Sum256([]byte(explanationJSON(t, res.Explanations)))
	return fmt.Sprintf("exp=%s reused=%d inv=%d", hex.EncodeToString(sum[:8]), res.Report.ReusedSamples, res.Report.Invocations)
}

// TestGreedyMatchesCoreGreedy holds GREEDY to the digests core.Greedy
// produced before the baseline moved out of core: LIME and SHAP, two
// seeds, budgets of 64 KiB, 10x the batch's bytes and 1 MiB. It kills
// "never evict" and "evict newest" at the two smaller budgets, and
// "serve a sample twice in one tuple" at all three.
func TestGreedyMatchesCoreGreedy(t *testing.T) {
	env, cfg, tuples := greedyEnv(t)
	want := map[string]string{
		"LIME/1/65536":   "exp=c219d6f93438555d reused=25 inv=6015",
		"LIME/1/134400":  "exp=d3ddb0feea0b06aa reused=66 inv=5974",
		"LIME/1/1048576": "exp=0ee9c6190eeeb7a2 reused=230 inv=5810",
		"LIME/2/65536":   "exp=e9dfdfef5efefb48 reused=26 inv=6014",
		"LIME/2/134400":  "exp=458aa4a258febf43 reused=65 inv=5975",
		"LIME/2/1048576": "exp=30b21b94dbc1c59f reused=214 inv=5826",
		"SHAP/1/65536":   "exp=49bf517d983bb26b reused=881 inv=3099",
		"SHAP/1/134400":  "exp=5c2ac61dcf59d4dd reused=892 inv=3088",
		"SHAP/1/1048576": "exp=53513ce768351bee reused=968 inv=3012",
		"SHAP/2/65536":   "exp=020ed49ced306e74 reused=873 inv=3107",
		"SHAP/2/134400":  "exp=c133869e757d6281 reused=895 inv=3085",
		"SHAP/2/1048576": "exp=4b4e43109ad6e3c3 reused=950 inv=3030",
	}
	for _, kind := range []core.Kind{core.LIME, core.SHAP} {
		for _, seed := range []int64{1, 2} {
			for _, budget := range []int64{64 << 10, int64(10 * len(tuples) * len(tuples[0]) * 8), 1 << 20} {
				opts := cfg.Options(kind)
				opts.Seed += seed
				res, err := greedy(env, opts, tuples, budget)
				if err != nil {
					t.Fatal(err)
				}
				name := fmt.Sprintf("%s/%d/%d", kind, seed, budget)
				if got := greedyDigest(t, res); got != want[name] {
					t.Errorf("%s: %s, want %s", name, got, want[name])
				}
			}
		}
	}
}

// TestGreedyReusesAndEvicts: under 64 KiB the store evicts, under 1 MiB
// it holds all 40 tuples' samples, and either way it reuses and saves
// classifier calls against the sequential baseline. Kills "never evict".
func TestGreedyReusesAndEvicts(t *testing.T) {
	env, cfg, tuples := greedyEnv(t)
	for _, kind := range []core.Kind{core.LIME, core.SHAP} {
		opts := cfg.Options(kind)
		seq, err := runSequential(env, opts, tuples)
		if err != nil {
			t.Fatal(err)
		}
		for _, budget := range []int64{64 << 10, 1 << 20} {
			res, err := greedy(env, opts, tuples, budget)
			if err != nil {
				t.Fatal(err)
			}
			rep := res.Report
			if evicted := rep.Cache.Evictions; (budget == 64<<10) != (evicted > 0) {
				t.Errorf("%s at %d bytes: %d evictions", kind, budget, evicted)
			}
			if rep.ReusedSamples == 0 || rep.Invocations >= seq.Report.Invocations {
				t.Errorf("%s at %d bytes: reused %d, %d calls against sequential's %d",
					kind, budget, rep.ReusedSamples, rep.Invocations, seq.Report.Invocations)
			}
		}
	}
}

// Anchor's GREEDY is the sequential baseline, byte for byte.
func TestGreedyAnchorFallsBackToSequential(t *testing.T) {
	env, cfg, tuples := greedyEnv(t)
	opts := cfg.Options(core.Anchor)
	tuples = tuples[:5]
	res, err := runGreedy(env, opts, tuples)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := runSequential(env, opts, tuples)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := explanationJSON(t, res.Explanations), explanationJSON(t, seq.Explanations); got != want {
		t.Fatalf("Anchor GREEDY explained\n  %s\nSequential\n  %s", got, want)
	}
}

func mk(label int, bins ...uint16) perturb.Pooled {
	return perturb.Pooled{Bins: bins, Label: label}
}

// labels lists the labels of served samples, in serving order.
func labels(served []perturb.Pooled) []int {
	out := []int{}
	for _, s := range served {
		out = append(out, s.Label)
	}
	return out
}

// The store keeps the newest samples that fit. Kills "never evict" and
// "evict newest".
func TestGreedyStoreEviction(t *testing.T) {
	s := mk(0, 0, 0, 0, 0)
	g := &greedyStore{budget: 3 * s.Bytes()}
	for i := 0; i < 10; i++ {
		g.Observe(mk(i, uint16(i%3), 0, 0, 0))
	}
	var kept []int
	for _, s := range g.samples {
		kept = append(kept, s.Label)
	}
	if got := fmt.Sprint(kept); got != "[7 8 9]" || g.used != 3*s.Bytes() || g.evicted != 7 {
		t.Fatalf("kept %s (%d bytes), evicted %d: want [7 8 9], 3 samples' bytes, 7", got, g.used, g.evicted)
	}
}

// ForTuple serves newest first, each sample once per tuple, and takes a
// sample that shares the tuple's bin on at least half the attributes.
// Kills "serve a sample twice in one tuple".
func TestGreedyStoreNewestFirst(t *testing.T) {
	g := &greedyStore{budget: 1 << 20}
	g.Observe(mk(0, 1, 5, 5, 5)) // 2 of 4: half
	g.Observe(mk(1, 1, 5, 9, 5)) // 3 of 4
	g.Observe(mk(2, 1, 7, 7, 7)) // 1 of 4: too few
	g.Observe(mk(3, 7, 7, 7, 7)) // none
	tuple := []dataset.Item{
		dataset.MakeItem(0, 1), dataset.MakeItem(1, 5),
		dataset.MakeItem(2, 9), dataset.MakeItem(3, 9),
	}
	for _, step := range []struct {
		next bool // a new tuple begins
		max  int
		want string
	}{
		{true, 1, "[1]"}, {false, 1, "[0]"}, {false, 10, "[]"},
		{true, 10, "[1 0]"},
	} {
		if step.next {
			g.tuple++
		}
		if got := fmt.Sprint(labels(g.ForTuple(tuple, step.max))); got != step.want {
			t.Fatalf("tuple %d served %s, want %s", g.tuple, got, step.want)
		}
	}
	if g.served != 4 {
		t.Fatalf("served %d, want 4", g.served)
	}
}

func TestMatchingBins(t *testing.T) {
	a := []dataset.Item{dataset.MakeItem(0, 1), dataset.MakeItem(1, 2)}
	if got := matchingBins(a, []uint16{9, 2}); got != 1 {
		t.Fatalf("matchingBins=%d want 1", got)
	}
	if got := matchingBins(a, []uint16{9, 9}); got != 0 {
		t.Fatalf("matchingBins=%d want 0", got)
	}
	if got := matchingBins(a, []uint16{1, 2}); got != 2 {
		t.Fatalf("matchingBins=%d want 2", got)
	}
}

// ForItemset serves a full match of at most three required items.
func TestGreedyStoreForItemsetGuard(t *testing.T) {
	g := &greedyStore{budget: 1 << 20}
	g.Observe(mk(1, 1, 2, 3, 0))
	g.tuple++
	big := dataset.Itemset{
		dataset.MakeItem(0, 1), dataset.MakeItem(1, 2),
		dataset.MakeItem(2, 3), dataset.MakeItem(3, 0),
	}
	if got := g.ForItemset(big, 1); len(got) != 0 {
		t.Fatal("4-item requirement should be skipped")
	}
	if got := g.ForItemset(dataset.Itemset{dataset.MakeItem(0, 1), dataset.MakeItem(2, 2)}, 1); len(got) != 0 {
		t.Fatal("a mismatched requirement was served")
	}
	if got := g.ForItemset(dataset.Itemset{dataset.MakeItem(0, 1), dataset.MakeItem(2, 3)}, 1); len(got) != 1 {
		t.Fatalf("matching requirement served %d", len(got))
	}
}
