package mab

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// topNReference is TopN as it stood before outsider bounds were pruned:
// every outsider's upper bound is bisected in every round, and so are
// both bounds of the reachability stop. It is the oracle
// TestTopNMatchesReference and FuzzTopN hold the pruned loop to.
func topNReference(arms []Arm, n int, cfg Config) ([]int, []Counts) {
	c := cfg.fill()
	counts := make([]Counts, len(arms))
	if c.Prior != nil {
		copy(counts, c.Prior)
	}
	totalPulls := 0
	pull := func(i, k int) {
		counts[i].Successes += arms[i].Pull(k)
		counts[i].Pulls += k
		totalPulls += k
	}
	for i := range arms {
		if need := c.InitPulls - counts[i].Pulls; need > 0 {
			pull(i, need)
		}
	}
	if n >= len(arms) {
		return rankByMean(counts, len(arms)), counts
	}
	round := 1
	for totalPulls < c.MaxPulls {
		b := beta(len(arms), round, c.Delta)
		order := rankByMean(counts, len(counts))
		worstIn, bestOut := -1, -1
		var worstLB, bestUB float64
		for rank, i := range order {
			mean := counts[i].Mean()
			if rank < n {
				lb := LowerBound(mean, counts[i].Pulls, b)
				if worstIn == -1 || lb < worstLB {
					worstIn, worstLB = i, lb
				}
			} else {
				ub := UpperBound(mean, counts[i].Pulls, b)
				if bestOut == -1 || ub > bestUB {
					bestOut, bestUB = i, ub
				}
			}
		}
		if bestUB-worstLB <= c.Eps {
			return order[:n], counts
		}
		// Each boundary arm alone takes the whole remainder, rounded up
		// to Batch, at the β of the round the remainder ends in.
		rem := float64(c.MaxPulls - totalPulls)
		extra := int(math.Ceil(rem/float64(c.Batch))) * c.Batch
		last := beta(len(arms), round+int(math.Ceil(rem/float64(2*c.Batch))), c.Delta)
		in, out := counts[worstIn], counts[bestOut]
		if UpperBound(out.Mean(), out.Pulls+extra, last)-LowerBound(in.Mean(), in.Pulls+extra, last) > c.Eps {
			break
		}
		pull(worstIn, c.Batch)
		pull(bestOut, c.Batch)
		round++
	}
	return rankByMean(counts, len(counts))[:n], counts
}

// pullCall is one Pull(arm, k) as the bandit issued it.
type pullCall struct{ arm, k int }

// scriptedArm answers pulls from its own seeded stream, so what a pull
// returns depends only on that arm's earlier pulls, and logs each call.
type scriptedArm struct {
	id  int
	p   float64
	rng *rand.Rand
	log *[]pullCall
}

func (a *scriptedArm) Pull(k int) int {
	*a.log = append(*a.log, pullCall{a.id, k})
	s := 0
	for i := 0; i < k; i++ {
		if a.rng.Float64() < a.p {
			s++
		}
	}
	return s
}

// scriptedArms builds nArms arms in one of several precision regimes —
// the last ones crowd the means together, or pin them at 0 and 1, where
// bounds tie and saturate.
func scriptedArms(rng *rand.Rand, nArms int, seed int64, log *[]pullCall) []Arm {
	regime := rng.Intn(6)
	arms := make([]Arm, nArms)
	for i := range arms {
		var p float64
		switch regime {
		case 0:
			p = rng.Float64()
		case 1:
			p = 0.9 + 0.1*rng.Float64()
		case 2:
			p = 0.05 * rng.Float64()
		case 3:
			p = 0.7
		case 4:
			p = float64(rng.Intn(2))
		default:
			p = []float64{0, 0.5, 0.96, 1}[rng.Intn(4)]
		}
		arms[i] = &scriptedArm{id: i, p: p, rng: rand.New(rand.NewSource(seed + int64(i))), log: log}
	}
	return arms
}

// scriptedConfig draws a bandit configuration and, half the time,
// priors whose pull counts differ from arm to arm — the shape Anchor's
// shared precision cache hands TopN.
func scriptedConfig(rng *rand.Rand, nArms int) Config {
	cfg := Config{
		Eps:   []float64{0.01, 0.05, 0.1, 0.3}[rng.Intn(4)],
		Delta: []float64{0.01, 0.05, 0.2}[rng.Intn(3)],
		Batch: []int{1, 5, 10, 25, 100}[rng.Intn(5)],
	}
	// Mostly a few dozen rounds; one run in forty is long enough for
	// pull counts to reach the thousands, where bounds crowd near 1.
	rounds := 1 + rng.Intn(24)
	if rng.Intn(40) == 0 {
		rounds = 100 + rng.Intn(200)
	}
	cfg.MaxPulls = nArms*cfg.Batch + 2*cfg.Batch*rounds
	if rng.Intn(3) == 0 {
		cfg.InitPulls = 1 + rng.Intn(60)
	}
	if rng.Intn(2) == 0 {
		cfg.Prior = make([]Counts, nArms)
		for i := range cfg.Prior {
			pulls := rng.Intn(4) * rng.Intn(500)
			if rng.Intn(2) == 0 {
				pulls = cfg.Batch * rng.Intn(8)
			}
			succ := 0
			if pulls > 0 {
				succ = rng.Intn(pulls + 1)
				if rng.Intn(3) == 0 {
					succ = pulls - rng.Intn(min(pulls, 3)+1)
				}
			}
			cfg.Prior[i] = Counts{Pulls: pulls, Successes: succ}
		}
	}
	return cfg
}

// TestTopNMatchesReference: skipping the bounds that cannot win changes
// nothing a caller can observe — not the selection, not the counts, not
// one Pull.
func TestTopNMatchesReference(t *testing.T) {
	configs := 10000
	if testing.Short() {
		configs = 1500
	}
	for seed := int64(0); seed < int64(configs); seed++ {
		rng := rand.New(rand.NewSource(seed))
		nArms := 2 + rng.Intn(1+rng.Intn(59)) // up to 60, mostly under 20
		n := 1 + rng.Intn(min(4, nArms))
		cfg := scriptedConfig(rng, nArms)
		armSeed, regimeSeed := rng.Int63(), rng.Int63()

		var wantLog, gotLog []pullCall
		wantSel, wantCounts := topNReference(scriptedArms(rand.New(rand.NewSource(regimeSeed)), nArms, armSeed, &wantLog), n, cfg)
		gotSel, gotCounts, err := TopN(scriptedArms(rand.New(rand.NewSource(regimeSeed)), nArms, armSeed, &gotLog), n, cfg)
		if err != nil {
			t.Fatalf("config %d: %v", seed, err)
		}
		if !reflect.DeepEqual(gotSel, wantSel) {
			t.Fatalf("config %d (%d arms, top %d, %+v): selected %v, reference %v", seed, nArms, n, cfg, gotSel, wantSel)
		}
		if !reflect.DeepEqual(gotCounts, wantCounts) {
			t.Fatalf("config %d: counts %v, reference %v", seed, gotCounts, wantCounts)
		}
		if !reflect.DeepEqual(gotLog, wantLog) {
			t.Fatalf("config %d: %d pulls issued, reference issued %d; sequences differ", seed, len(gotLog), len(wantLog))
		}
	}
}

// alternating succeeds on every other trial: a p = 0.5 arm whose mean
// after any even number of trials is exactly one half.
type alternating struct{ trials int }

func (a *alternating) Pull(k int) int {
	s := (a.trials+k+1)/2 - (a.trials+1)/2
	a.trials += k
	return s
}

// TestTopNStopsWhenUnreachable: two arms at 0.5 cannot be split within
// ε = 0.1 in 2 000 pulls, so the loop stops after the initial 50 where
// the loop without the reachability stop spent all 2 000 and still made
// no claim.
func TestTopNStopsWhenUnreachable(t *testing.T) {
	cfg := Config{Eps: 0.1, Delta: 0.05, MaxPulls: 2000, Batch: 25}
	sel, counts, err := TopN([]Arm{&alternating{}, &alternating{}}, 1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if want := []Counts{{25, 13}, {25, 13}}; !reflect.DeepEqual(counts, want) || sel[0] != 0 {
		t.Fatalf("selected %v with counts %v, want [0] after the initial pulls %v", sel, counts, want)
	}
	// At the budget's end, 1 000 pulls each at the 40th round, the gap
	// still stays open: what the stop saves, it would not have bought.
	b := beta(2, 40, cfg.Delta)
	if gap := UpperBound(0.5, 1000, b) - LowerBound(0.5, 1000, b); gap <= cfg.Eps {
		t.Fatalf("two arms at 0.5 close to %.3f ≤ ε at the budget: the stop cost a claim", gap)
	}
}

// TestTopNKeepsReachableSelections: arms at 0.9 and 0.3 separate within
// the budget, so the stop never fires and the run is the one the loop
// made before it had the stop: the same selection, counts and pulls.
func TestTopNKeepsReachableSelections(t *testing.T) {
	var log []pullCall
	arms := []Arm{
		&scriptedArm{id: 0, p: 0.9, rng: rand.New(rand.NewSource(1)), log: &log},
		&scriptedArm{id: 1, p: 0.3, rng: rand.New(rand.NewSource(2)), log: &log},
	}
	sel, counts, err := TopN(arms, 1, Config{Eps: 0.1, Delta: 0.05, Batch: 5, MaxPulls: 2000})
	if err != nil {
		t.Fatal(err)
	}
	// Captured from the loop without the stop: the initial pulls and
	// seven rounds, each pulling both arms.
	var wantLog []pullCall
	for range 8 {
		wantLog = append(wantLog, pullCall{0, 5}, pullCall{1, 5})
	}
	if want := []Counts{{40, 38}, {40, 11}}; !reflect.DeepEqual(counts, want) || !reflect.DeepEqual(sel, []int{0}) {
		t.Fatalf("selected %v with counts %v, want [0] with %v", sel, counts, want)
	}
	if !reflect.DeepEqual(log, wantLog) {
		t.Fatalf("pulls %v, want %v", log, wantLog)
	}
}

// FuzzTopN holds TopN to topNReference on fuzzed arm counts, n, configs
// and arm scripts: the same selection, counts and sequence of pulls.
// script[i] sets arm i's rate; when the script covers three bytes per
// arm, the next two per arm are its prior's pulls and success share.
func FuzzTopN(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(26), uint8(13), uint8(25), uint8(0), uint16(2000), []byte{128, 128}, int64(1))
	f.Add(uint8(2), uint8(1), uint8(26), uint8(13), uint8(5), uint8(0), uint16(2000), []byte{230, 77}, int64(2))
	f.Add(uint8(53), uint8(1), uint8(26), uint8(13), uint8(25), uint8(25), uint16(2000), []byte{200, 220, 240, 250, 90}, int64(3))
	f.Add(uint8(6), uint8(2), uint8(3), uint8(50), uint8(1), uint8(7), uint16(900), []byte{0, 255, 128, 255, 0, 245, 10, 200, 40, 0, 255, 255, 3, 3, 100, 250, 250, 128}, int64(4))
	f.Fuzz(func(t *testing.T, nArms, n, eps, delta, batch, initPulls uint8, maxPulls uint16, script []byte, seed int64) {
		k := 2 + int(nArms)%59
		cfg := Config{
			Eps:       float64(eps) / 256,
			Delta:     float64(delta) / 256,
			Batch:     int(batch) % 101,
			InitPulls: int(initPulls) % 64,
			MaxPulls:  1 + int(maxPulls)%5000,
		}
		if len(script) >= 3*k {
			cfg.Prior = make([]Counts, k)
			for i := range cfg.Prior {
				pulls := 4 * int(script[k+2*i])
				cfg.Prior[i] = Counts{Pulls: pulls, Successes: pulls * int(script[k+2*i+1]) / 255}
			}
		}
		build := func(log *[]pullCall) []Arm {
			arms := make([]Arm, k)
			for i := range arms {
				p := 0.5
				if len(script) > 0 {
					p = float64(script[i%len(script)]) / 255
				}
				arms[i] = &scriptedArm{id: i, p: p, rng: rand.New(rand.NewSource(seed + int64(i))), log: log}
			}
			return arms
		}
		top := 1 + int(n)%k
		var wantLog, gotLog []pullCall
		wantSel, wantCounts := topNReference(build(&wantLog), top, cfg)
		gotSel, gotCounts, err := TopN(build(&gotLog), top, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(gotSel, wantSel) || !reflect.DeepEqual(gotCounts, wantCounts) {
			t.Fatalf("%d arms, top %d, %+v: selected %v counts %v, reference %v counts %v", k, top, cfg, gotSel, gotCounts, wantSel, wantCounts)
		}
		if !reflect.DeepEqual(gotLog, wantLog) {
			t.Fatalf("%d pulls issued, reference issued %d; sequences differ", len(gotLog), len(wantLog))
		}
	})
}

// BenchmarkTopN53 is the in-repo twin of the benchmark's mab.topn_us:
// one beam level of batch_anchor — 53 candidate rules of which one is
// kept, each arriving with a 25-pull prior — over arms whose pulls cost
// nothing, so the time is the bandit's own.
func BenchmarkTopN53(b *testing.B) {
	const nArms = 53
	var log []pullCall
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i % 16)))
		arms := make([]Arm, nArms)
		prior := make([]Counts, nArms)
		for a := range arms {
			p := 0.3 + 0.65*rng.Float64()
			arm := &scriptedArm{id: a, p: p, rng: rand.New(rand.NewSource(int64(a))), log: &log}
			prior[a] = Counts{Pulls: 25, Successes: arm.Pull(25)}
			arms[a] = arm
		}
		log = log[:0]
		if _, _, err := TopN(arms, 1, Config{Eps: 0.1, Delta: 0.05, Batch: 25, MaxPulls: 2000, Prior: prior}); err != nil {
			b.Fatal(err)
		}
	}
}
