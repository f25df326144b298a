package mab

import (
	"math/rand"
	"reflect"
	"testing"
)

// topNReference is TopN as it stood before outsider bounds were pruned:
// every outsider's upper bound is bisected in every round. It is the
// oracle TestTopNMatchesReference holds the pruned loop to.
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
