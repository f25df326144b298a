package mab

import (
	"math"
	"math/rand"
	"testing"
)

// bern is a test arm with a fixed success probability.
type bern struct {
	p   float64
	rng *rand.Rand
}

func (b *bern) Pull(n int) int {
	s := 0
	for i := 0; i < n; i++ {
		if b.rng.Float64() < b.p {
			s++
		}
	}
	return s
}

func arms(rng *rand.Rand, ps ...float64) []Arm {
	out := make([]Arm, len(ps))
	for i, p := range ps {
		out[i] = &bern{p: p, rng: rng}
	}
	return out
}

func TestKLBernoulliBasics(t *testing.T) {
	klBernoulli := func(p, q float64) float64 {
		p = clampProb(p)
		return klBernoulli(p, 1-p, q)
	}
	if got := klBernoulli(0.5, 0.5); got > 1e-12 {
		t.Fatalf("KL(p,p)=%g want 0", got)
	}
	if klBernoulli(0.9, 0.1) <= 0 {
		t.Fatal("KL of distinct distributions should be positive")
	}
	// Boundary inputs must not produce NaN/Inf.
	for _, pq := range [][2]float64{{0, 0.5}, {1, 0.5}, {0.5, 0}, {0.5, 1}, {0, 1}} {
		if v := klBernoulli(pq[0], pq[1]); math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("KL(%g,%g)=%g", pq[0], pq[1], v)
		}
	}
}

// TestBoundsBracketMean: LB ≤ mean ≤ UB, out to the clamp's edges —
// the premise on which Anchor skips the bound that cannot pass.
func TestBoundsBracketMean(t *testing.T) {
	for _, mean := range []float64{0, 1e-16, 0.1, 0.5, 0.9, 1 - 1e-16, 1} {
		for _, n := range []int{0, 1, 10, 100, 10000} {
			ub := UpperBound(mean, n, 2)
			lb := LowerBound(mean, n, 2)
			if lb > mean || ub < mean {
				t.Fatalf("mean=%g n=%d: bounds [%g, %g] don't bracket", mean, n, lb, ub)
			}
			if lb < 0 || ub > 1 {
				t.Fatalf("bounds outside [0,1]: [%g, %g]", lb, ub)
			}
		}
	}
}

// parentKL, parentUpperBound and parentLowerBound are the bounds as they
// were before the clamp became two compares and the p side left the
// loop.
func parentKL(p, q float64) float64 {
	const eps = 1e-15
	p = math.Min(math.Max(p, eps), 1-eps)
	q = math.Min(math.Max(q, eps), 1-eps)
	return p*math.Log(p/q) + (1-p)*math.Log((1-p)/(1-q))
}

func parentUpperBound(mean float64, n int, beta float64) float64 {
	if n == 0 {
		return 1
	}
	lo, hi := mean, 1.0
	level := beta / float64(n)
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if parentKL(mean, mid) > level {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}

func parentLowerBound(mean float64, n int, beta float64) float64 {
	if n == 0 {
		return 0
	}
	lo, hi := 0.0, mean
	level := beta / float64(n)
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if parentKL(mean, mid) > level {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// TestBoundsBitsUnchanged: the bounds feed bestUB − worstLB ≤ ε, so they
// must be the parent's to the bit — every success count of every pull
// count Anchor can reach on a coarse grid, the means 0 and 1 included,
// under exploration rates from the first round to a late one.
func TestBoundsBitsUnchanged(t *testing.T) {
	pulls := []int{0, 1, 2, 3, 7, 10, 20, 33, 100, 640, 1000, 4999, 5000}
	betas := []float64{beta(1, 1, 0.05), beta(53, 1, 0.05), beta(53, 40, 0.05), beta(2, 250, 0.05), 0.5, 30}
	checked := 0
	for _, n := range pulls {
		step := 1
		if n > 200 {
			step = 7
		}
		for succ := 0; ; succ += step {
			succ = min(succ, n) // always end on mean 1
			mean := Counts{Pulls: n, Successes: succ}.Mean()
			for _, b := range betas {
				if got, want := UpperBound(mean, n, b), parentUpperBound(mean, n, b); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("UpperBound(%d/%d, β=%g) = %v, parent %v", succ, n, b, got, want)
				}
				if got, want := LowerBound(mean, n, b), parentLowerBound(mean, n, b); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("LowerBound(%d/%d, β=%g) = %v, parent %v", succ, n, b, got, want)
				}
				checked++
			}
			if succ == n {
				break
			}
		}
	}
	if checked < 5000 {
		t.Fatalf("grid shrank to %d points", checked)
	}
}

func TestBoundsTightenWithSamples(t *testing.T) {
	w10 := UpperBound(0.5, 10, 2) - LowerBound(0.5, 10, 2)
	w1000 := UpperBound(0.5, 1000, 2) - LowerBound(0.5, 1000, 2)
	if w1000 >= w10 {
		t.Fatalf("interval did not tighten: %g -> %g", w10, w1000)
	}
}

func TestBoundsZeroPulls(t *testing.T) {
	if UpperBound(0.3, 0, 2) != 1 || LowerBound(0.3, 0, 2) != 0 {
		t.Fatal("zero-pull bounds must be vacuous")
	}
}

func TestCountsMean(t *testing.T) {
	if (Counts{}).Mean() != 0 {
		t.Fatal("empty counts mean should be 0")
	}
	if got := (Counts{Pulls: 4, Successes: 3}).Mean(); got != 0.75 {
		t.Fatalf("Mean=%g", got)
	}
}

func TestTopNErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, _, err := TopN(nil, 1, Config{}); err == nil {
		t.Fatal("TopN with no arms should fail")
	}
	if _, _, err := TopN(arms(rng, 0.5), 0, Config{}); err == nil {
		t.Fatal("TopN with n=0 should fail")
	}
}

func TestTopNAllArms(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sel, counts, err := TopN(arms(rng, 0.2, 0.8), 5, Config{InitPulls: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 2 {
		t.Fatalf("selected %d arms want 2", len(sel))
	}
	for i := range counts {
		if counts[i].Pulls != 20 {
			t.Fatalf("arm %d pulled %d times want 20", i, counts[i].Pulls)
		}
	}
}

func TestTopNFindsBestArm(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := rand.New(rand.NewSource(seed))
		a := arms(rng, 0.1, 0.9, 0.3, 0.5)
		sel, _, err := TopN(a, 1, Config{Eps: 0.05, Delta: 0.05})
		if err != nil {
			t.Fatal(err)
		}
		if sel[0] != 1 {
			t.Fatalf("seed %d: selected arm %d want 1", seed, sel[0])
		}
	}
}

func TestTopNFindsTopTwo(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := arms(rng, 0.15, 0.85, 0.7, 0.2, 0.05)
	sel, _, err := TopN(a, 2, Config{Eps: 0.05, Delta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	got := map[int]bool{sel[0]: true, sel[1]: true}
	if !got[1] || !got[2] {
		t.Fatalf("selected %v want {1,2}", sel)
	}
}

func TestTopNAdaptiveSampling(t *testing.T) {
	// Easily separable arms should receive far fewer pulls than the
	// hard-budget maximum: the bandit's whole purpose.
	rng := rand.New(rand.NewSource(4))
	a := arms(rng, 0.05, 0.95, 0.1, 0.08)
	_, counts, err := TopN(a, 1, Config{Eps: 0.1, Delta: 0.05, MaxPulls: 100000})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c.Pulls
	}
	if total > 5000 {
		t.Fatalf("separable arms used %d pulls; bandit not adaptive", total)
	}
}

func TestTopNBudgetExhaustion(t *testing.T) {
	// Identical arms can never separate; the run must stop at the budget
	// and still return n arms.
	rng := rand.New(rand.NewSource(5))
	a := arms(rng, 0.5, 0.5, 0.5)
	sel, counts, err := TopN(a, 1, Config{Eps: 1e-9, Delta: 1e-9, MaxPulls: 2000, Batch: 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel) != 1 {
		t.Fatalf("selected %d arms", len(sel))
	}
	total := 0
	for _, c := range counts {
		total += c.Pulls
	}
	if total > 2000+2*10 {
		t.Fatalf("budget overrun: %d pulls", total)
	}
}

func BenchmarkTopN10Arms(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		a := arms(rng, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.85, 0.9)
		if _, _, err := TopN(a, 2, Config{Eps: 0.1, Delta: 0.1, MaxPulls: 20000}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestTopNWithPrior(t *testing.T) {
	// Arm 1 is clearly best and its prior already proves it; TopN should
	// need far fewer fresh pulls than a cold run.
	coldRng := rand.New(rand.NewSource(30))
	cold := arms(coldRng, 0.3, 0.9, 0.35)
	_, coldCounts, err := TopN(cold, 1, Config{Eps: 0.05, Delta: 0.05})
	if err != nil {
		t.Fatal(err)
	}
	coldTotal := 0
	for _, c := range coldCounts {
		coldTotal += c.Pulls
	}

	warmRng := rand.New(rand.NewSource(31))
	warm := arms(warmRng, 0.3, 0.9, 0.35)
	prior := []Counts{
		{Pulls: 400, Successes: 120},
		{Pulls: 400, Successes: 360},
		{Pulls: 400, Successes: 140},
	}
	sel, warmCounts, err := TopN(warm, 1, Config{Eps: 0.05, Delta: 0.05, Prior: prior})
	if err != nil {
		t.Fatal(err)
	}
	if sel[0] != 1 {
		t.Fatalf("warm selection=%d want 1", sel[0])
	}
	warmFresh := 0
	for i, c := range warmCounts {
		warmFresh += c.Pulls - prior[i].Pulls
	}
	if warmFresh >= coldTotal {
		t.Fatalf("prior saved nothing: warm fresh=%d cold=%d", warmFresh, coldTotal)
	}
}

func TestTopNPriorLengthMismatch(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	_, _, err := TopN(arms(rng, 0.5, 0.6), 1, Config{Prior: []Counts{{}}})
	if err == nil {
		t.Fatal("mismatched prior length accepted")
	}
}
