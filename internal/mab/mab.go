// Package mab implements the KL-LUCB multi-armed-bandit procedure Anchor
// uses to estimate rule precisions with as few classifier invocations as
// possible (Kaufmann & Kalyanakrishnan, COLT 2013, which Anchor adopts).
//
// Arms are Bernoulli: a pull draws perturbations consistent with a rule,
// invokes the classifier, and counts predictions of the target class.
// TopN selects the top-n arms by mean with (ε, δ) guarantees, pulling
// only while the remaining budget could still meet its stop test; the KL
// bounds are what Anchor compares with its precision threshold.
package mab

import (
	"fmt"
	"math"
)

// Arm is a Bernoulli arm. Pull performs n trials and returns the number of
// successes. Implementations are expected to be stateless between calls
// (successes are accumulated by this package).
type Arm interface {
	Pull(n int) int
}

// Counts tracks the empirical state of one arm.
type Counts struct {
	Pulls     int
	Successes int
}

// Mean returns the empirical success rate (0 when never pulled).
func (c Counts) Mean() float64 {
	if c.Pulls == 0 {
		return 0
	}
	return float64(c.Successes) / float64(c.Pulls)
}

// clampProb keeps a probability off the boundary, where KL is infinite.
// Compares, not math.Min(math.Max(…)): the same bits for every non-NaN
// p, without the NaN and signed-zero handling the bisections pay 80
// times per bound.
func clampProb(p float64) float64 {
	const eps = 1e-15
	if p < eps {
		return eps
	}
	if p > 1-eps {
		return 1 - eps
	}
	return p
}

// klBernoulli returns KL(p‖q) for Bernoulli distributions, handling the
// boundary cases exactly. p arrives clamped and with notP = 1-p beside
// it: a bisection moves only q.
func klBernoulli(p, notP, q float64) float64 {
	q = clampProb(q)
	return p*math.Log(p/q) + notP*math.Log(notP/(1-q))
}

// UpperBound returns the KL upper confidence bound: the largest q >= mean
// with n·KL(mean‖q) <= beta, found by bisection.
func UpperBound(mean float64, n int, beta float64) float64 {
	if n == 0 {
		return 1
	}
	lo, hi := mean, 1.0
	level := beta / float64(n)
	p := clampProb(mean)
	notP := 1 - p
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if klBernoulli(p, notP, mid) > level {
			hi = mid
		} else {
			lo = mid
		}
	}
	return (lo + hi) / 2
}

// LowerBound returns the KL lower confidence bound: the smallest q <= mean
// with n·KL(mean‖q) <= beta.
func LowerBound(mean float64, n int, beta float64) float64 {
	if n == 0 {
		return 0
	}
	lo, hi := 0.0, mean
	level := beta / float64(n)
	p := clampProb(mean)
	notP := 1 - p
	for i := 0; i < 40; i++ {
		mid := (lo + hi) / 2
		if klBernoulli(p, notP, mid) > level {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// beta is the exploration rate from the KL-LUCB paper (theorem 1 with
// k1 = 405.5, alpha = 1.1), as used in the Anchor reference code.
func beta(nArms, round int, delta float64) float64 {
	alpha := 1.1
	k1 := 405.5
	t := float64(round)
	if t < 1 {
		t = 1
	}
	return math.Log(k1 * float64(nArms) * math.Pow(t, alpha) / delta)
}

// Config bounds a bandit run.
type Config struct {
	Eps       float64 // required gap tolerance between selected and rejected arms
	Delta     float64 // failure probability
	Batch     int     // pulls per round per queried arm (amortises Pull overhead)
	InitPulls int     // pulls given to every arm up front
	MaxPulls  int     // hard budget across all arms; 0 means a generous default

	// Prior seeds per-arm counts accumulated elsewhere (e.g. Shahin's
	// shared precision cache); arms whose prior already has InitPulls
	// samples skip the initial pull round. Must be nil or len(arms).
	Prior []Counts
}

func (c *Config) fill() Config {
	out := *c
	if out.Eps <= 0 {
		out.Eps = 0.1
	}
	if out.Delta <= 0 {
		out.Delta = 0.05
	}
	if out.Batch <= 0 {
		out.Batch = 10
	}
	if out.InitPulls <= 0 {
		out.InitPulls = out.Batch
	}
	if out.MaxPulls <= 0 {
		out.MaxPulls = 100000
	}
	return out
}

// TopN runs KL-LUCB to identify the n arms with the highest means, up to
// tolerance eps with confidence 1-delta, and returns them (by descending
// mean) with every arm's counts; n >= len(arms) returns all after the
// initial pulls. Once the stop test is out of reach (see reachable), it
// returns the empirical best without a claim, as at the budget.
func TopN(arms []Arm, n int, cfg Config) ([]int, []Counts, error) {
	if len(arms) == 0 {
		return nil, nil, fmt.Errorf("mab: TopN with no arms")
	}
	if n <= 0 {
		return nil, nil, fmt.Errorf("mab: TopN n=%d must be positive", n)
	}
	c := cfg.fill()
	if c.Prior != nil && len(c.Prior) != len(arms) {
		return nil, nil, fmt.Errorf("mab: %d priors for %d arms", len(c.Prior), len(arms))
	}
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
	order := make([]int, len(arms)) // rankByMean's, every round
	if n >= len(arms) {
		return rankByMean(counts, order), counts, nil
	}

	round := 1
	for totalPulls < c.MaxPulls {
		b := beta(len(arms), round, c.Delta)
		// Partition arms into the current top-n (J) and the rest; find the
		// weakest member of J (lowest LB) and the strongest outsider
		// (highest UB).
		rankByMean(counts, order)
		worstIn, bestOut := -1, -1
		var worstLB, bestUB float64
		// Outsiders come in descending-mean order and only a strictly
		// larger bound displaces bestOut, so one with at least as many
		// pulls as an outsider already seen cannot win (its mean is no
		// larger and its interval no wider) and its bisection is skipped.
		fewestOut := math.MaxInt
		for rank, i := range order {
			mean := counts[i].Mean()
			if rank < n {
				lb := LowerBound(mean, counts[i].Pulls, b)
				if worstIn == -1 || lb < worstLB {
					worstIn, worstLB = i, lb
				}
			} else if counts[i].Pulls < fewestOut {
				fewestOut = counts[i].Pulls
				ub := UpperBound(mean, counts[i].Pulls, b)
				if bestOut == -1 || ub > bestUB {
					bestOut, bestUB = i, ub
				}
			}
		}
		if bestUB-worstLB <= c.Eps {
			return order[:n], counts, nil
		}
		if !c.reachable(counts[worstIn], counts[bestOut], len(arms), round, c.MaxPulls-totalPulls) {
			break
		}
		pull(worstIn, c.Batch)
		pull(bestOut, c.Batch)
		round++
	}
	// Budget exhausted or out of reach: return the current empirical
	// best. This mirrors the anytime behaviour of the reference
	// implementation.
	return rankByMean(counts, order)[:n], counts, nil
}

// reachable reports whether UB_out − LB_in ≤ Eps could still hold for
// the boundary arms in and out with rem pulls left, if each kept its mean
// and alone received all rem (rounded up to Batch) by the last round rem
// allows. Each can really get only half: the generous count spares
// selections a moving mean could still close. LB ≤ mean, so an upper
// bound past in's mean by Eps answers without the lower bisection.
func (c Config) reachable(in, out Counts, nArms, round, rem int) bool {
	extra := (rem + c.Batch - 1) / c.Batch * c.Batch
	b := beta(nArms, round+(rem+2*c.Batch-1)/(2*c.Batch), c.Delta)
	meanIn := in.Mean()
	ub := UpperBound(out.Mean(), out.Pulls+extra, b)
	if ub-meanIn > c.Eps {
		return false
	}
	return ub-LowerBound(meanIn, in.Pulls+extra, b) <= c.Eps
}

// rankByMean writes into order, which has one cell per arm, the arm
// indices by descending empirical mean (stable by index for ties), and
// returns it.
func rankByMean(counts []Counts, order []int) []int {
	for i := range order {
		order[i] = i
	}
	// Insertion sort: arm lists are small (beam width × candidates).
	for i := 1; i < len(order); i++ {
		for j := i; j > 0; j-- {
			a, b := order[j-1], order[j]
			if counts[b].Mean() > counts[a].Mean() {
				order[j-1], order[j] = order[j], order[j-1]
			} else {
				break
			}
		}
	}
	return order
}
