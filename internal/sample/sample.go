// Package sample provides the sampling primitives the rest of the system is
// built on: an alias-method sampler for drawing from categorical frequency
// distributions in O(1), a bounded Zipf sampler used by the synthetic data
// generators, and uniform sampling helpers used by the frequent itemset
// miner.
//
// All functions take an explicit *rand.Rand so that every experiment in the
// repository is reproducible from a seed.
package sample

import (
	"fmt"
	"math"
	"math/rand"
)

// Alias is an alias-method sampler over a fixed discrete distribution.
// Construction is O(k); each Draw is O(1). The zero value is unusable;
// build one with NewAlias.
type Alias struct {
	prob  []float64 // probability of keeping column i (vs. taking alias)
	alias []int32
	pmf   []float64 // normalised input distribution, kept for Prob
}

// NewAlias builds an alias sampler from non-negative weights. It returns an
// error if weights is empty, contains a negative value, or sums to zero.
func NewAlias(weights []float64) (*Alias, error) {
	k := len(weights)
	if k == 0 {
		return nil, fmt.Errorf("sample: NewAlias with empty weights")
	}
	total := 0.0
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("sample: NewAlias weight %d is negative (%g)", i, w)
		}
		total += w
	}
	if total == 0 {
		return nil, fmt.Errorf("sample: NewAlias weights sum to zero")
	}

	a := &Alias{
		prob:  make([]float64, k),
		alias: make([]int32, k),
		pmf:   make([]float64, k),
	}
	// Vose's algorithm: partition scaled probabilities into small/large
	// worklists and pair each small column with probability mass from a
	// large one.
	scaled := make([]float64, k)
	small := make([]int32, 0, k)
	large := make([]int32, 0, k)
	for i, w := range weights {
		p := w / total
		a.pmf[i] = p
		scaled[i] = p * float64(k)
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]
		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Numerical leftovers are all (approximately) 1.
	for _, i := range large {
		a.prob[i] = 1
	}
	for _, i := range small {
		a.prob[i] = 1
	}
	return a, nil
}

// MustAlias is NewAlias but panics on error; for static tables.
func MustAlias(weights []float64) *Alias {
	a, err := NewAlias(weights)
	if err != nil {
		panic(err)
	}
	return a
}

// K returns the number of categories.
func (a *Alias) K() int { return len(a.prob) }

// Prob returns the normalised probability of category i.
func (a *Alias) Prob(i int) float64 { return a.pmf[i] }

// Column returns column i of the table: the probability that a draw
// landing on i keeps i, and the category it takes otherwise.
func (a *Alias) Column(i int) (keep float64, alias int) { return a.prob[i], int(a.alias[i]) }

// Draw samples a category index according to the distribution.
func (a *Alias) Draw(rng *rand.Rand) int {
	i := rng.Intn(len(a.prob))
	if rng.Float64() < a.prob[i] {
		return i
	}
	return int(a.alias[i])
}

// Zipf draws from a bounded Zipf(s) distribution over {0..k-1}, where rank
// r has weight 1/(r+1)^s. It is implemented on top of Alias so draws are
// O(1); use it to give synthetic categorical attributes the heavy-tailed
// marginals real datasets exhibit.
type Zipf struct{ a *Alias }

// NewZipf builds a bounded Zipf sampler with k categories and exponent s.
// s = 0 is uniform; larger s is more skewed.
func NewZipf(k int, s float64) (*Zipf, error) {
	if k <= 0 {
		return nil, fmt.Errorf("sample: NewZipf k=%d must be positive", k)
	}
	if s < 0 {
		return nil, fmt.Errorf("sample: NewZipf s=%g must be non-negative", s)
	}
	w := make([]float64, k)
	for r := range w {
		w[r] = 1 / math.Pow(float64(r+1), s)
	}
	a, err := NewAlias(w)
	if err != nil {
		return nil, err
	}
	return &Zipf{a: a}, nil
}

// Draw samples a rank in [0, k).
func (z *Zipf) Draw(rng *rand.Rand) int { return z.a.Draw(rng) }

// Prob returns the probability of rank r.
func (z *Zipf) Prob(r int) float64 { return z.a.Prob(r) }

// K returns the number of ranks.
func (z *Zipf) K() int { return z.a.K() }

// UniformIndices returns n distinct indices drawn uniformly from [0, total),
// in random order. If n >= total it returns the full permuted range. It is
// the batch sampler behind the paper's "uniform random sample of
// max(1000, 1% of batch)" heuristic.
func UniformIndices(rng *rand.Rand, total, n int) []int {
	if total < 0 {
		panic("sample: UniformIndices negative total")
	}
	if n >= total {
		out := rng.Perm(total)
		return out
	}
	if n <= 0 {
		return nil
	}
	// Partial Fisher-Yates over a lazily materialised permutation.
	swapped := make(map[int]int, n*2)
	out := make([]int, n)
	for i := 0; i < n; i++ {
		j := i + rng.Intn(total-i)
		vi, ok := swapped[i]
		if !ok {
			vi = i
		}
		vj, ok := swapped[j]
		if !ok {
			vj = j
		}
		out[i] = vj
		swapped[j] = vi
		swapped[i] = vj
	}
	return out
}
