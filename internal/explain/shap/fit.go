package shap

import (
	"math/bits"
	"math/rand"

	"shahin/internal/dataset"
	"shahin/internal/linmodel"
)

// fit is the KernelSHAP regression of one explanation,
//
//	y_i ≈ φ0 + Σ_j φ_j z_ij   subject to   Σ_j φ_j = fx − φ0
//
// with unit sample weights (the kernel is folded into the coalition
// sampling distribution). The constraint is enforced by eliminating the
// last feature, which leaves ordinary least squares over the p = m−1
// features z_ij − z_im. Within one sample those are all in {0, +1} or
// all in {0, −1}, so a product of two of them is 1 exactly when both are
// non-zero: the normal matrix is a table of integer counts. The fit
// therefore keeps one bit per sample and feature — set when the feature
// is non-zero — as p columns of words, and one target per sample that
// carries the sample's sign; a count is the popcount of two columns
// ANDed, exact in any order, and the right-hand side is summed in sample
// order as a dense sweep over the samples would. A fit owns all its
// storage.
type fit struct {
	p, words int      // features left after the elimination; words per column
	nz       []uint64 // p columns: bit i of column j is z_ij ≠ z_im
	target   []float64
	n        int // samples added

	phi0, fx float64

	gram           *linmodel.Sym
	rhs, fac, head []float64
}

// newFit returns an empty fit over m ≥ 2 features with room for capacity
// samples.
func newFit(m, capacity int) *fit {
	p, words := m-1, (capacity+63)/64
	return &fit{
		p: p, words: words,
		nz: make([]uint64, p*words), target: make([]float64, capacity),
		gram: linmodel.NewSym(p),
		rhs:  make([]float64, p), fac: make([]float64, p*(p+1)/2), head: make([]float64, p),
	}
}

// begin forgets every sample and takes the base value and the tuple's
// own value the next explanation regresses against.
func (f *fit) begin(phi0, fx float64) {
	clear(f.nz)
	f.n, f.phi0, f.fx = 0, phi0, fx
}

// add folds in one labelled sample: z is 1 on the attributes whose bin
// is the tuple's (both slices are canonical per-attribute encodings, as
// Stats.ItemizeRow makes them), y whether the classifier gave it the
// tuple's class.
//
//shahin:hotpath
func (f *fit) add(tItems, items []dataset.Item, sameClass bool) {
	p := f.p
	y, zm := 0.0, 0.0
	if sameClass {
		y = 1
	}
	last := items[p] == tItems[p]
	if last {
		zm = 1
	}
	target := y - f.phi0 - zm*(f.fx-f.phi0)
	if last {
		target = -target // every non-zero feature of the sample is −1
	}
	f.target[f.n] = target
	at, bit := f.n>>6, uint(f.n&63)
	for j := 0; j < p; j++ {
		var differs uint64
		if (items[j] == tItems[j]) != last {
			differs = 1
		}
		f.nz[at] |= differs << bit
		at += f.words
	}
	f.n++
}

// solve writes the p+1 Shapley values of the samples added into phi. ridge
// is a stabiliser added to the normal matrix's diagonal, relative to its
// largest entry.
//
//shahin:hotpath
func (f *fit) solve(ridge float64, phi []float64) error {
	p, used := f.p, (f.n+63)/64
	for j := 0; j < p; j++ {
		cj := f.nz[j*f.words:][:used]
		for k := 0; k <= j; k++ {
			ck := f.nz[k*f.words:][:used]
			both := 0
			for w, word := range cj {
				both += bits.OnesCount64(word & ck[w])
			}
			f.gram.Set(j, k, float64(both))
		}
		sum := 0.0
		for w, word := range cj {
			for ; word != 0; word &= word - 1 {
				sum += f.target[w<<6+bits.TrailingZeros64(word)]
			}
		}
		f.rhs[j] = sum
	}
	scale := f.gram.MaxDiag()
	if scale == 0 {
		scale = 1
	}
	for j := 0; j < p; j++ {
		f.gram.Add(j, j, ridge*scale)
	}
	if err := f.gram.SolveInto(f.rhs, f.fac, f.head); err != nil {
		return err
	}
	copy(phi, f.head)
	last := f.fx - f.phi0
	for _, v := range f.head {
		last -= v
	}
	phi[p] = last
	return nil
}

// pick moves into perm[:n] the n indices sample.UniformIndices(rng,
// len(perm), n) returns, in its order and from the same rng.Intn
// sequence, for 0 < n < len(perm). perm must hold 0, 1, 2, … on entry;
// swaps[:n] logs the exchanges so that unpick can put it back, which is
// what spares the draw UniformIndices' map and result slice.
//
//shahin:hotpath
func pick(rng *rand.Rand, perm, swaps []int, n int) {
	for i := 0; i < n; i++ {
		j := i + rng.Intn(len(perm)-i)
		perm[i], perm[j] = perm[j], perm[i]
		swaps[i] = j
	}
}

// unpick undoes pick(rng, perm, swaps, n).
func unpick(perm, swaps []int, n int) {
	for i := n - 1; i >= 0; i-- {
		j := swaps[i]
		perm[i], perm[j] = perm[j], perm[i]
	}
}
