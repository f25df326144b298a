package linmodel

import "fmt"

// BinaryFit is Ridge for a 0/1 design that is never materialised: Add
// folds one sample, given as the list of its on columns, into the
// uncentred sums, and Solve centres them algebraically and fits. A
// sample with q columns on costs q² additions instead of Ridge's p²
// multiply-adds, and a fit on a subset of the columns is a second Solve
// over the same sums, not a second pass over the data. A BinaryFit
// owns all its storage; Reset readies it for the next fit.
type BinaryFit struct {
	g       []float64 // packed lower triangle of Σ w·z·zᵀ
	b       []float64 // Σ w·y·z
	sw, swy float64   // Σ w, Σ w·y

	all         []int     // 0..p-1: Solve's columns when none are named
	sys, fac    []float64 // Solve's centred system and its factor
	rhs, solved []float64
}

// NewBinaryFit returns an empty fit over p columns.
func NewBinaryFit(p int) *BinaryFit {
	tri := p * (p + 1) / 2
	f := &BinaryFit{
		g: make([]float64, tri), b: make([]float64, p), all: make([]int, p),
		sys: make([]float64, tri), fac: make([]float64, tri), rhs: make([]float64, p), solved: make([]float64, p),
	}
	for j := range f.all {
		f.all[j] = j
	}
	return f
}

// Reset forgets every sample added.
func (f *BinaryFit) Reset() {
	clear(f.g)
	clear(f.b)
	f.sw, f.swy = 0, 0
}

// Add folds in one sample with target y and weight w whose design row is
// 1 at the columns in on, which must ascend, and 0 elsewhere.
//
//shahin:hotpath
func (f *BinaryFit) Add(on []int, y, w float64) {
	wy := w * y
	f.sw += w
	f.swy += wy
	for i, j := range on {
		f.b[j] += wy
		row := f.g[j*(j+1)/2:]
		for _, k := range on[:i+1] {
			row[k] += w
		}
	}
}

// Solve fits Ridge's model (unpenalised intercept, penalty lambda ≥ 0,
// the same jitter retry) to the samples added, restricted to the design
// columns in cols — every column when cols is nil. coef has one entry
// per design column: those in cols receive their coefficient, the rest
// zero. It returns the intercept.
//
//shahin:hotpath
func (f *BinaryFit) Solve(cols []int, lambda float64, coef []float64) (float64, error) {
	if !(f.sw > 0) {
		return 0, weightSumError(f.sw)
	}
	if cols == nil {
		cols = f.all
	}
	k := len(cols)
	// Centring is algebra on the sums: Σ w (z_j − z̄_j)(z_l − z̄_l) =
	// G_jl − s_j·s_l/W and Σ w (z_j − z̄_j)(y − ȳ) = b_j − s_j·ȳ.
	ybar := f.swy / f.sw
	sys := Sym{n: k, data: f.sys[:k*(k+1)/2]}
	rhs, x := f.rhs[:k], f.solved[:k]
	for a, j := range cols {
		sj := f.colSum(j)
		rhs[a] = f.b[j] - sj*ybar
		row := sys.row(a)
		for c, l := range cols[:a+1] {
			hi, lo := j, l
			if lo > hi {
				hi, lo = lo, hi
			}
			row[c] = f.g[hi*(hi+1)/2+lo] - sj*f.colSum(l)/f.sw
		}
		row[a] += lambda
	}
	if err := sys.solveJittered(rhs, f.fac, x); err != nil {
		return 0, err
	}
	clear(coef)
	intercept := ybar
	for a, j := range cols {
		coef[j] = x[a]
		intercept -= x[a] * f.colSum(j) / f.sw
	}
	return intercept, nil
}

// colSum is Σ w·z_j, which z² = z puts on the diagonal of g.
func (f *BinaryFit) colSum(j int) float64 { return f.g[j*(j+1)/2+j] }

// weightSumError builds the non-positive total weight failure on the
// cold path, as Solve's helpers do.
func weightSumError(total float64) error {
	return fmt.Errorf("linmodel: weights sum to %g", total)
}
