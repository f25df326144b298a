package linmodel

import "fmt"

// BinaryFit is Ridge for a 0/1 design that is never materialised: Add
// folds one sample, given as the list of its on columns, into the
// uncentred sums, and Solve centres them algebraically and fits. A
// sample with q columns on costs q² additions instead of Ridge's p²
// multiply-adds. A BinaryFit owns all its storage; Reset readies it for
// the next fit.
type BinaryFit struct {
	g       []float64 // packed lower triangle of Σ w·z·zᵀ
	b       []float64 // Σ w·y·z
	sw, swy float64   // Σ w, Σ w·y

	sys, fac    []float64 // Solve's centred system and its factor
	rhs, solved []float64
}

// NewBinaryFit returns an empty fit over p columns.
func NewBinaryFit(p int) *BinaryFit {
	tri := p * (p + 1) / 2
	return &BinaryFit{
		g: make([]float64, tri), b: make([]float64, p),
		sys: make([]float64, tri), fac: make([]float64, tri), rhs: make([]float64, p), solved: make([]float64, p),
	}
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
// the same jitter retry) to the samples added, writing one coefficient
// per design column into coef. It returns the intercept.
//
//shahin:hotpath
func (f *BinaryFit) Solve(lambda float64, coef []float64) (float64, error) {
	if !(f.sw > 0) {
		return 0, weightSumError(f.sw)
	}
	// Centring is algebra on the sums: Σ w (z_j − z̄_j)(z_l − z̄_l) =
	// G_jl − s_j·s_l/W and Σ w (z_j − z̄_j)(y − ȳ) = b_j − s_j·ȳ.
	ybar := f.swy / f.sw
	sys := Sym{n: len(f.b), data: f.sys}
	for j := range f.b {
		sj := f.colSum(j)
		f.rhs[j] = f.b[j] - sj*ybar
		row := sys.row(j)
		for l := range j + 1 {
			row[l] = f.g[j*(j+1)/2+l] - sj*f.colSum(l)/f.sw
		}
		row[j] += lambda
	}
	if err := sys.solveJittered(f.rhs, f.fac, f.solved); err != nil {
		return 0, err
	}
	intercept := ybar
	for j, x := range f.solved {
		coef[j] = x
		intercept -= x * f.colSum(j) / f.sw
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
