package shap

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"shahin/internal/dataset"
	"shahin/internal/linmodel"
	"shahin/internal/perturb"
	"shahin/internal/rf"
	"shahin/internal/sample"
)

// solveDense is the regression as the package computed it before the bit
// columns: one dense sweep over boolean masks, every product formed and
// added one sample at a time. It is the reference the fit must equal to
// the last bit.
func solveDense(masks [][]bool, ys []float64, phi0, fx, ridge float64) ([]float64, error) {
	m := len(masks[0])
	p := m - 1
	A := linmodel.NewSym(p)
	bvec := make([]float64, p)
	feat := make([]float64, p)
	for i, mask := range masks {
		zm := 0.0
		if mask[m-1] {
			zm = 1
		}
		for j := 0; j < p; j++ {
			zj := 0.0
			if mask[j] {
				zj = 1
			}
			feat[j] = zj - zm
		}
		target := ys[i] - phi0 - zm*(fx-phi0)
		for j := 0; j < p; j++ {
			if feat[j] == 0 {
				continue
			}
			bvec[j] += feat[j] * target
			for k := 0; k <= j; k++ {
				if feat[k] != 0 {
					A.Add(j, k, feat[j]*feat[k])
				}
			}
		}
	}
	scale := A.MaxDiag()
	if scale == 0 {
		scale = 1
	}
	for j := 0; j < p; j++ {
		A.Add(j, j, ridge*scale)
	}
	head, err := A.Solve(bvec)
	if err != nil {
		return nil, err
	}
	phi := make([]float64, m)
	copy(phi, head)
	last := fx - phi0
	for _, v := range head {
		last -= v
	}
	phi[m-1] = last
	return phi, nil
}

// equalsDense runs masks and 0/1 labels through f, as bins that agree
// with the tuple's exactly where the mask is set, and through solveDense:
// every φ must have the same bits, a failure the same text.
func equalsDense(t *testing.T, f *fit, masks [][]bool, ys []float64, phi0, ridge float64) {
	t.Helper()
	const fx = 1.0
	m := len(masks[0])
	tBins, bins := make([]uint16, m), make([]uint16, m)
	f.begin(phi0, fx)
	for i, mask := range masks {
		for a, agrees := range mask {
			bins[a] = 1
			if agrees {
				bins[a] = tBins[a]
			}
		}
		f.add(tBins, bins, ys[i] == 1)
	}
	got := make([]float64, m)
	err := f.solve(ridge, got)
	want, wantErr := solveDense(masks, ys, phi0, fx, ridge)
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("fit error %v, dense error %v", err, wantErr)
		}
		return
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("φ[%d] = %v (%#x), dense sweep %v (%#x)", j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// randomMasks draws n samples over m features, feature a agreeing with
// probability density[a], and 0/1 labels.
func randomMasks(r *rand.Rand, n, m int, density func(a int) float64) ([][]bool, []float64) {
	masks, ys := make([][]bool, n), make([]float64, n)
	for i := range masks {
		masks[i] = make([]bool, m)
		for a := range masks[i] {
			masks[i][a] = r.Float64() < density(a)
		}
		ys[i] = float64(r.Intn(2))
	}
	return masks, ys
}

// The fit is the dense sweep, bit for bit: at sample counts on both sides
// of a word boundary, at widths from the narrowest to past one word of
// features, and on the degenerate columns an explanation can meet. One
// fit per width serves every case in turn, largest sample count first, so
// a bit the previous case left behind would show.
func TestSolveMatchesDenseReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, m := range []int{2, 3, 13, 54, 70} {
		f := newFit(m, 1024)
		for _, n := range []int{1024, 1000, 65, 64, 63, 1} {
			for _, tc := range []struct {
				name    string
				density func(a int) float64
				ridge   float64
			}{
				{"coin flips", func(int) float64 { return 0.5 }, ridge},
				{"sparse", func(int) float64 { return 0.1 }, ridge},
				{"first feature always agrees", func(a int) float64 { return max(0.4, float64(1-a)) }, ridge},
				{"first feature never agrees", func(a int) float64 { return min(0.4, float64(a)) }, ridge},
				{"last feature always agrees", func(a int) float64 { return max(0.3, float64(a-m+2)) }, ridge},
				{"last feature never agrees", func(a int) float64 { return min(0.3, float64(m-1-a)) }, ridge},
				{"every feature always agrees", func(int) float64 { return 1 }, ridge},
				{"no stabiliser", func(int) float64 { return 0.5 }, 0},
				// Feature 0 never differs from the eliminated one and
				// nothing stabilises its zero diagonal.
				{"singular", func(a int) float64 { return min(0.5, float64(m-1-a)*float64(a)) }, 0},
			} {
				masks, ys := randomMasks(r, n, m, tc.density)
				t.Run(fmt.Sprintf("m=%d/n=%d/%s", m, n, tc.name), func(t *testing.T) {
					equalsDense(t, f, masks, ys, 0.25+r.Float64()/2, tc.ridge)
				})
			}
		}
	}
	// The singular case must be one: both sides refuse it alike.
	masks, ys := randomMasks(r, 64, 5, func(a int) float64 { return min(0.5, float64(4-a)*float64(a)) })
	if _, err := solveDense(masks, ys, 0.3, 1, 0); err == nil {
		t.Fatal("the singular fixture solved")
	}
}

// FuzzSolveConstrained decodes masks from raw bytes — per sample a label
// byte and ⌈m/8⌉ mask bytes — and holds the fit to the dense sweep, with
// and without the stabiliser.
func FuzzSolveConstrained(f *testing.F) {
	f.Add(uint8(2), uint8(77), true, []byte{1, 0b01, 0, 0b10, 1, 0b11, 0, 0b00})
	f.Add(uint8(9), uint8(0), false, []byte{1, 0xff, 0x01, 0, 0x0f, 0x00, 1, 0xaa, 0x01})
	f.Add(uint8(70), uint8(255), true, []byte{1, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, m8, phi8 uint8, stabilised bool, data []byte) {
		const capacity = 200
		m := 2 + int(m8)%72
		stride := 1 + (m+7)/8
		var masks [][]bool
		var ys []float64
		for ; len(data) >= stride && len(masks) < capacity; data = data[stride:] {
			mask := make([]bool, m)
			for a := range mask {
				mask[a] = data[1+a/8]>>(a%8)&1 == 1
			}
			masks = append(masks, mask)
			ys = append(ys, float64(data[0]&1))
		}
		if len(masks) == 0 {
			return
		}
		ridge := 0.0
		if stabilised {
			ridge = 1e-6
		}
		equalsDense(t, newFit(m, capacity), masks, ys, float64(phi8)/255, ridge)
	})
}

// The coalition draw is sample.UniformIndices without its map and its
// result: the same indices in the same order, the generator left where
// UniformIndices leaves it, and the permutation restored for the next
// draw.
func TestCoalitionDrawMatchesUniformIndices(t *testing.T) {
	sizes := rand.New(rand.NewSource(3))
	for seed := int64(0); seed < 10000; seed++ {
		total := 2 + sizes.Intn(80)
		n := 1 + sizes.Intn(total-1)
		ours, theirs := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		perm, swaps := make([]int, total), make([]int, total)
		for i := range perm {
			perm[i] = i
		}
		for draw := 0; draw < 2; draw++ { // the second draw starts from the restored permutation
			pick(ours, perm, swaps, n)
			want := sample.UniformIndices(theirs, total, n)
			for i, v := range want {
				if perm[i] != v {
					t.Fatalf("seed %d total %d n %d draw %d: index %d is %d, UniformIndices %d", seed, total, n, draw, i, perm[i], v)
				}
			}
			unpick(perm, swaps, n)
			for i, v := range perm {
				if v != i {
					t.Fatalf("seed %d total %d n %d draw %d: perm[%d] = %d after the undo", seed, total, n, draw, i, v)
				}
			}
		}
		if a, b := ours.Int63(), theirs.Int63(); a != b {
			t.Fatalf("seed %d total %d n %d: next draw %d, after UniformIndices %d", seed, total, n, a, b)
		}
	}
}

// headPool serves the first serve samples of its stock to every tuple.
type headPool struct {
	stock []perturb.Pooled
	serve int
}

func (p *headPool) ForTuple(_ []dataset.Item, max int) []perturb.Pooled {
	return p.stock[:min(p.serve, max)]
}

func (p *headPool) ForItemset(dataset.Itemset, int) []perturb.Pooled { return nil }

// One Explainer explains tuple after tuple out of the same scratch: an
// explanation must not depend on what the one before it left there,
// whatever share of either came from a pool.
func TestExplainerReuseLeavesNothingBehind(t *testing.T) {
	st := env(t, 21)
	cls := rf.Func{Classes: 2, F: func(x []float64) int { return (int(x[0]) + int(x[2])) & 1 }}
	gen := perturb.NewGenerator(st, rand.New(rand.NewSource(22)))
	pool := &headPool{stock: make([]perturb.Pooled, 180)}
	for i := range pool.stock {
		s := gen.ForItemset(nil)
		s.Label = cls.Predict(s.Row)
		pool.stock[i] = s.Pooled()
	}
	rng := rand.New(rand.NewSource(23))
	e := New(st, cls, Config{NumSamples: 200, BaseSamples: 20}, rng)
	a, b := []float64{1, 0, 2, 0.5}, []float64{3, 2, 4, -1.1}
	for _, tup := range [][]float64{a, b} { // both classes' base rates, drawn once
		if _, err := e.Explain(tup); err != nil {
			t.Fatal(err)
		}
	}
	explain := func(tup []float64, pooled int) []float64 {
		rng.Seed(24)
		pool.serve = pooled
		att, err := e.ExplainWithPool(tup, pool)
		if err != nil {
			t.Fatal(err)
		}
		return att.Weights
	}
	first := explain(a, 10)
	explain(b, 170)
	third := explain(a, 10)
	for j := range first {
		if math.Float64bits(first[j]) != math.Float64bits(third[j]) {
			t.Fatalf("φ[%d] = %v, then %v after another tuple used the scratch", j, first[j], third[j])
		}
	}
}
