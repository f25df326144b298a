package linmodel

import (
	"math"
	"math/rand"
	"testing"
)

// binaryDesign draws n samples over p 0/1 columns as ascending lists of
// the columns that are on (each with probability ⅓, LIME's regime), with
// targets in [-1, 1] and weights in (0, 1].
func binaryDesign(r *rand.Rand, n, p int) (design [][]int, y, w []float64) {
	for i := 0; i < n; i++ {
		var on []int
		for j := 0; j < p; j++ {
			if r.Intn(3) == 0 {
				on = append(on, j)
			}
		}
		design = append(design, on)
		y = append(y, 2*r.Float64()-1)
		w = append(w, 1-r.Float64())
	}
	return design, y, w
}

// agreesWithRidge is the oracle: the accumulator's fit against Ridge on
// the materialised matrix, coefficient by coefficient and intercept, to
// 1e-9. A failed fit must fail on both sides with the same text.
func agreesWithRidge(t *testing.T, design [][]int, p int, y, w []float64, lambda float64) {
	t.Helper()
	fit := NewBinaryFit(p)
	for i, on := range design {
		fit.Add(on, y[i], w[i])
	}
	coef := make([]float64, p)
	for j := range coef {
		coef[j] = math.NaN() // Solve must overwrite every entry
	}
	intercept, err := fit.Solve(lambda, coef)

	X := make([][]float64, len(design))
	for i, on := range design {
		X[i] = make([]float64, p)
		for _, j := range on {
			X[i][j] = 1
		}
	}
	want, wantErr := Ridge(X, y, w, lambda)
	if err != nil || wantErr != nil {
		if err == nil || wantErr == nil || err.Error() != wantErr.Error() {
			t.Fatalf("BinaryFit error %v, Ridge error %v", err, wantErr)
		}
		return
	}
	if !almostEqual(intercept, want.Intercept, 1e-9) {
		t.Errorf("intercept %.15g, Ridge %.15g", intercept, want.Intercept)
	}
	for j := range coef {
		if !almostEqual(coef[j], want.Coef[j], 1e-9) {
			t.Errorf("column %d: coefficient %.15g, Ridge %.15g", j, coef[j], want.Coef[j])
		}
	}
}

// Property: on random 0/1 designs, weights and labels the one-pass fit
// is Ridge.
func TestBinaryFitMatchesRidge(t *testing.T) {
	for seed := int64(0); seed < 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		n, p := 1+r.Intn(300), 1+r.Intn(24)
		design, y, w := binaryDesign(r, n, p)
		lambda := 0.05 + 2*r.Float64()
		agreesWithRidge(t, design, p, y, w, lambda)
		if t.Failed() {
			t.Fatalf("seed %d (n=%d p=%d lambda=%g)", seed, n, p, lambda)
		}
	}
}

// A second fit on a Reset accumulator must not see the first one's sums.
func TestBinaryFitReset(t *testing.T) {
	const p = 9
	design, y, w := binaryDesign(rand.New(rand.NewSource(12)), 80, p)
	fit := NewBinaryFit(p)
	var first, second [p]float64
	for _, out := range [][]float64{first[:], second[:]} {
		fit.Reset()
		for i, on := range design {
			fit.Add(on, y[i], w[i])
		}
		if _, err := fit.Solve(1, out); err != nil {
			t.Fatal(err)
		}
		fit.Add([]int{0, 3, 8}, 1, 0.5) // what the Reset must erase
	}
	if first != second {
		t.Fatalf("same samples after Reset fit differently:\n%v\n%v", first, second)
	}
}

// The degenerate designs LIME can produce. A column on in every sample
// centres to zero and a column never on is zero to begin with: the
// penalty alone must carry both.
func TestBinaryFitEdges(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	design, y, w := binaryDesign(r, 60, 6)
	for i := range design {
		kept := []int{0} // column 0 always on
		for _, j := range design[i] {
			if j != 0 && j != 4 { // column 4 never on
				kept = append(kept, j)
			}
		}
		design[i] = kept
	}
	t.Run("constant columns", func(t *testing.T) {
		agreesWithRidge(t, design, 6, y, w, 1)
	})
	t.Run("one column", func(t *testing.T) {
		one, y, w := binaryDesign(r, 30, 1)
		agreesWithRidge(t, one, 1, y, w, 0.5)
	})
	t.Run("one sample", func(t *testing.T) {
		agreesWithRidge(t, [][]int{{1, 2}}, 4, []float64{0.7}, []float64{0.3}, 1)
	})
	t.Run("no weight", func(t *testing.T) {
		agreesWithRidge(t, design, 6, y, make([]float64, len(y)), 1)
		_, err := NewBinaryFit(3).Solve(1, make([]float64, 3))
		if err == nil || err.Error() != "linmodel: weights sum to 0" {
			t.Fatalf("empty fit: error %v, want the weight-sum error", err)
		}
	})
}

// FuzzBinaryFit decodes a design from raw bytes — p columns, then per
// sample a target byte, a weight byte (zero allowed, so is a total of
// zero) and ⌈p/8⌉ mask bytes — and holds the fit to the same oracle. The
// penalty stays positive: at λ = 0 a constant column is an exact zero in
// Ridge and rounding noise here, and only the jitter separates them.
func FuzzBinaryFit(f *testing.F) {
	f.Add(uint8(3), uint8(64), []byte{200, 255, 0b101, 10, 128, 0b010, 90, 3, 0b111})
	f.Add(uint8(12), uint8(1), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12})
	f.Add(uint8(1), uint8(255), []byte{0, 0, 1})
	f.Fuzz(func(t *testing.T, p8, lambda8 uint8, data []byte) {
		p := 1 + int(p8%16)
		lambda := (1 + float64(lambda8)) / 64
		stride := 2 + (p+7)/8
		var design [][]int
		var y, w []float64
		for ; len(data) >= stride && len(design) < 400; data = data[stride:] {
			var on []int
			for j := 0; j < p; j++ {
				if data[2+j/8]>>(j%8)&1 == 1 {
					on = append(on, j)
				}
			}
			design = append(design, on)
			y = append(y, float64(data[0])/255)
			w = append(w, float64(data[1])/255)
		}
		if len(design) == 0 {
			return
		}
		agreesWithRidge(t, design, p, y, w, lambda)
	})
}
