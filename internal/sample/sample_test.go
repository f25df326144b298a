package sample

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAliasErrors(t *testing.T) {
	cases := map[string][]float64{
		"empty":    {},
		"negative": {1, -0.5, 2},
		"all-zero": {0, 0, 0},
	}
	for name, w := range cases {
		if _, err := NewAlias(w); err == nil {
			t.Errorf("NewAlias(%s) expected error", name)
		}
	}
}

func TestAliasSingleCategory(t *testing.T) {
	a := MustAlias([]float64{7})
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100; i++ {
		if a.Draw(rng) != 0 {
			t.Fatal("single-category alias drew non-zero")
		}
	}
	if a.Prob(0) != 1 {
		t.Fatalf("Prob(0)=%g want 1", a.Prob(0))
	}
}

func TestAliasZeroWeightNeverDrawn(t *testing.T) {
	a := MustAlias([]float64{1, 0, 3})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 10000; i++ {
		if a.Draw(rng) == 1 {
			t.Fatal("drew a zero-weight category")
		}
	}
}

// Empirical frequencies should converge to the normalised weights.
func TestAliasFrequencies(t *testing.T) {
	weights := []float64{1, 2, 3, 4}
	a := MustAlias(weights)
	rng := rand.New(rand.NewSource(3))
	const n = 200000
	counts := make([]int, len(weights))
	for i := 0; i < n; i++ {
		counts[a.Draw(rng)]++
	}
	for i, w := range weights {
		want := w / 10
		got := float64(counts[i]) / n
		if math.Abs(got-want) > 0.01 {
			t.Errorf("category %d: freq=%.4f want %.4f", i, got, want)
		}
		if math.Abs(a.Prob(i)-want) > 1e-12 {
			t.Errorf("Prob(%d)=%g want %g", i, a.Prob(i), want)
		}
	}
}

// Property: for any positive weight vector, probabilities sum to 1 and all
// draws are in range.
func TestQuickAliasValid(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		w := make([]float64, len(raw))
		any := false
		for i, r := range raw {
			w[i] = float64(r)
			if r > 0 {
				any = true
			}
		}
		if !any {
			w[0] = 1
		}
		a, err := NewAlias(w)
		if err != nil {
			return false
		}
		sum := 0.0
		for i := 0; i < a.K(); i++ {
			sum += a.Prob(i)
		}
		if math.Abs(sum-1) > 1e-9 {
			return false
		}
		for i := 0; i < 50; i++ {
			d := a.Draw(rng)
			if d < 0 || d >= a.K() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfErrors(t *testing.T) {
	if _, err := NewZipf(0, 1); err == nil {
		t.Error("NewZipf(0,1) expected error")
	}
	if _, err := NewZipf(5, -1); err == nil {
		t.Error("NewZipf(5,-1) expected error")
	}
}

func TestZipfSkew(t *testing.T) {
	z, err := NewZipf(10, 1.2)
	if err != nil {
		t.Fatal(err)
	}
	// Probabilities must be strictly decreasing in rank.
	for r := 1; r < z.K(); r++ {
		if z.Prob(r) >= z.Prob(r-1) {
			t.Fatalf("Zipf probs not decreasing at rank %d", r)
		}
	}
	// s=0 must be uniform.
	u, err := NewZipf(4, 0)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 4; r++ {
		if math.Abs(u.Prob(r)-0.25) > 1e-12 {
			t.Fatalf("Zipf(s=0) Prob(%d)=%g want 0.25", r, u.Prob(r))
		}
	}
}

func TestUniformIndicesDistinctAndInRange(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, tc := range []struct{ total, n int }{
		{100, 10}, {100, 100}, {100, 150}, {1, 1}, {5, 0},
	} {
		got := UniformIndices(rng, tc.total, tc.n)
		wantLen := tc.n
		if wantLen > tc.total {
			wantLen = tc.total
		}
		if len(got) != wantLen {
			t.Fatalf("total=%d n=%d: len=%d want %d", tc.total, tc.n, len(got), wantLen)
		}
		seen := map[int]bool{}
		for _, i := range got {
			if i < 0 || i >= tc.total {
				t.Fatalf("index %d out of range [0,%d)", i, tc.total)
			}
			if seen[i] {
				t.Fatalf("duplicate index %d", i)
			}
			seen[i] = true
		}
	}
}

// Each element should appear in the sample with probability n/total.
func TestUniformIndicesUnbiased(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const total, n, trials = 20, 5, 20000
	counts := make([]int, total)
	for trial := 0; trial < trials; trial++ {
		for _, i := range UniformIndices(rng, total, n) {
			counts[i]++
		}
	}
	want := float64(n) / total
	for i, c := range counts {
		got := float64(c) / trials
		if math.Abs(got-want) > 0.02 {
			t.Errorf("element %d: inclusion freq %.3f want %.3f", i, got, want)
		}
	}
}

func BenchmarkAliasDraw(b *testing.B) {
	w := make([]float64, 1000)
	for i := range w {
		w[i] = float64(i + 1)
	}
	a := MustAlias(w)
	rng := rand.New(rand.NewSource(9))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Draw(rng)
	}
}
