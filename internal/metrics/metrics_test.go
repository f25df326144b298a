package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestEuclidean(t *testing.T) {
	if got := Euclidean([]float64{0, 0}, []float64{3, 4}); got != 5 {
		t.Fatalf("Euclidean=%g want 5", got)
	}
	if got := Euclidean([]float64{1, 2, 3}, []float64{1, 2, 3}); got != 0 {
		t.Fatalf("identical vectors distance %g", got)
	}
}

func TestMaxAbsDev(t *testing.T) {
	if got := MaxAbsDev([]float64{1, 5, -2}, []float64{1.5, 4, -2}); got != 1 {
		t.Fatalf("MaxAbsDev=%g want 1", got)
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"Euclidean":  func() { Euclidean([]float64{1}, []float64{1, 2}) },
		"MaxAbsDev":  func() { MaxAbsDev([]float64{1}, []float64{1, 2}) },
		"KendallTau": func() { KendallTau([]float64{1}, []float64{1, 2}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic on length mismatch", name)
				}
			}()
			fn()
		}()
	}
}

func TestKendallTauExtremes(t *testing.T) {
	a := []float64{1, 2, 3, 4}
	if got := KendallTau(a, a); got != 1 {
		t.Fatalf("tau(a,a)=%g want 1", got)
	}
	rev := []float64{4, 3, 2, 1}
	if got := KendallTau(a, rev); got != -1 {
		t.Fatalf("tau(a,rev)=%g want -1", got)
	}
	// Constant vector has no ordering: tau 0.
	if got := KendallTau(a, []float64{7, 7, 7, 7}); got != 0 {
		t.Fatalf("tau(a,const)=%g want 0", got)
	}
	// Short vectors are trivially concordant.
	if got := KendallTau([]float64{1}, []float64{9}); got != 1 {
		t.Fatalf("tau singleton=%g want 1", got)
	}
}

func TestKendallTauKnownValue(t *testing.T) {
	// One discordant pair out of three: tau = (2-1)/3 = 1/3.
	a := []float64{1, 2, 3}
	b := []float64{1, 3, 2}
	if got := KendallTau(a, b); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("tau=%g want 1/3", got)
	}
}

func TestKendallTauTies(t *testing.T) {
	// a has a tie; tau-b must stay within [-1, 1] and be positive for a
	// mostly concordant pairing.
	a := []float64{1, 1, 2, 3}
	b := []float64{1, 2, 3, 4}
	got := KendallTau(a, b)
	if got <= 0 || got > 1 {
		t.Fatalf("tau with ties = %g", got)
	}
}

// Property: tau is symmetric, bounded, and invariant under strictly
// increasing transforms of either argument.
func TestQuickKendallTau(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 2 + r.Intn(10)
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		tau := KendallTau(a, b)
		if tau < -1-1e-12 || tau > 1+1e-12 {
			return false
		}
		if math.Abs(tau-KendallTau(b, a)) > 1e-12 {
			return false
		}
		// Monotone transform: x -> 2x + 1 preserves order exactly.
		a2 := make([]float64, n)
		for i := range a {
			a2[i] = 2*a[i] + 1
		}
		return math.Abs(tau-KendallTau(a2, b)) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestMeanKendallTau(t *testing.T) {
	as := [][]float64{{1, 2, 3}, {1, 2, 3}}
	bs := [][]float64{{1, 2, 3}, {3, 2, 1}}
	if got := MeanKendallTau(as, bs); got != 0 {
		t.Fatalf("mean tau=%g want 0 ((1 + -1)/2)", got)
	}
	if got := MeanKendallTau(nil, nil); got != 0 {
		t.Fatalf("empty mean tau=%g", got)
	}
}

func TestMeanKendallTauMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("row-count mismatch did not panic")
		}
	}()
	MeanKendallTau([][]float64{{1}}, nil)
}

func TestTopKOverlap(t *testing.T) {
	a := []float64{10, -9, 1, 0.5}
	b := []float64{8, -7, 0.2, 0.1}
	if got := TopKOverlap(a, b, 2); got != 1 {
		t.Fatalf("TopKOverlap=%g want 1", got)
	}
	c := []float64{0.1, 0.2, 9, 8}
	if got := TopKOverlap(a, c, 2); got != 0 {
		t.Fatalf("TopKOverlap disjoint=%g want 0", got)
	}
	// k larger than dimension clamps.
	if got := TopKOverlap(a, a, 10); got != 1 {
		t.Fatalf("TopKOverlap self with big k=%g want 1", got)
	}
	if got := TopKOverlap(a, c, 0); got != 1 {
		t.Fatalf("TopKOverlap k=0 should be vacuous 1, got %g", got)
	}
}
