package perturb

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"shahin/internal/datagen"
	"shahin/internal/dataset"
)

// env builds a small mixed dataset with stats and a generator.
func env(t *testing.T, seed int64) (*dataset.Dataset, *dataset.Stats, *Generator) {
	t.Helper()
	cfg := &datagen.Config{
		Name: "t",
		Cat:  []datagen.CatSpec{{Card: 4, Skew: 1}, {Card: 3, Skew: 0.5}},
		Num:  []datagen.NumSpec{{Mean: 5, Std: 2}},
	}
	d, err := cfg.Generate(2000, seed)
	if err != nil {
		t.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	return d, st, NewGenerator(st, rand.New(rand.NewSource(seed+1)))
}

func TestForItemsetFreezesBins(t *testing.T) {
	_, st, g := env(t, 1)
	frozen := dataset.Itemset{dataset.MakeItem(0, 2), dataset.MakeItem(2, 1)}
	for trial := 0; trial < 200; trial++ {
		s := g.ForItemset(frozen)
		if len(s.Row) != 3 || len(s.Items) != 3 {
			t.Fatalf("sample shape row=%d items=%d", len(s.Row), len(s.Items))
		}
		if s.Label != -1 {
			t.Fatal("fresh sample has a label")
		}
		if st.Bin(0, s.Row[0]) != 2 {
			t.Fatalf("attr 0 bin=%d want 2", st.Bin(0, s.Row[0]))
		}
		if st.Bin(2, s.Row[2]) != 1 {
			t.Fatalf("attr 2 bin=%d want 1", st.Bin(2, s.Row[2]))
		}
		if !frozen.ContainsAll(s.Items) {
			t.Fatal("the sample's items leave out its frozen itemset")
		}
	}
}

func TestForItemsetFillsFromDistribution(t *testing.T) {
	_, st, g := env(t, 2)
	frozen := dataset.Itemset{dataset.MakeItem(0, 0)}
	const n = 30000
	counts := make([]int, st.NumBins(1))
	for i := 0; i < n; i++ {
		s := g.ForItemset(frozen)
		counts[int(s.Row[1])]++
	}
	for b := range counts {
		got := float64(counts[b]) / n
		if math.Abs(got-st.Freq[1][b]) > 0.02 {
			t.Errorf("attr 1 bin %d sampled freq %.3f want %.3f", b, got, st.Freq[1][b])
		}
	}
}

func TestForItemsetEmptyFreeze(t *testing.T) {
	_, st, g := env(t, 3)
	s := g.ForItemset(nil)
	if len(s.Row) != st.Schema.NumAttrs() {
		t.Fatal("unfrozen sample has wrong arity")
	}
}

func TestForTupleFreezesExactValues(t *testing.T) {
	d, _, g := env(t, 4)
	tup := d.Row(0, nil)
	freeze := []bool{true, false, true}
	for trial := 0; trial < 100; trial++ {
		s := g.ForTuple(tup, freeze)
		if s.Row[0] != tup[0] || s.Row[2] != tup[2] {
			t.Fatal("frozen attributes changed")
		}
	}
	// The unfrozen attribute must actually vary.
	varied := false
	first := g.ForTuple(tup, freeze).Row[1]
	for trial := 0; trial < 50; trial++ {
		if g.ForTuple(tup, freeze).Row[1] != first {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("unfrozen attribute never varied")
	}
}

func TestBinaryEncode(t *testing.T) {
	_, st, g := env(t, 5)
	tup := []float64{2, 5.0, 1}
	tItems := st.ItemizeRow(tup, nil)
	s := g.ForTuple(tup, []bool{true, true, true})
	z := BinaryEncode(tItems, s.Items, nil)
	for a, v := range z {
		if v != 1 {
			t.Fatalf("fully frozen sample has z[%d]=%g", a, v)
		}
	}
	// Perturb everything: encoding entries must be exactly the bin
	// agreement indicator.
	for trial := 0; trial < 100; trial++ {
		s := g.ForItemset(nil)
		z = BinaryEncode(tItems, s.Items, z)
		for a := range z {
			want := 0.0
			if tItems[a] == s.Items[a] {
				want = 1
			}
			if z[a] != want {
				t.Fatalf("z[%d]=%g want %g", a, z[a], want)
			}
		}
	}
}

func TestBinaryEncodeReusesBuffer(t *testing.T) {
	a := []dataset.Item{dataset.MakeItem(0, 0)}
	b := []dataset.Item{dataset.MakeItem(0, 0)}
	buf := make([]float64, 4)
	out := BinaryEncode(a, b, buf)
	if &out[0] != &buf[0] {
		t.Fatal("BinaryEncode did not reuse buffer")
	}
}

func TestMatchesBins(t *testing.T) {
	bins := []uint16{1, 2}
	if !MatchesBins(dataset.Itemset{dataset.MakeItem(0, 1)}, bins) {
		t.Fatal("matching itemset rejected")
	}
	if MatchesBins(dataset.Itemset{dataset.MakeItem(0, 2)}, bins) {
		t.Fatal("mismatching itemset accepted")
	}
	if !MatchesBins(nil, bins) {
		t.Fatal("empty itemset must match everything")
	}
}

// TestSampleBytes: a pooled sample is charged its bins and a header of
// exactly the struct's size, so a byte budget counts what it holds.
func TestSampleBytes(t *testing.T) {
	s := Pooled{Bins: make([]uint16, 10)}
	want := int64(10*2) + int64(unsafe.Sizeof(s))
	if got := s.Bytes(); got != want || unsafe.Sizeof(s) != 32 {
		t.Fatalf("Bytes=%d want %d (header %d B)", got, want, unsafe.Sizeof(s))
	}
}

func TestGeneratorDeterministic(t *testing.T) {
	_, st, _ := env(t, 6)
	g1 := NewGenerator(st, rand.New(rand.NewSource(99)))
	g2 := NewGenerator(st, rand.New(rand.NewSource(99)))
	for trial := 0; trial < 50; trial++ {
		a := g1.ForItemset(nil)
		b := g2.ForItemset(nil)
		for i := range a.Row {
			if a.Row[i] != b.Row[i] {
				t.Fatal("same-seed generators diverge")
			}
		}
	}
}

func BenchmarkForItemset(b *testing.B) {
	cfg, err := datagen.Spec("census")
	if err != nil {
		b.Fatal(err)
	}
	d, err := cfg.Generate(5000, 7)
	if err != nil {
		b.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		b.Fatal(err)
	}
	g := NewGenerator(st, rand.New(rand.NewSource(8)))
	frozen := dataset.Itemset{dataset.MakeItem(0, 0), dataset.MakeItem(5, 1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSample = g.ForItemset(frozen)
	}
}

// Package-level sinks keep the compiler from eliding benchmark bodies.
var (
	benchSample Sample
	benchVec    []float64
	benchBool   bool
)

func benchEnv(b testing.TB) (*dataset.Dataset, *dataset.Stats, *Generator) {
	b.Helper()
	cfg, err := datagen.Spec("census")
	if err != nil {
		b.Fatal(err)
	}
	d, err := cfg.Generate(5000, 7)
	if err != nil {
		b.Fatal(err)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		b.Fatal(err)
	}
	return d, st, NewGenerator(st, rand.New(rand.NewSource(8)))
}

func BenchmarkForTuple(b *testing.B) {
	d, _, g := benchEnv(b)
	tup := d.Rows(0, 1)[0]
	freeze := make([]bool, len(tup))
	freeze[0], freeze[len(tup)/2] = true, true
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchSample = g.ForTuple(tup, freeze)
	}
}

func BenchmarkBinaryEncode(b *testing.B) {
	d, st, g := benchEnv(b)
	tItems := st.ItemizeRow(d.Rows(0, 1)[0], nil)
	s := g.ForItemset(nil)
	out := make([]float64, len(tItems))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchVec = BinaryEncode(tItems, s.Items, out[:0])
	}
}

func BenchmarkMatchesBins(b *testing.B) {
	d, st, g := benchEnv(b)
	tItems := st.ItemizeRow(d.Rows(0, 1)[0], nil)
	frozen := dataset.Itemset{tItems[0], tItems[len(tItems)/2]}
	bins := make([]uint16, len(tItems))
	g.FillItemset(frozen, make([]float64, len(tItems)), bins)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchBool = MatchesBins(frozen, bins)
	}
}
