package dataset

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// testSchema returns a small mixed schema used across the package tests.
func testSchema() *Schema {
	return &Schema{
		Attrs: []Attr{
			{Name: "color", Kind: Categorical, Values: []string{"red", "green", "blue"}},
			{Name: "size", Kind: Numeric},
			{Name: "shape", Kind: Categorical, Values: []string{"circle", "square"}},
		},
		Classes: []string{"neg", "pos"},
	}
}

// testData builds a deterministic labelled dataset on testSchema.
func testData(n int, seed int64) *Dataset {
	rng := rand.New(rand.NewSource(seed))
	s := testSchema()
	d := New(s, n)
	for i := 0; i < n; i++ {
		color := float64(rng.Intn(3))
		size := rng.NormFloat64()*2 + 10
		shape := float64(rng.Intn(2))
		label := 0
		if color == 1 && size > 10 {
			label = 1
		}
		d.AppendRow([]float64{color, size, shape}, label)
	}
	return d
}

func TestSchemaValidate(t *testing.T) {
	if err := testSchema().Validate(); err != nil {
		t.Fatalf("valid schema rejected: %v", err)
	}
	cases := map[string]*Schema{
		"no attrs":    {Classes: []string{"a", "b"}},
		"one class":   {Attrs: []Attr{{Name: "x", Kind: Numeric}}, Classes: []string{"a"}},
		"empty name":  {Attrs: []Attr{{Kind: Numeric}}, Classes: []string{"a", "b"}},
		"dup name":    {Attrs: []Attr{{Name: "x", Kind: Numeric}, {Name: "x", Kind: Numeric}}, Classes: []string{"a", "b"}},
		"cat no vals": {Attrs: []Attr{{Name: "x", Kind: Categorical}}, Classes: []string{"a", "b"}},
		"num w/ vals": {Attrs: []Attr{{Name: "x", Kind: Numeric, Values: []string{"v"}}}, Classes: []string{"a", "b"}},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("schema %q should be invalid", name)
		}
	}
}

func TestSchemaIndexHelpers(t *testing.T) {
	s := testSchema()
	if got := s.CategoricalIdx(); len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("CategoricalIdx=%v", got)
	}
	if got := s.NumericIdx(); len(got) != 1 || got[0] != 1 {
		t.Fatalf("NumericIdx=%v", got)
	}
	if got := s.MaxCardinality(); got != 3 {
		t.Fatalf("MaxCardinality=%d want 3", got)
	}
}

func TestAppendRowAndAccess(t *testing.T) {
	d := testData(50, 1)
	if d.NumRows() != 50 || d.NumAttrs() != 3 {
		t.Fatalf("NumRows=%d NumAttrs=%d", d.NumRows(), d.NumAttrs())
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	row := d.Row(7, nil)
	for a := 0; a < 3; a++ {
		if row[a] != d.Cols[a][7] {
			t.Fatalf("Row mismatch at attr %d", a)
		}
	}
	rows := d.Rows(5, 10)
	if len(rows) != 5 {
		t.Fatalf("Rows len=%d", len(rows))
	}
	for a := 0; a < 3; a++ {
		if rows[2][a] != d.Cols[a][7] {
			t.Fatalf("Rows mismatch at attr %d", a)
		}
	}
}

func TestAppendRowWrongArity(t *testing.T) {
	d := New(testSchema(), 0)
	defer func() {
		if recover() == nil {
			t.Fatal("AppendRow with wrong arity did not panic")
		}
	}()
	d.AppendRow([]float64{1, 2}, 0)
}

func TestSubsetAndSplit(t *testing.T) {
	d := testData(90, 2)
	sub := d.Subset([]int{3, 1, 4})
	if sub.NumRows() != 3 {
		t.Fatalf("Subset rows=%d", sub.NumRows())
	}
	if sub.Cols[1][0] != d.Cols[1][3] || sub.Labels[1] != d.Labels[1] {
		t.Fatal("Subset copied wrong rows")
	}

	rng := rand.New(rand.NewSource(3))
	train, test := d.Split(1.0/3, rng)
	if train.NumRows()+test.NumRows() != 90 {
		t.Fatalf("Split sizes %d + %d != 90", train.NumRows(), test.NumRows())
	}
	if train.NumRows() != 30 {
		t.Fatalf("train rows=%d want 30", train.NumRows())
	}
	if err := train.Validate(); err != nil {
		t.Fatalf("train invalid: %v", err)
	}
}

func TestSplitBadFraction(t *testing.T) {
	d := testData(10, 4)
	for _, f := range []float64{0, 1, -0.5, 2} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Split(%g) did not panic", f)
				}
			}()
			d.Split(f, rand.New(rand.NewSource(1)))
		}()
	}
}

func TestValidateCatchesBadCells(t *testing.T) {
	d := testData(5, 5)
	d.Cols[0][2] = 7 // category out of range
	if err := d.Validate(); err == nil {
		t.Fatal("Validate missed out-of-range category")
	}
	d = testData(5, 5)
	d.Cols[0][2] = 0.5 // non-integral category
	if err := d.Validate(); err == nil {
		t.Fatal("Validate missed non-integral category")
	}
	d = testData(5, 5)
	d.Labels[0] = 9
	if err := d.Validate(); err == nil {
		t.Fatal("Validate missed out-of-range label")
	}
}

func TestComputeStatsCategorical(t *testing.T) {
	d := testData(2000, 6)
	st, err := Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	// Frequencies sum to 1 per attribute and roughly match the uniform
	// generator for the categorical columns.
	for a := range d.Cols {
		sum := 0.0
		for _, f := range st.Freq[a] {
			sum += f
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("attr %d freq sums to %g", a, sum)
		}
	}
	for v := 0; v < 3; v++ {
		if math.Abs(st.Freq[0][v]-1.0/3) > 0.05 {
			t.Errorf("color freq[%d]=%.3f want ~0.333", v, st.Freq[0][v])
		}
	}
}

func TestComputeStatsNumeric(t *testing.T) {
	d := testData(4000, 7)
	st, err := Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(st.Mean[1]-10) > 0.2 {
		t.Errorf("mean=%.3f want ~10", st.Mean[1])
	}
	if math.Abs(st.Std[1]-2) > 0.2 {
		t.Errorf("std=%.3f want ~2", st.Std[1])
	}
	if nb := st.NumBins(1); nb != 4 {
		t.Errorf("numeric bins=%d want 4 (quartiles)", nb)
	}
	// Quartile bins should each hold ~25% of the data.
	for b := 0; b < st.NumBins(1); b++ {
		if math.Abs(st.Freq[1][b]-0.25) > 0.03 {
			t.Errorf("bin %d freq=%.3f want ~0.25", b, st.Freq[1][b])
		}
	}
	// Edges ascend and lie within [Lo, Hi].
	edges := st.Edges[1]
	for i := 1; i < len(edges); i++ {
		if edges[i] <= edges[i-1] {
			t.Fatalf("edges not ascending: %v", edges)
		}
	}
	if len(edges) > 0 && (edges[0] < st.Lo[1] || edges[len(edges)-1] > st.Hi[1]) {
		t.Fatalf("edges %v outside [%g, %g]", edges, st.Lo[1], st.Hi[1])
	}
}

func TestConstantNumericColumn(t *testing.T) {
	s := &Schema{
		Attrs:   []Attr{{Name: "x", Kind: Numeric}},
		Classes: []string{"a", "b"},
	}
	d := New(s, 10)
	for i := 0; i < 10; i++ {
		d.AppendRow([]float64{5}, 0)
	}
	st, err := Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	if st.NumBins(0) != 1 {
		t.Fatalf("constant column bins=%d want 1", st.NumBins(0))
	}
	if st.Bin(0, 5) != 0 {
		t.Fatal("constant column value not in bin 0")
	}
	if bin := st.FillPlan().Bins[0]; bin.Lo != 5 || bin.Width != 0 {
		t.Fatalf("constant column's bin draws from %g + f·%g, want 5 and nothing drawn", bin.Lo, bin.Width)
	}
}

func TestBinRoundTrip(t *testing.T) {
	d := testData(3000, 8)
	st, err := Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	plan := st.FillPlan()
	// Any value drawn inside a bin of the fill plan must discretise back
	// to that bin.
	for a := 0; a < d.NumAttrs(); a++ {
		at := plan.Attrs[a]
		if int(at.K) != st.NumBins(a) {
			t.Fatalf("attr %d: plan has %d bins, Stats %d", a, at.K, st.NumBins(a))
		}
		for b := 0; b < st.NumBins(a); b++ {
			bin := plan.Bins[int(at.Off)+b]
			for trial := 0; trial < 20; trial++ {
				v := float64(b)
				if at.Numeric {
					v = bin.Lo + rng.Float64()*bin.Width
					if !(v > bin.Below && v <= bin.Above) {
						t.Fatalf("attr %d bin %d: %g outside (%g, %g]", a, b, v, bin.Below, bin.Above)
					}
				}
				if got := st.Bin(a, v); got != b {
					t.Fatalf("attr %d: value %g drawn in bin %d -> Bin %d", a, v, b, got)
				}
			}
		}
	}
}

func TestSampleValueMatchesDistribution(t *testing.T) {
	d := testData(3000, 10)
	st, err := Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	const n = 60000
	counts := make([]int, st.NumBins(0))
	// The alias columns of the fill plan, drawn as perturb draws them.
	at, bins := st.FillPlan().Attrs[0], st.FillPlan().Bins
	for i := 0; i < n; i++ {
		b := rng.Intn(int(at.K))
		if col := bins[int(at.Off)+b]; rng.Float64() >= col.Keep {
			b = int(col.Alias)
		}
		counts[b]++
	}
	for v := range counts {
		got := float64(counts[v]) / n
		if math.Abs(got-st.Freq[0][v]) > 0.02 {
			t.Errorf("sampled freq[%d]=%.3f want %.3f", v, got, st.Freq[0][v])
		}
	}
}

func TestComputeEmpty(t *testing.T) {
	if _, err := Compute(New(testSchema(), 0)); err == nil {
		t.Fatal("Compute on empty dataset should fail")
	}
}

func TestCSVRoundTrip(t *testing.T) {
	d := testData(37, 12)
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCSV(&buf, d.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != d.NumRows() {
		t.Fatalf("round trip rows=%d want %d", got.NumRows(), d.NumRows())
	}
	for a := range d.Cols {
		for i := range d.Cols[a] {
			if math.Abs(got.Cols[a][i]-d.Cols[a][i]) > 1e-12 {
				t.Fatalf("cell (%d,%d) = %g want %g", i, a, got.Cols[a][i], d.Cols[a][i])
			}
		}
	}
	for i := range d.Labels {
		if got.Labels[i] != d.Labels[i] {
			t.Fatalf("label %d = %d want %d", i, got.Labels[i], d.Labels[i])
		}
	}
}

func TestCSVUnlabelled(t *testing.T) {
	d := testData(5, 13)
	d.Labels = nil
	var buf bytes.Buffer
	if err := WriteCSV(&buf, d); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(strings.SplitN(buf.String(), "\n", 2)[0], "class") {
		t.Fatal("unlabelled CSV has class column")
	}
	got, err := ReadCSV(&buf, d.Schema)
	if err != nil {
		t.Fatal(err)
	}
	if got.Labels != nil {
		t.Fatal("unlabelled round trip produced labels")
	}
}

func TestCSVErrors(t *testing.T) {
	s := testSchema()
	cases := map[string]string{
		"bad header":    "x,y,z\nred,1,circle\n",
		"unknown value": "color,size,shape\npurple,1,circle\n",
		"bad number":    "color,size,shape\nred,abc,circle\n",
		"unknown class": "color,size,shape,class\nred,1,circle,maybe\n",
	}
	for name, data := range cases {
		if _, err := ReadCSV(strings.NewReader(data), s); err == nil {
			t.Errorf("ReadCSV(%s) expected error", name)
		}
	}
}
