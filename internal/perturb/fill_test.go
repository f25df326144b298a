package perturb

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/sample"
)

// reference is the fill as it stood before the compiled plan: a bin from
// sample.(*Alias).Draw, a value from rng.Float64 inside the bin's edges,
// the items from Stats.ItemizeRow afterwards. The plan's loop must
// reproduce its rows, its items and its random stream exactly.
type reference struct {
	st     *dataset.Stats
	alias  []*sample.Alias
	rng    *rand.Rand
	frozen int // draws into a frozen numeric bin whose value itemised to another bin
}

func newReference(st *dataset.Stats, rng *rand.Rand) *reference {
	r := &reference{st: st, rng: rng}
	for _, freq := range st.Freq {
		r.alias = append(r.alias, sample.MustAlias(freq))
	}
	return r
}

// valueInBin is the parent's Stats.ValueInBin.
func (r *reference) valueInBin(a, bin int) float64 {
	if r.st.Schema.Attrs[a].Kind == dataset.Categorical {
		return float64(bin)
	}
	edges := r.st.Edges[a]
	lo, hi := r.st.Lo[a], r.st.Hi[a]
	if bin > 0 {
		lo = edges[bin-1]
	}
	if bin < len(edges) {
		hi = edges[bin]
	}
	if hi <= lo {
		return lo
	}
	return lo + r.rng.Float64()*(hi-lo)
}

// sampleValue is the parent's Stats.SampleValue.
func (r *reference) sampleValue(a int) float64 {
	return r.valueInBin(a, r.alias[a].Draw(r.rng))
}

// fillItemset is the parent's Generator.FillItemset.
func (r *reference) fillItemset(frozen dataset.Itemset, row []float64) {
	fi := 0
	for a := range row {
		if fi < len(frozen) && frozen[fi].Attr() == a {
			row[a] = r.valueInBin(a, frozen[fi].Bin())
			if r.st.Bin(a, row[a]) != frozen[fi].Bin() {
				r.frozen++
			}
			fi++
			continue
		}
		row[a] = r.sampleValue(a)
	}
}

// forTuple is the parent's Generator.ForTuple.
func (r *reference) forTuple(t []float64, freeze []bool, row []float64) {
	for a := range t {
		if freeze[a] {
			row[a] = t[a]
		} else {
			row[a] = r.sampleValue(a)
		}
	}
}

// edgeSource turns half the draws of a seeded source into the two ends
// of Int63's range: 0 lands a value on its bin's lower edge (the guard's
// case), 1<<63-1 is rejected by Int31n for every K that is not a power
// of two and rounds Float64 to 1, which redraws.
type edgeSource struct{ rand.Source }

func (s edgeSource) Int63() int64 {
	switch v := s.Source.Int63(); v >> 60 & 3 {
	case 0:
		return 0
	case 1:
		return 1<<63 - 1
	default:
		return v
	}
}

// assertFillMatches draws n perturbations of each kind — FillItemset
// (with and without items) and ForItemset over itemsets of 0–4 items of
// a tuple, ForTuple and FillTuple over random freeze masks, every Fill
// into cells the last draw left dirty — from the generator and from the
// reference, on two copies of the same source, and demands the same bits
// in every cell, the bins (Fill) or items (For) ItemizeRow makes of the
// row, and both streams
// standing at the same draw after every sample. It returns how often a
// frozen numeric bin's value itemised elsewhere, the case the guard
// exists for.
func assertFillMatches(t testing.TB, st *dataset.Stats, tuples [][]float64, source func() rand.Source, n int) int {
	t.Helper()
	g := NewGenerator(st, rand.New(source()))
	ref := newReference(st, rand.New(source()))
	pick := rand.New(rand.NewSource(int64(n)))
	p := st.NumAttrs()
	row, want := make([]float64, p), make([]float64, p)
	bins := make([]uint16, p)
	freeze := make([]bool, p)

	same := func(what string, i int, got []float64, bins []uint16, items []dataset.Item) {
		t.Helper()
		for a := range want {
			if math.Float64bits(got[a]) != math.Float64bits(want[a]) {
				t.Fatalf("%s %d: attribute %d is %v, reference drew %v", what, i, a, got[a], want[a])
			}
		}
		for a, it := range st.ItemizeRow(got, nil) {
			if bins != nil && int(bins[a]) != it.Bin() {
				t.Fatalf("%s %d: attribute %d (value %v) carries bin %d, ItemizeRow says %v", what, i, a, got[a], bins[a], it)
			}
			if items != nil && items[a] != it {
				t.Fatalf("%s %d: attribute %d (value %v) carries item %v, ItemizeRow says %v", what, i, a, got[a], items[a], it)
			}
		}
		if g.rng.Int63() != ref.rng.Int63() {
			t.Fatalf("%s %d: the stream stands at a different draw than the reference's", what, i)
		}
	}
	for i := 0; i < n; i++ {
		tuple := tuples[pick.Intn(len(tuples))]
		tItems := st.ItemizeRow(tuple, nil)
		var frozen dataset.Itemset
		for a := 0; a < p && len(frozen) < i%(dataset.MaxItemsetLen+1); a++ {
			if pick.Intn(p) < 2*dataset.MaxItemsetLen {
				frozen = append(frozen, tItems[a])
			}
		}
		ref.fillItemset(frozen, want)
		g.FillItemset(frozen, row, bins)
		same(fmt.Sprintf("FillItemset(%v)", frozen), i, row, bins, nil)

		ref.fillItemset(frozen, want)
		g.FillItemset(frozen, row, nil)
		same(fmt.Sprintf("FillItemset(%v, row only)", frozen), i, row, nil, nil)

		ref.fillItemset(frozen, want)
		s := g.ForItemset(frozen)
		same(fmt.Sprintf("ForItemset(%v)", frozen), i, s.Row, nil, s.Items)
		if s.Label != -1 {
			t.Fatalf("ForItemset %d: fresh sample labelled %d", i, s.Label)
		}

		for a := range freeze {
			freeze[a] = pick.Intn(3) == 0
		}
		ref.forTuple(tuple, freeze, want)
		s = g.ForTuple(tuple, freeze)
		same(fmt.Sprintf("ForTuple(%v)", freeze), i, s.Row, nil, s.Items)

		for a := range freeze {
			freeze[a] = pick.Intn(3) == 0
		}
		ref.forTuple(tuple, freeze, want)
		g.FillTuple(tuple, freeze, row, bins)
		same(fmt.Sprintf("FillTuple(%v)", freeze), i, row, bins, nil)
	}
	return ref.frozen
}

// oddColumns is a dataset of the shapes the twins lack: a constant
// numeric column (one bin, nothing to draw), numeric columns with one
// and two edges, one whose top quartile edge is its maximum, and
// categorical columns of one value and of cardinalities that are not
// powers of two.
func oddColumns(t testing.TB) (*dataset.Stats, [][]float64) {
	t.Helper()
	values := func(k int) []string {
		out := make([]string, k)
		for i := range out {
			out[i] = fmt.Sprint(i)
		}
		return out
	}
	s := &dataset.Schema{Classes: []string{"n", "y"}, Attrs: []dataset.Attr{
		{Name: "const", Kind: dataset.Numeric},
		{Name: "one", Kind: dataset.Categorical, Values: values(1)},
		{Name: "two-valued", Kind: dataset.Numeric},
		{Name: "three", Kind: dataset.Categorical, Values: values(3)},
		{Name: "skewed", Kind: dataset.Numeric},
		{Name: "seven", Kind: dataset.Categorical, Values: values(7)},
		{Name: "smooth", Kind: dataset.Numeric},
		{Name: "thirteen", Kind: dataset.Categorical, Values: values(13)},
	}}
	rng := rand.New(rand.NewSource(71))
	d := dataset.New(s, 400)
	for i := 0; i < 400; i++ {
		skewed := 0.0
		if i%10 == 0 {
			skewed = float64(1 + i%3)
		}
		d.AppendRow([]float64{
			5, 0, float64(i % 2), float64(rng.Intn(3)), skewed,
			float64(rng.Intn(7) * rng.Intn(2)), rng.NormFloat64(), float64(rng.Intn(13)),
		}, i%2)
	}
	st, err := dataset.Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Edges[0]) != 0 || len(st.Edges[2]) >= 3 || len(st.Edges[4]) >= 3 || len(st.Edges[6]) != 3 {
		t.Fatalf("odd columns have edges %v, %v, %v, %v", st.Edges[0], st.Edges[2], st.Edges[4], st.Edges[6])
	}
	return st, d.Rows(0, 50)
}

// TestFillPlanMatchesReference: equality, not tolerance, on the five
// twins — lending's 837-way attribute and every other cardinality that
// is not a power of two among them — and on the odd columns.
func TestFillPlanMatchesReference(t *testing.T) {
	seeded := func() rand.Source { return rand.NewSource(73) }
	for _, name := range datagen.Names() {
		cfg, err := datagen.Spec(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := cfg.Generate(1500, 72)
		if err != nil {
			t.Fatal(err)
		}
		st, err := dataset.Compute(d)
		if err != nil {
			t.Fatal(err)
		}
		assertFillMatches(t, st, d.Rows(0, 100), seeded, 10000)
	}
	st, tuples := oddColumns(t)
	assertFillMatches(t, st, tuples, seeded, 10000)

	// The guard: with every fourth draw a 0, frozen numeric bins above
	// the lowest receive their lower edge, which is the bin below's.
	edges := func() rand.Source { return edgeSource{rand.NewSource(74)} }
	if onEdge := assertFillMatches(t, st, tuples, edges, 10000); onEdge == 0 {
		t.Fatal("no frozen bin's value fell on its lower edge: the guard was never driven")
	}
}

// TestFillFrozenBinOutOfRange: a frozen item naming a bin its numeric
// attribute does not have panics, as indexing the attribute's edges
// did, rather than draw from the next attribute's bins.
func TestFillFrozenBinOutOfRange(t *testing.T) {
	st, _ := oddColumns(t)
	g := NewGenerator(st, rand.New(rand.NewSource(75)))
	row := make([]float64, st.NumAttrs())
	for _, a := range []int{0, 2, 6} {
		for _, bin := range []int{st.NumBins(a), st.NumBins(a) + 5, 1<<16 - 1} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("attribute %d has %d bins, freezing bin %d did not panic", a, st.NumBins(a), bin)
					}
				}()
				g.FillItemset(dataset.Itemset{dataset.MakeItem(a, bin)}, row, nil)
			}()
		}
	}
}

// FuzzFillPlan builds the training distribution from the input — the
// weights of a categorical attribute and the values, hence the edges,
// of a numeric one — and holds the plan's loop to the reference on it,
// over a plain and an edge-heavy stream from the fuzzed seed.
func FuzzFillPlan(f *testing.F) {
	f.Add([]byte{3, 1, 1, 1}, []byte{1, 2, 3, 4, 5, 6, 7, 8}, int64(1))
	f.Add([]byte{7, 200, 1, 0, 0, 9, 3, 50}, []byte{5, 5, 5, 5}, int64(2))
	f.Add([]byte{255}, []byte{0, 255, 0, 255, 1}, int64(3))
	f.Add([]byte{13, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13}, []byte{9, 9, 9, 1}, int64(4))
	f.Fuzz(func(t *testing.T, weights, values []byte, seed int64) {
		if len(weights) == 0 || len(values) == 0 {
			return
		}
		// weights[0] picks the cardinality, the bytes after it how often
		// each category occurs (a category may not occur at all).
		k := 1 + int(weights[0])%40
		s := &dataset.Schema{Classes: []string{"n", "y"}, Attrs: []dataset.Attr{
			{Name: "c", Kind: dataset.Categorical, Values: make([]string, k)},
			{Name: "x", Kind: dataset.Numeric},
		}}
		d := dataset.New(s, 0)
		for c := 0; c < k; c++ {
			count := int(weights[(1+c)%len(weights)]) % 8
			if c == 0 {
				count++ // never an empty dataset
			}
			for ; count > 0; count-- {
				x := values[d.NumRows()%len(values)]
				d.AppendRow([]float64{float64(c), float64(x%16) / 4}, 0)
			}
		}
		st, err := dataset.Compute(d)
		if err != nil {
			t.Fatal(err)
		}
		tuples := d.Rows(0, d.NumRows())
		assertFillMatches(t, st, tuples, func() rand.Source { return rand.NewSource(seed) }, 50)
		assertFillMatches(t, st, tuples, func() rand.Source { return edgeSource{rand.NewSource(seed)} }, 50)
	})
}
