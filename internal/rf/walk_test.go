package rf

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"shahin/internal/dataset"
)

// referenceVotes is the walk Forest.Predict replaced: every tree walked
// by Tree.Predict, one vote each. The derived layout must reproduce it
// for every float64 row.
func referenceVotes(f *Forest, x []float64) []int {
	votes := make([]int, f.NClasses)
	for _, t := range f.Trees {
		votes[t.Predict(x)]++
	}
	return votes
}

// assertWalkMatches checks Predict and Prob against the reference walk.
func assertWalkMatches(t *testing.T, name string, f *Forest, x []float64) {
	t.Helper()
	votes := referenceVotes(f, x)
	want, wantN := 0, -1
	for c, v := range votes {
		if v > wantN {
			want, wantN = c, v
		}
	}
	if got := f.Predict(x); got != want {
		t.Fatalf("%s: Predict(%v) = %d, reference walk says %d (votes %v)", name, x, got, want, votes)
	}
	for c, p := range f.Prob(x) {
		if p != float64(votes[c])/float64(len(f.Trees)) {
			t.Fatalf("%s: Prob(%v)[%d] = %g, reference walk has %d of %d votes", name, x, c, p, votes[c], len(f.Trees))
		}
	}
}

// walkData is a 3-class dataset over walkAttrs attributes, some of them
// small integers so that thresholds repeat across trees.
const walkAttrs = 5

func walkData(n int, seed int64) *dataset.Dataset {
	s := &dataset.Schema{Classes: []string{"a", "b", "c"}}
	for a := 0; a < walkAttrs; a++ {
		s.Attrs = append(s.Attrs, dataset.Attr{Name: string(rune('p' + a)), Kind: dataset.Numeric})
	}
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(s, n)
	for i := 0; i < n; i++ {
		row := []float64{rng.NormFloat64(), float64(rng.Intn(4)), rng.NormFloat64() * 1e-310, float64(rng.Intn(3) - 1), rng.Float64()}
		label := 0
		if row[0] > 0.3 {
			label = 1
		}
		if row[1] >= 2 && row[3] <= 0 || row[2] > 0 && row[4] > 0.7 {
			label = 2
		}
		d.AppendRow(row, label)
	}
	return d
}

// namedForest is one fixture of the walk equivalence tests.
type namedForest struct {
	name string
	f    *Forest
}

// walkForests returns the forests the equivalence tests run on: one
// trained, its gob round trip, a pure (depth-0) one, one with more
// classes than the stack tally holds, one assembled by hand with a
// -0 threshold, a NaN threshold, an infinite threshold, a one-node tree
// and a tree that is not in pre-order (which must keep the reference
// walk), and the first 1 to 17 trees of a trained forest, so that every
// split of a forest into groups of eight and a remainder is walked.
func walkForests(tb testing.TB) []namedForest {
	tb.Helper()
	trained, err := Train(walkData(600, 31), Config{NumTrees: 11, MaxDepth: 7, Seed: 32})
	if err != nil {
		tb.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		tb.Fatal(err)
	}

	pure := walkData(40, 33)
	for i := range pure.Labels {
		pure.Labels[i] = 2
	}
	depth0, err := Train(pure, Config{NumTrees: 6, Seed: 34})
	if err != nil {
		tb.Fatal(err)
	}
	for _, tr := range depth0.Trees {
		if len(tr.Nodes) != 1 {
			tb.Fatalf("pure data grew %d nodes", len(tr.Nodes))
		}
	}

	// Not trained: the layout is derived on the first Predict.
	wide := &Forest{Trees: append([]*Tree(nil), trained.Trees...), NClasses: votesOnStack + 5}
	for i := 0; i < 3; i++ {
		wide.Trees = append(wide.Trees, &Tree{Nodes: []treeNode{{Feature: -1, Class: votesOnStack + 4}}, NClasses: wide.NClasses})
	}

	leaf := func(c int32) treeNode { return treeNode{Feature: -1, Class: c} }
	hand := &Forest{NClasses: 3, Trees: []*Tree{
		{NClasses: 3, Nodes: []treeNode{
			{Feature: 0, Threshold: math.Copysign(0, -1), Left: 1, Right: 2}, leaf(0), leaf(1)}},
		{NClasses: 3, Nodes: []treeNode{
			{Feature: 1, Threshold: math.NaN(), Left: 1, Right: 2}, leaf(0), leaf(2)}},
		{NClasses: 3, Nodes: []treeNode{
			{Feature: 2, Threshold: math.Inf(1), Left: 1, Right: 4},
			{Feature: 3, Threshold: math.Inf(-1), Left: 2, Right: 3}, leaf(1), leaf(2), leaf(0)}},
		{NClasses: 3, Nodes: []treeNode{leaf(1)}},
		// Right child before left: valid for Tree.Predict, not pre-order.
		{NClasses: 3, Nodes: []treeNode{
			{Feature: 4, Threshold: 0.5, Left: 2, Right: 1}, leaf(2), leaf(0)}},
		{NClasses: 3, Nodes: []treeNode{
			{Feature: 0, Threshold: 5e-324, Left: 1, Right: 2}, leaf(2), leaf(0)}},
		{NClasses: 3, Nodes: []treeNode{
			{Feature: 0, Threshold: math.MaxFloat64, Left: 1, Right: 2}, leaf(2), leaf(1)}},
	}}
	out := []namedForest{{"trained", trained}, {"loaded", loaded}, {"depth0", depth0}, {"wide", wide}, {"hand", hand}}
	seventeen, err := Train(walkData(600, 36), Config{NumTrees: 2*group + 1, MaxDepth: 6, Seed: 37})
	if err != nil {
		tb.Fatal(err)
	}
	for n := 1; n <= len(seventeen.Trees); n++ {
		out = append(out, namedForest{fmt.Sprintf("first%d", n), &Forest{Trees: seventeen.Trees[:n], NClasses: seventeen.NClasses}})
	}
	return out
}

// thresholds lists every split threshold of the forest.
func thresholds(f *Forest) []float64 {
	var out []float64
	for _, t := range f.Trees {
		for _, n := range t.Nodes {
			if n.Feature >= 0 {
				out = append(out, n.Threshold)
			}
		}
	}
	return out
}

// TestForestPredictMatchesReference: the derived layout answers what
// the reference walk answers on the cells where an arithmetic
// comparison could go wrong.
func TestForestPredictMatchesReference(t *testing.T) {
	negZero := math.Copysign(0, -1)
	special := []float64{
		math.NaN(), math.Inf(1), math.Inf(-1), 0, negZero,
		5e-324, -5e-324, 2.2250738585072014e-308, -2.2250738585072009e-308, 1e-310, -1e-310,
		math.MaxFloat64, -math.MaxFloat64, 0.5, 1, -1, 2, 3,
	}
	for _, nf := range walkForests(t) {
		name, f := nf.name, nf.f
		if name == "hand" {
			if ff := flatten(f.Trees); len(ff.slow) != 1 || len(ff.roots) != len(f.Trees)-1 {
				t.Fatalf("hand forest: %d trees kept the reference walk and %d were laid out, want 1 and %d", len(ff.slow), len(ff.roots), len(f.Trees)-1)
			}
		} else if ff := flatten(f.Trees); len(ff.slow) != 0 {
			t.Fatalf("%s: %d builder-made trees are not in pre-order", name, len(ff.slow))
		}
		cells := append([]float64(nil), special...)
		for _, thr := range thresholds(f) {
			cells = append(cells, thr, math.Nextafter(thr, math.Inf(1)), math.Nextafter(thr, math.Inf(-1)), -thr)
		}
		// Every special value in every column against a finite
		// background, then rows drawn wholly from the special cells.
		rng := rand.New(rand.NewSource(35))
		row := make([]float64, walkAttrs)
		for a := 0; a < walkAttrs; a++ {
			for _, v := range cells {
				for i := range row {
					row[i] = rng.NormFloat64()
				}
				row[a] = v
				assertWalkMatches(t, name, f, row)
			}
		}
		for trial := 0; trial < 4000; trial++ {
			for i := range row {
				row[i] = cells[rng.Intn(len(cells))]
			}
			assertWalkMatches(t, name, f, row)
		}
	}
}

// votingForest assembles one stump per vote: tree i sends a row with
// x[0] <= 0 to a leaf of class votes[i] and any other row to a leaf of
// the class after it, so one forest casts two vote sequences. A tree
// listed in slow has its children swapped out of pre-order and keeps
// the reference walk.
func votingForest(nClasses int, votes []int32, slow ...int) *Forest {
	f := &Forest{NClasses: nClasses}
	for _, c := range votes {
		next := (c + 1) % int32(nClasses)
		f.Trees = append(f.Trees, &Tree{NClasses: nClasses, Nodes: []treeNode{
			{Feature: 0, Threshold: 0, Left: 1, Right: 2}, {Feature: -1, Class: c}, {Feature: -1, Class: next}}})
	}
	for _, i := range slow {
		n := f.Trees[i].Nodes
		n[0].Left, n[0].Right, n[1], n[2] = 2, 1, n[2], n[1]
	}
	return f
}

// repeatVotes concatenates runs: repeatVotes(1, 8, 0, 8) is eight votes
// for class 1 and then eight for class 0.
func repeatVotes(classAndCount ...int) []int32 {
	var out []int32
	for i := 0; i < len(classAndCount); i += 2 {
		for n := classAndCount[i+1]; n > 0; n-- {
			out = append(out, int32(classAndCount[i]))
		}
	}
	return out
}

// TestPredictStopsOnlyWhenDecided: Predict, which leaves the walk once
// the vote is decided, names the class the full tally names — the
// lowest index among the leaders — on forests built so that a stop one
// vote too early would name another: ties that the higher class leads
// until the last tree, and deciding votes in the last group, in the
// remainder under eight, and in a tree outside the layout.
func TestPredictStopsOnlyWhenDecided(t *testing.T) {
	many := votesOnStack + 3
	for _, tc := range []struct {
		name string
		f    *Forest
	}{
		{"unanimous", votingForest(3, repeatVotes(2, 24))},
		{"two-class tie, higher class first", votingForest(2, repeatVotes(1, 8, 0, 8))},
		{"two-class tie, alternating", votingForest(2, repeatVotes(1, 1, 0, 1, 1, 1, 0, 1, 1, 3, 0, 3, 1, 3, 0, 3))},
		{"three-way tie", votingForest(3, repeatVotes(2, 8, 1, 8, 0, 8))},
		{"three-way tie with remainder", votingForest(3, repeatVotes(2, 9, 1, 9, 0, 9))},
		{"margin equals the trees left", votingForest(3, repeatVotes(1, 8, 0, 8, 2, 3))},
		{"decided by the last group", votingForest(3, repeatVotes(2, 8, 1, 8, 0, 4, 1, 4))},
		{"decided by the last vote of the last group", votingForest(2, repeatVotes(1, 8, 0, 7, 1, 1))},
		{"decided in the remainder", votingForest(2, repeatVotes(1, 4, 0, 4, 0, 2, 1, 3))},
		{"decided by the last vote of the remainder", votingForest(2, repeatVotes(1, 8, 0, 8, 0, 3, 1, 4))},
		{"tied until a slow tree", votingForest(2, repeatVotes(0, 8, 1, 8, 1, 1), 16)},
		{"slow trees tie it", votingForest(2, repeatVotes(1, 8, 0, 8), 8, 9, 10, 11, 12, 13, 14, 15)},
		{"slow trees overturn the first group", votingForest(3, repeatVotes(2, 1, 1, 8, 2, 8), 0, 9, 10, 11, 12, 13, 14, 15, 16)},
		{"more classes than the stack tally, tie", votingForest(many, repeatVotes(many-1, 8, many-2, 8, 0, 1))},
		{"more classes than the stack tally, decided late", votingForest(many, repeatVotes(many-1, 8, 3, 8, 3, 1))},
	} {
		ff := flatten(tc.f.Trees)
		for _, x := range []float64{-1, 0, 1, math.NaN(), math.Inf(1), math.Inf(-1)} {
			row := []float64{x}
			assertWalkMatches(t, tc.name, tc.f, row)
			if x-x != 0 {
				continue // not a row for the layout
			}
			// The stop itself: taken only with the winner settled.
			full, part := referenceVotes(tc.f, row), make([]int, tc.f.NClasses)
			if !ff.tally(row, part, true) {
				continue
			}
			walked, lead := 0, 0
			for c, v := range part {
				walked += v
				if v > part[lead] {
					lead = c
				}
			}
			for c, v := range full {
				if c != lead && full[lead] <= v {
					t.Errorf("%s, x=%v: stopped after %d of %d trees with class %d leading, full tally %v", tc.name, x, walked, len(tc.f.Trees), lead, full)
				}
			}
		}
	}
	// And it does stop: a unanimous forest of three groups is decided
	// when two are in (8 ahead with 16 to come is not).
	votes := make([]int, 3)
	if f := votingForest(3, repeatVotes(2, 24)); !flatten(f.Trees).tally([]float64{-1}, votes, true) || votes[2] != 2*group {
		t.Errorf("unanimous forest of 24: tally %v, want the walk to stop after %d trees", votes, 2*group)
	}
}

// TestForestPredictAllocs: Predict on a forest whose tally fits the
// stack buffer allocates nothing, whether the row takes the derived
// layout or the reference walk.
func TestForestPredictAllocs(t *testing.T) {
	f := walkForests(t)[0].f
	sink := 0
	for _, x := range [][]float64{{0.1, 2, 1e-311, 0, 0.9}, {0.1, math.NaN(), 1e-311, 0, 0.9}} {
		if n := testing.AllocsPerRun(200, func() { sink += f.Predict(x) }); n != 0 {
			t.Errorf("%s(%v) allocates %v times per call, want 0", "rf.(*Forest).Predict", x, n)
		}
	}
	_ = sink
}

// FuzzForestPredict drives arbitrary float64 rows — raw bit patterns,
// and values at and next to the forests' own thresholds — through the
// derived layout and the reference walk. Each cell is nine bytes: a
// mode and a payload.
func FuzzForestPredict(f *testing.F) {
	forests := walkForests(f)
	thr := make([][]float64, len(forests))
	for i, nf := range forests {
		thr[i] = thresholds(nf.f)
	}
	cell := func(mode byte, v float64) []byte {
		return binary.LittleEndian.AppendUint64([]byte{mode}, math.Float64bits(v))
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 5e-324, -1e-310, 1, math.MaxFloat64} {
		f.Add(bytes.Repeat(cell(0, v), walkAttrs))
		f.Add(append(cell(0, v), bytes.Repeat(cell(0, 0.25), walkAttrs-1)...))
	}
	for mode := byte(1); mode < 4; mode++ {
		var seed []byte
		for a := 0; a < walkAttrs; a++ {
			seed = append(seed, cell(mode, float64(7*a))...)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for i, nf := range forests {
			row := make([]float64, walkAttrs)
			for a := range row {
				if len(data) < 9*(a+1) {
					break
				}
				bits := binary.LittleEndian.Uint64(data[9*a+1:])
				row[a] = math.Float64frombits(bits)
				if ths := thr[i]; len(ths) > 0 && data[9*a]%4 != 0 {
					v := ths[bits%uint64(len(ths))]
					switch data[9*a] % 4 {
					case 2:
						v = math.Nextafter(v, math.Inf(1))
					case 3:
						v = math.Nextafter(v, math.Inf(-1))
					}
					row[a] = v
				}
			}
			assertWalkMatches(t, nf.name, nf.f, row)
		}
	})
}
