package exact

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"shahin/internal/datagen"
	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/rf"
)

// tinyData builds a 4-feature binary dataset whose label mixes an XOR
// of the first two features with a threshold on the third, so trained
// trees split on repeated features along one path (exercising the
// re-entry fold).
func tinyData(n int, seed int64) *dataset.Dataset {
	s := &dataset.Schema{
		Attrs: []dataset.Attr{
			{Name: "x0", Kind: dataset.Numeric},
			{Name: "x1", Kind: dataset.Numeric},
			{Name: "x2", Kind: dataset.Numeric},
			{Name: "x3", Kind: dataset.Numeric},
		},
		Classes: []string{"neg", "pos"},
	}
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(s, n)
	for i := 0; i < n; i++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		label := 0
		if (x[0] > 0) != (x[1] > 0) || x[2] > 0.8 {
			label = 1
		}
		d.AppendRow(x, label)
	}
	return d
}

func tinyForest(t *testing.T, d *dataset.Dataset, trees, depth int) *rf.Forest {
	t.Helper()
	f, err := rf.Train(d, rf.Config{NumTrees: trees, MaxDepth: depth, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func tinyStats(t testing.TB, d *dataset.Dataset) *dataset.Stats {
	t.Helper()
	st, err := dataset.Compute(d)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// node mirrors rf's tree node field for field (gob matches by name, so a
// forest of these decodes through rf.Load, the way a stored or hostile
// forest arrives).
type node struct {
	Feature   int32
	Class     int32
	Threshold float64
	Left      int32
	Right     int32
}

// split and leaf assemble a tree as a nested literal; emit writes it in
// the builders' pre-order.
type shape struct {
	feature   int32
	threshold float64
	left      *shape
	right     *shape
	class     int32
}

func split(f int32, thr float64, l, r *shape) *shape {
	return &shape{feature: f, threshold: thr, left: l, right: r}
}
func leaf(class int32) *shape     { return &shape{class: class} }
func (s *shape) preorder() []node { return s.emit(nil) }

func (s *shape) emit(nodes []node) []node {
	if s.left == nil {
		return append(nodes, node{Feature: -1, Class: s.class})
	}
	self := len(nodes)
	nodes = append(nodes, node{Feature: s.feature, Threshold: s.threshold, Left: int32(self + 1)})
	nodes = s.left.emit(nodes)
	nodes[self].Right = int32(len(nodes))
	return s.right.emit(nodes)
}

// handForest decodes the given trees into an rf.Forest.
func handForest(t testing.TB, nclasses int, trees ...[]node) *rf.Forest {
	t.Helper()
	f, err := rf.Load(handGob(t, nclasses, trees...))
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// handGob encodes the trees as Forest.Save writes a forest.
func handGob(t testing.TB, nclasses int, trees ...[]node) *bytes.Buffer {
	t.Helper()
	type tree struct {
		Nodes    []node
		NClasses int
	}
	wire := struct {
		Trees    []*tree
		NClasses int
	}{NClasses: nclasses}
	for _, nodes := range trees {
		wire.Trees = append(wire.Trees, &tree{Nodes: nodes, NClasses: nclasses})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(wire); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// assertClose fails unless got and want name the same class and agree on
// the intercept and every weight within tol.
func assertClose(t testing.TB, what string, got, want *explain.Attribution, tol float64) {
	t.Helper()
	if got.Class != want.Class {
		t.Fatalf("%s: class %d vs %d", what, got.Class, want.Class)
	}
	if math.Abs(got.Intercept-want.Intercept) > tol {
		t.Fatalf("%s: intercept %g vs %g", what, got.Intercept, want.Intercept)
	}
	for i := range got.Weights {
		if !(math.Abs(got.Weights[i]-want.Weights[i]) <= tol) {
			t.Fatalf("%s attr %d: %g vs %g", what, i, got.Weights[i], want.Weights[i])
		}
	}
}

// assertMatchesBruteForce compares Explain with BruteForce on x at 1e-9.
func assertMatchesBruteForce(t testing.TB, what string, e *Explainer, x []float64) {
	t.Helper()
	fast, err := e.Explain(x)
	if err != nil {
		t.Fatal(err)
	}
	slow, err := e.BruteForce(x)
	if err != nil {
		t.Fatal(err)
	}
	assertClose(t, what, fast, slow, 1e-9)
}

// sameBits reports whether two attributions are the same to the last
// bit: what a fork of an explainer owes the explainer.
func sameBits(a, b *explain.Attribution) bool {
	if a.Class != b.Class || math.Float64bits(a.Intercept) != math.Float64bits(b.Intercept) || len(a.Weights) != len(b.Weights) {
		return false
	}
	for i := range a.Weights {
		if math.Float64bits(a.Weights[i]) != math.Float64bits(b.Weights[i]) {
			return false
		}
	}
	return true
}

func assertSameBits(t testing.TB, what string, got, want *explain.Attribution) {
	t.Helper()
	if !sameBits(got, want) {
		t.Fatalf("%s: %+v, want %+v", what, got, want)
	}
}

// mustExplain is Explain that fails the test on an error.
func mustExplain(t testing.TB, e *Explainer, x []float64) *explain.Attribution {
	t.Helper()
	at, err := e.Explain(x)
	if err != nil {
		t.Fatal(err)
	}
	return at
}

// handShapes are trees built to take every branch of the walk: a feature
// that splits again below its own hot side and below its own cold side
// (hot-then-hot, hot-then-cold, cold-then-hot, cold-then-cold, three
// deep), a side no background row reaches (hot for the probes with
// x3 beyond 1e9, with more splits and the same feature again below it),
// and a tree that is one leaf.
func handShapes() []*shape {
	return []*shape{
		split(0, 0,
			split(1, 0,
				split(0, -1, leaf(0), leaf(1)),
				split(0, -0.5, leaf(1), leaf(0))),
			split(0, 1,
				leaf(1),
				split(2, 0, leaf(0), split(0, 2, leaf(1), leaf(0))))),
		split(3, 1e9, split(2, 0.3, leaf(0), leaf(1)), leaf(1)),
		split(3, 1e9, leaf(0), split(1, 0, leaf(1), split(3, 2.5e9, leaf(0), leaf(1)))),
		split(1, 0.2, leaf(0), split(3, 1e9, split(1, 1, leaf(1), leaf(0)), split(3, 2.5e9, leaf(1), leaf(0)))),
		leaf(1),
	}
}

// probes are n tuples over tinyData's four attributes; two in three have
// x3 past the thresholds no background row reaches.
func probes(n int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		out[i] = []float64{rng.NormFloat64() * 1.5, rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if i%3 > 0 {
			out[i][3] = float64(i%3) * 2e9
		}
	}
	return out
}

// TestMatchesBruteForceRF checks the fast path against the exponential
// Shapley definition over the identical value function: on a trained
// ≤4-feature, ≤3-tree forest, and on hand-built ones that reach what a
// trained one may not.
func TestMatchesBruteForceRF(t *testing.T) {
	d := tinyData(400, 1)
	st := tinyStats(t, d)
	var shapes [][]node
	for _, s := range handShapes() {
		shapes = append(shapes, s.preorder())
	}
	for _, tc := range []struct {
		name string
		f    *rf.Forest
	}{
		{"trained", tinyForest(t, d, 3, 4)},
		{"branches", handForest(t, 2, shapes...)},
		// Classes 3 and 67 share a mask bit: the mask lets the walk into
		// leaves of the other one, the leaf rule must turn it away.
		{"aliased classes", handForest(t, 70,
			split(0, 0, leaf(3), split(1, 0, leaf(67), leaf(5))).preorder(),
			split(1, 0.5, split(0, -0.5, leaf(67), leaf(3)), leaf(67)).preorder(),
			split(2, 0, leaf(3), split(0, 0.5, leaf(3), leaf(67))).preorder())},
		// Tree 0 has no leaf of class 2, which the other two elect.
		{"class absent from a tree", handForest(t, 3,
			split(0, 0, leaf(0), leaf(1)).preorder(),
			split(1, 0, leaf(2), split(0, 1, leaf(2), leaf(0))).preorder(),
			split(2, 5, leaf(2), leaf(1)).preorder())},
	} {
		e, err := New(st, tc.f, Config{Background: 64, Seed: 5})
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range probes(60, 9) {
			assertMatchesBruteForce(t, tc.name, e, x)
		}
		if e.NodeVisits() == 0 {
			t.Fatalf("%s: no node visited", tc.name)
		}
	}
}

// TestEfficiencyIdentity checks Σφ + intercept equals the explained
// output exactly: the target-class vote fraction. Every other tuple
// carries a NaN, which the forest sends right at each split that reads
// it.
func TestEfficiencyIdentity(t *testing.T) {
	d := tinyData(400, 3)
	st := tinyStats(t, d)
	f := tinyForest(t, d, 7, 6)
	ef, err := New(st, f, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
		if trial%2 == 1 {
			x[trial/2%4] = math.NaN()
		}

		at, err := ef.Explain(x)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := outputSum(at), f.Prob(x)[at.Class]; !(math.Abs(got-want) <= 1e-9) {
			t.Fatalf("rf trial %d: Σφ+b = %g, vote fraction %g", trial, got, want)
		}
	}
}

// outputSum is the model output an attribution claims: Σφ + intercept.
func outputSum(at *explain.Attribution) float64 {
	sum := at.Intercept
	for _, w := range at.Weights {
		sum += w
	}
	return sum
}

// twin generates a named synthetic dataset and splits off the last
// probe rows as tuples to explain.
func twin(t testing.TB, family string, train, probe int) (*dataset.Dataset, [][]float64) {
	t.Helper()
	spec, err := datagen.Spec(family)
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(train+probe, 1)
	if err != nil {
		t.Fatal(err)
	}
	trainD, probeD := d.Split(float64(train)/float64(train+probe), rand.New(rand.NewSource(2)))
	return trainD, probeD.Rows(0, probeD.NumRows())
}

// TestWalkMatchesReference holds the walker to the recursion it replaced
// (reference_test.go) where BruteForce cannot go: the benchmark's census
// twin forest (42 attributes, 50 trees of depth 10) and a seven-class
// covertype twin. Every weight and the intercept
// agree within 1e-12, and the walk enters no node the reference did not.
// A fork walks every probe beside the explainer it came from: the same
// bits, and the same visits on a counter of its own.
func TestWalkMatchesReference(t *testing.T) {
	census, censusProbes := twin(t, "census", 4000, 512)
	cover, coverProbes := twin(t, "covertype", 3000, 512)
	// The generator plants two classes; covertype has seven. Spread the
	// label over seven with two of the widest categorical attributes.
	seven := &dataset.Schema{Attrs: cover.Schema.Attrs, Classes: []string{"a", "b", "c", "d", "e", "f", "g"}}
	cover = &dataset.Dataset{Schema: seven, Cols: cover.Cols, Labels: append([]int(nil), cover.Labels...)}
	for i := range cover.Labels {
		cover.Labels[i] = (cover.Labels[i] + int(cover.Cols[43][i]) + 3*int(cover.Cols[38][i])) % 7
	}
	for _, tc := range []struct {
		name    string
		data    *dataset.Dataset
		f       *rf.Forest
		probes  [][]float64
		classes int // at least this many are explained
	}{
		{"census forest", census, tinyForest(t, census, 50, 10), censusProbes, 2},
		{"covertype forest", cover, tinyForest(t, cover, 20, 9), coverProbes, 5},
	} {
		st := tinyStats(t, tc.data)
		e, err := New(st, tc.f, Config{Seed: 31})
		if err != nil {
			t.Fatal(err)
		}
		ref := newReference(st, tc.f, Config{Seed: 31})
		fork := e.Fork(tc.f)
		classes, worst := map[int]bool{}, 0.0
		for _, x := range tc.probes {
			got := mustExplain(t, e, x)
			assertSameBits(t, tc.name+", fork", mustExplain(t, fork, x), got)
			classes[got.Class] = true
			want := ref.explain(x, got.Class)
			assertClose(t, tc.name, got, want, 1e-12)
			for i, w := range got.Weights {
				worst = max(worst, math.Abs(w-want.Weights[i]))
			}
		}
		if e.NodeVisits() == 0 || e.NodeVisits() > ref.visits {
			t.Errorf("%s: %d node visits, the reference made %d", tc.name, e.NodeVisits(), ref.visits)
		}
		if fork.NodeVisits() != e.NodeVisits() {
			t.Errorf("%s: the fork counts %d node visits, the explainer %d", tc.name, fork.NodeVisits(), e.NodeVisits())
		}
		if len(classes) < tc.classes {
			t.Errorf("%s: the probes were explained toward %d classes, want %d", tc.name, len(classes), tc.classes)
		}
		t.Logf("%s: %d probes, %d classes, max |Δφ| %.1e, %d visits (reference %d)", tc.name, len(tc.probes), len(classes), worst, e.NodeVisits(), ref.visits)
	}
}

// TestDeterminism checks same seed → byte-identical attributions from
// two independently built explainers and from a fork (the parallel
// workers' situation), and that a fork's walk of another tuple leaves
// the explainer it came from answering as before.
func TestDeterminism(t *testing.T) {
	d := tinyData(300, 4)
	st := tinyStats(t, d)
	f := tinyForest(t, d, 5, 5)
	x := []float64{0.3, -1.2, 0.9, 0.1}

	run := func(forked bool) []byte {
		e, err := New(st, f, Config{Background: 128, Seed: 77})
		if err != nil {
			t.Fatal(err)
		}
		if forked {
			before := mustExplain(t, e, x)
			fork := e.Fork(f)
			if fork.NodeVisits() != 0 {
				t.Fatalf("a fresh fork counts %d node visits", fork.NodeVisits())
			}
			mustExplain(t, fork, []float64{-2, 0.4, 1.1, -0.3})
			assertSameBits(t, "after a fork walked another tuple", mustExplain(t, e, x), before)
			e = fork
		}
		b, err := json.Marshal(mustExplain(t, e, x))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(false), run(false)
	if string(a) != string(b) {
		t.Fatalf("same seed, different output:\n%s\n%s", a, b)
	}
	if c := run(true); string(a) != string(c) {
		t.Fatalf("a fork answers differently:\n%s\n%s", a, c)
	}
	e2, err := New(st, f, Config{Background: 128, Seed: 78})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.Explain(x); err != nil {
		t.Fatal(err)
	}
}

// TestUnwrapsInstrumentation verifies the counting/delay chain unwraps
// and each Explain issues exactly one counted invocation.
func TestUnwrapsInstrumentation(t *testing.T) {
	d := tinyData(300, 5)
	st := tinyStats(t, d)
	f := tinyForest(t, d, 3, 4)
	cnt := rf.NewCounting(rf.NewDelayed(f, 0))
	e, err := New(st, cnt, Config{Seed: 5})
	if err != nil {
		t.Fatalf("wrapped forest not supported: %v", err)
	}
	before := cnt.Invocations()
	if _, err := e.Explain([]float64{0, 0, 0, 0}); err != nil {
		t.Fatal(err)
	}
	if got := cnt.Invocations() - before; got != 1 {
		t.Fatalf("Explain issued %d invocations, want 1", got)
	}
	if e.NodeVisits() == 0 {
		t.Fatal("NodeVisits not counted")
	}
}

// TestUnsupportedClassifier verifies opaque classifiers are rejected
// with ErrUnsupported (the fallback trigger).
func TestUnsupportedClassifier(t *testing.T) {
	d := tinyData(300, 6)
	st := tinyStats(t, d)
	opaque := rf.Func{Classes: 2, F: func(x []float64) int { return 0 }}
	if _, err := New(st, opaque, Config{}); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("New error = %v, want ErrUnsupported", err)
	}
}

// TestNewRejectsTreesNotInPreorder: New reads only the pre-order layout,
// so a tree that has none — here a two-node cycle and a right child that
// points backward, as a hand-assembled forest, or a gob decoded without
// rf.Load (which refuses it), may hold — is ErrUnsupported at once
// instead of a walk that never ends.
func TestNewRejectsTreesNotInPreorder(t *testing.T) {
	st := tinyStats(t, tinyData(100, 8))
	good := split(0, 0, leaf(0), leaf(1)).preorder()
	for name, bad := range map[string][]node{ // the cases are independent: order is immaterial
		"cycle":          {{Left: 1, Right: 1}, {Left: 0, Right: 0}},
		"backward right": {{Left: 1, Right: 3}, {Feature: -1}, {Feature: -1, Class: 1}, {Left: 4, Right: 2}, {Feature: -1}},
	} {
		var f rf.Forest
		if err := gob.NewDecoder(handGob(t, 2, good, bad)).Decode(&f); err != nil {
			t.Fatal(err)
		}
		if _, err := New(st, &f, Config{}); !errors.Is(err, ErrUnsupported) {
			t.Errorf("forest with a %s: New error = %v, want ErrUnsupported", name, err)
		}
	}
}

// TestWidthMismatch checks tuple-width validation on both paths.
func TestWidthMismatch(t *testing.T) {
	d := tinyData(300, 7)
	st := tinyStats(t, d)
	f := tinyForest(t, d, 2, 3)
	e, err := New(st, f, Config{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Explain([]float64{1, 2}); err == nil {
		t.Fatal("short tuple accepted by Explain")
	}
	if _, err := e.BruteForce([]float64{1, 2}); err == nil {
		t.Fatal("short tuple accepted by BruteForce")
	}
}

// TestForksWalkConcurrently is the proof that what forks share is
// read-only: eight goroutines each fork one prototype and explain the
// same 200 tuples at once, and every attribution equals the serial
// walk's to the bit. Run under -race.
func TestForksWalkConcurrently(t *testing.T) {
	d, tuples := twin(t, "census", 1500, 200)
	f := tinyForest(t, d, 12, 8)
	proto, err := New(tinyStats(t, d), f, Config{Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]*explain.Attribution, len(tuples))
	serial := proto.Fork(f)
	for i, x := range tuples {
		want[i] = mustExplain(t, serial, x)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fork := proto.Fork(f)
			for i, x := range tuples {
				got, err := fork.Explain(x)
				if err != nil {
					t.Error(err)
					return
				}
				if !sameBits(got, want[i]) {
					t.Errorf("tuple %d: a concurrent fork answers %+v, the serial walk %+v", i, got, want[i])
					return
				}
			}
			if fork.NodeVisits() != serial.NodeVisits() {
				t.Errorf("a concurrent fork counts %d node visits, the serial walk %d", fork.NodeVisits(), serial.NodeVisits())
			}
		}()
	}
	wg.Wait()
}
