package rf

import (
	"bytes"
	"math"
	"math/bits"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"shahin/internal/alloctest"
	"shahin/internal/datagen"
	"shahin/internal/dataset"
)

// xorData builds a dataset a single shallow tree cannot learn but a
// forest (or deeper tree) can: label = (x0 > 0) XOR (x1 > 0).
func xorData(n int, seed int64) *dataset.Dataset {
	s := &dataset.Schema{
		Attrs: []dataset.Attr{
			{Name: "x0", Kind: dataset.Numeric},
			{Name: "x1", Kind: dataset.Numeric},
		},
		Classes: []string{"neg", "pos"},
	}
	rng := rand.New(rand.NewSource(seed))
	d := dataset.New(s, n)
	for i := 0; i < n; i++ {
		x0, x1 := rng.NormFloat64(), rng.NormFloat64()
		label := 0
		if (x0 > 0) != (x1 > 0) {
			label = 1
		}
		d.AppendRow([]float64{x0, x1}, label)
	}
	return d
}

func TestTrainErrors(t *testing.T) {
	d := xorData(50, 1)
	unlabelled := dataset.New(d.Schema, 0)
	unlabelled.AppendRow([]float64{1, 2}, -1)
	unlabelled.Labels = nil
	if _, err := Train(unlabelled, Config{}); err == nil {
		t.Fatal("training without labels should fail")
	}
	empty := dataset.New(d.Schema, 0)
	empty.Labels = []int{}
	if _, err := Train(empty, Config{}); err == nil {
		t.Fatal("training on empty data should fail")
	}
}

func TestValidateInput(t *testing.T) {
	cols := [][]float64{{1, 2}, {3, 4}}
	if err := validateInput(cols, []int{0, 1}, 2); err != nil {
		t.Fatalf("valid input rejected: %v", err)
	}
	cases := map[string]func() error{
		"no cols":    func() error { return validateInput(nil, nil, 2) },
		"ragged":     func() error { return validateInput([][]float64{{1, 2}, {3}}, []int{0, 1}, 2) },
		"bad labels": func() error { return validateInput(cols, []int{0}, 2) },
		"one class":  func() error { return validateInput(cols, []int{0, 0}, 1) },
		"label oob":  func() error { return validateInput(cols, []int{0, 5}, 2) },
	}
	for name, fn := range cases {
		if fn() == nil {
			t.Errorf("%s should be rejected", name)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		err := validateInput([][]float64{{1, 2}, {3, v}}, []int{0, 1}, 2)
		if err == nil || !strings.Contains(err.Error(), "column 1 row 1") {
			t.Errorf("a %v cell: got %v, want an error naming column 1 row 1", v, err)
		}
	}
	// The column {1,2,3,4,+Inf,+Inf} used to split at an infinite
	// midpoint that sent every row left, leaving a silent leaf.
	s := &dataset.Schema{Attrs: []dataset.Attr{{Name: "x", Kind: dataset.Numeric}}, Classes: []string{"a", "b"}}
	d := dataset.New(s, 6)
	for i, v := range []float64{1, 2, 3, 4, math.Inf(1), math.Inf(1)} {
		d.AppendRow([]float64{v}, i/4)
	}
	if _, err := Train(d, Config{NumTrees: 1}); err == nil {
		t.Error("Train accepted an infinite training value")
	}
}

func TestForestLearnsXOR(t *testing.T) {
	train := xorData(2000, 2)
	test := xorData(500, 3)
	f, err := Train(train, Config{NumTrees: 50, MaxDepth: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if acc := f.Accuracy(test); acc < 0.9 {
		t.Fatalf("XOR accuracy %.3f < 0.9", acc)
	}
}

func TestForestLearnsSyntheticDataset(t *testing.T) {
	cfg, err := datagen.Spec("recidivism")
	if err != nil {
		t.Fatal(err)
	}
	d, err := cfg.Generate(3000, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	trainD, testD := d.Split(1.0/3, rng)
	f, err := Train(trainD, Config{NumTrees: 60, MaxDepth: 10, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	acc := f.Accuracy(testD)
	// The planted rule has 5% flip noise; a decent learner clears 0.75.
	if acc < 0.75 {
		t.Fatalf("synthetic accuracy %.3f < 0.75", acc)
	}
}

// TestTrainDeterministic: the same seed saves the same bytes whether the
// trees are grown by one worker or by four sharing the rank table.
func TestTrainDeterministic(t *testing.T) {
	spec, err := datagen.Spec("census")
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(800, 8)
	if err != nil {
		t.Fatal(err)
	}
	save := func(procs int) []byte {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		f, err := Train(d, Config{NumTrees: 12, MaxDepth: 8, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if one, four := save(1), save(4); !bytes.Equal(one, four) {
		t.Fatal("the same seed saved different forests under GOMAXPROCS 1 and 4")
	}
}

func TestPredictPure(t *testing.T) {
	// All rows share one label: every prediction must return it without
	// growing any splits.
	s := &dataset.Schema{
		Attrs:   []dataset.Attr{{Name: "x", Kind: dataset.Numeric}},
		Classes: []string{"a", "b"},
	}
	d := dataset.New(s, 10)
	for i := 0; i < 10; i++ {
		d.AppendRow([]float64{float64(i)}, 1)
	}
	f, err := Train(d, Config{NumTrees: 5, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := f.Predict([]float64{99}); got != 1 {
		t.Fatalf("pure forest predicted %d", got)
	}
	for _, tr := range f.Trees {
		if tr.Depth() != 0 {
			t.Fatalf("pure data grew a tree of depth %d", tr.Depth())
		}
	}
}

func TestMaxDepthRespected(t *testing.T) {
	d := xorData(1000, 11)
	f, err := Train(d, Config{NumTrees: 5, MaxDepth: 3, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	for i, tr := range f.Trees {
		if depth := tr.Depth(); depth > 3 {
			t.Fatalf("tree %d depth %d > 3", i, depth)
		}
	}
}

func TestProbSumsToOne(t *testing.T) {
	d := xorData(500, 13)
	f, err := Train(d, Config{NumTrees: 20, Seed: 14})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 50; trial++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		p := f.Prob(x)
		sum := 0.0
		for _, v := range p {
			sum += v
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("Prob sums to %g", sum)
		}
		// Predict must agree with argmax Prob.
		best := 0
		for c := range p {
			if p[c] > p[best] {
				best = c
			}
		}
		if f.Predict(x) != best {
			t.Fatal("Predict disagrees with argmax Prob")
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	d := xorData(500, 16)
	f, err := Train(d, Config{NumTrees: 10, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := f.Save(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(18))
	for trial := 0; trial < 100; trial++ {
		x := []float64{rng.NormFloat64(), rng.NormFloat64()}
		if f.Predict(x) != g.Predict(x) {
			t.Fatal("loaded forest disagrees with original")
		}
	}
	if _, err := Load(bytes.NewReader([]byte("garbage"))); err == nil {
		t.Fatal("Load(garbage) should fail")
	}
}

// hostileForests are gob payloads Load must refuse: a root that is its
// own child (Tree.Predict loops on it for ever), a leaf naming a class
// the forest does not have (the tally indexes past its end), a child
// index past the last node, and a class count every Predict would
// allocate a tally for.
func hostileForests() map[string]*Forest {
	leaf := func(c int32) treeNode { return treeNode{Feature: -1, Class: c} }
	one := func(nodes ...treeNode) *Forest {
		return &Forest{NClasses: 2, Trees: []*Tree{{NClasses: 2, Nodes: nodes}}}
	}
	return map[string]*Forest{
		"cycle":              one(treeNode{Feature: 0, Left: 0, Right: 0}),
		"class out of range": one(treeNode{Feature: 0, Left: 1, Right: 2}, leaf(0), leaf(2)),
		"child out of range": one(treeNode{Feature: 0, Left: 1, Right: 7}, leaf(0), leaf(1)),
		"too many classes":   {NClasses: 1 << 40, Trees: []*Tree{{NClasses: 2, Nodes: []treeNode{leaf(0)}}}},
	}
}

// TestLoadRefusesHostileTrees: each hostile gob is refused by Load.
func TestLoadRefusesHostileTrees(t *testing.T) {
	for name, f := range hostileForests() {
		var buf bytes.Buffer
		if err := f.Save(&buf); err != nil {
			t.Fatal(err)
		}
		if g, err := Load(&buf); err == nil {
			t.Errorf("%s: Load accepted a forest of %d nodes", name, len(g.Trees[0].Nodes))
		}
	}
}

// FuzzForestLoad: whatever the bytes, Load errors or returns a forest
// every tree of which has a bounded walk and whose Predict answers a
// class it has, on finite and non-finite rows.
func FuzzForestLoad(f *testing.F) {
	trained, err := Train(xorData(200, 21), Config{NumTrees: 3, MaxDepth: 4, Seed: 22})
	if err != nil {
		f.Fatal(err)
	}
	seeds := hostileForests()
	seeds["trained"] = trained
	for _, name := range []string{"trained", "cycle", "class out of range", "child out of range", "too many classes"} {
		var buf bytes.Buffer
		if err := seeds[name].Save(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		forest, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		if slow := len(forest.layout().slow); slow != 0 {
			t.Fatalf("Load accepted %d trees the layout cannot bound", slow)
		}
		width := 1
		for _, tr := range forest.Trees {
			for _, n := range tr.Nodes {
				if n.Feature >= 0 {
					width = max(width, int(n.Feature)+1)
				}
			}
		}
		if width > 1<<12 {
			return // rows that wide are a schema's to reject, not Load's
		}
		row := make([]float64, width)
		for _, v := range []float64{0, 1, -1, math.NaN(), math.Inf(1)} {
			for i := range row {
				row[i] = v
			}
			if c := forest.Predict(row); c < 0 || c >= forest.NClasses {
				t.Fatalf("Predict(%v...) = %d, forest has %d classes", v, c, forest.NClasses)
			}
		}
	})
}

func TestCountingWrapper(t *testing.T) {
	d := xorData(200, 19)
	f, err := Train(d, Config{NumTrees: 5, Seed: 20})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCounting(f)
	if c.NumClasses() != 2 {
		t.Fatalf("NumClasses=%d", c.NumClasses())
	}
	x := []float64{0.5, -0.5}
	want := f.Predict(x)
	for i := 0; i < 7; i++ {
		if got := c.Predict(x); got != want {
			t.Fatal("Counting changed the prediction")
		}
	}
	if c.Invocations() != 7 {
		t.Fatalf("Invocations=%d want 7", c.Invocations())
	}
	c.Reset()
	if c.Invocations() != 0 {
		t.Fatal("Reset did not zero the counter")
	}
}

func TestDelayedWrapper(t *testing.T) {
	base := Func{Classes: 2, F: func([]float64) int { return 1 }}
	d := NewDelayed(base, 200*time.Microsecond)
	if d.NumClasses() != 2 {
		t.Fatalf("NumClasses=%d", d.NumClasses())
	}
	start := time.Now()
	const calls = 20
	for i := 0; i < calls; i++ {
		if d.Predict(nil) != 1 {
			t.Fatal("Delayed changed the prediction")
		}
	}
	elapsed := time.Since(start)
	if elapsed < calls*150*time.Microsecond {
		t.Fatalf("20 delayed calls took only %v", elapsed)
	}
	// Zero delay must add (almost) nothing.
	fast := NewDelayed(base, 0)
	start = time.Now()
	for i := 0; i < 1000; i++ {
		fast.Predict(nil)
	}
	if time.Since(start) > 50*time.Millisecond {
		t.Fatal("zero-delay wrapper is slow")
	}
}

func TestFuncAdapter(t *testing.T) {
	calls := 0
	f := Func{Classes: 3, F: func(x []float64) int { calls++; return int(x[0]) }}
	if f.NumClasses() != 3 {
		t.Fatal("NumClasses")
	}
	if f.Predict([]float64{2}) != 2 || calls != 1 {
		t.Fatal("Predict did not delegate")
	}
}

func BenchmarkForestPredict(b *testing.B) {
	d := xorData(2000, 21)
	f, err := Train(d, Config{NumTrees: 100, MaxDepth: 12, Seed: 22})
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{0.3, -1.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Predict(x)
	}
}

// TestGrowAllocs: a node's split, partition and rank walk run in the
// builder's scratch, so a tree allocates its Tree and the growth of its
// node array, never an object per node.
func TestGrowAllocs(t *testing.T) {
	spec, err := datagen.Spec("lending")
	if err != nil {
		t.Fatal(err)
	}
	d, err := spec.Generate(2000, 3)
	if err != nil {
		t.Fatal(err)
	}
	b := newTreeBuilder(rankColumns(d.Cols), d.Labels, 2, treeConfig{maxDepth: 10, minLeaf: 2, featuresTry: 7})
	rng := rand.New(rand.NewSource(4))
	boot, idx := make([]int, len(d.Labels)), make([]int, len(d.Labels))
	counts := make([]int, 2)
	for i := range boot {
		boot[i] = rng.Intn(len(boot))
		counts[d.Labels[boot[i]]]++
	}
	b.rng = rng
	if allocs, _ := alloctest.PerCall(func() { copy(idx, boot); b.bestSplit(idx, counts) }); allocs != 0 {
		t.Errorf("bestSplit allocates %d objects per call, want 0", allocs)
	}
	nodes := 0
	allocs, _ := alloctest.PerCall(func() {
		copy(idx, boot)
		rng.Seed(5)
		nodes = len(b.grow(idx, rng).Nodes)
	})
	if limit := uint64(1 + 2*bits.Len(uint(nodes))); allocs > limit {
		t.Errorf("growing a tree of %d nodes allocates %d objects, want at most %d", nodes, allocs, limit)
	}
}

// BenchmarkForestTrain trains at the repository benchmark's shape — 4 000
// rows, 50 trees, depth 10 — on the twin of each workload that trains one.
func BenchmarkForestTrain(b *testing.B) {
	for _, family := range []string{"lending", "covertype", "census"} {
		b.Run(family, func(b *testing.B) {
			spec, err := datagen.Spec(family)
			if err != nil {
				b.Fatal(err)
			}
			d, err := spec.Generate(4000, 23)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Train(d, Config{NumTrees: 50, MaxDepth: 10, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestDelayedHybridSleep covers the long-delay path of spin: delays
// above one millisecond sleep the bulk and busy-wait only the margin,
// yet must still take at least the requested duration.
func TestDelayedHybridSleep(t *testing.T) {
	base := Func{Classes: 2, F: func([]float64) int { return 1 }}
	d := NewDelayed(base, 3*time.Millisecond)
	start := time.Now()
	const calls = 5
	for i := 0; i < calls; i++ {
		if d.Predict(nil) != 1 {
			t.Fatal("Delayed changed the prediction")
		}
	}
	elapsed := time.Since(start)
	if elapsed < calls*3*time.Millisecond {
		t.Fatalf("%d calls at 3ms took only %v (delay undershoots)", calls, elapsed)
	}
	// Generous upper bound: sleep overshoot is bounded, so the hybrid
	// must not balloon the delay either (the old pure busy-wait would
	// pass this too, but a broken sleep-too-long path would not).
	if elapsed > calls*30*time.Millisecond {
		t.Fatalf("%d calls at 3ms took %v", calls, elapsed)
	}
}

// TestCountingHookConcurrentSwap installs and clears the predict hook
// while other goroutines are mid-Predict; under -race this pins down
// the atomic hook swap the observability layer relies on.
func TestCountingHookConcurrentSwap(t *testing.T) {
	base := Func{Classes: 2, F: func([]float64) int { return 1 }}
	c := NewCounting(base)
	var observed atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			c.SetPredictHook(func(time.Duration) { observed.Add(1) })
			c.SetPredictHook(nil)
		}
		c.SetPredictHook(func(time.Duration) { observed.Add(1) })
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				if c.Predict(nil) != 1 {
					t.Error("hook swap changed the prediction")
				}
			}
		}()
	}
	wg.Wait()
	<-done
	if c.Invocations() != 2000 {
		t.Fatalf("Invocations=%d want 2000", c.Invocations())
	}
	// With the final hook installed, one more call must observe it.
	before := observed.Load()
	c.Predict(nil)
	if observed.Load() != before+1 {
		t.Fatal("installed hook did not observe the call")
	}
}
