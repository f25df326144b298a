package exact

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"shahin/internal/dataset"
	"shahin/internal/gbt"
	"shahin/internal/rf"
)

// randomShape grows a tree of at most the given depth over p attributes.
// It is not fitted to anything: with few attributes and six or more
// levels, a path that splits on one attribute several times is the
// common case, and thresholds past the data's range leave sides no
// background row reaches.
func randomShape(rng *rand.Rand, p, depth int, classes []int32) *shape {
	if depth == 0 || rng.Intn(8) == 0 {
		l := leaf(classes[rng.Intn(len(classes))])
		l.value = rng.NormFloat64()
		return l
	}
	return split(int32(rng.Intn(p)), 1.5*rng.NormFloat64(),
		randomShape(rng, p, depth-1, classes), randomShape(rng, p, depth-1, classes))
}

// FuzzExactWalk holds the walker to BruteForce (1e-9) and to the
// efficiency identity on random small ensembles and random tuples, NaN
// cells included, and a fork of it, walked in between, to the walker's
// own bits. The model is a forest — every fourth one over 130
// classes of which the leaves use four, three sharing a mask bit — or,
// with boosted set, a gbt ensemble.
func FuzzExactWalk(f *testing.F) {
	var stats [11]*dataset.Stats
	for p := 2; p < len(stats); p++ {
		s := &dataset.Schema{Classes: []string{"neg", "pos"}}
		for a := 0; a < p; a++ {
			s.Attrs = append(s.Attrs, dataset.Attr{Name: fmt.Sprint("x", a), Kind: dataset.Numeric})
		}
		rng := rand.New(rand.NewSource(int64(p)))
		d := dataset.New(s, 200)
		row := make([]float64, p)
		for i := 0; i < 200; i++ {
			for a := range row {
				row[a] = rng.NormFloat64()
			}
			d.AppendRow(row, i%2)
		}
		stats[p] = tinyStats(f, d)
	}
	f.Add(int64(1), uint8(2), uint8(0), false)
	f.Add(int64(2), uint8(1), uint8(2), true)
	f.Add(int64(3), uint8(8), uint8(1), false)
	f.Add(int64(7), uint8(0), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, attrs, levels uint8, boosted bool) {
		p, depth := 2+int(attrs)%9, 6+int(levels)%3
		rng := rand.New(rand.NewSource(seed))
		nclasses, classes := 2+rng.Intn(3), []int32{0, 1, 2, 3}
		if rng.Intn(4) == 0 {
			nclasses, classes = 130, []int32{1, 65, 129, 2}
		}
		classes = classes[:min(nclasses, len(classes))]
		var trees [][]node
		for n := 1 + rng.Intn(3); n > 0; n-- {
			trees = append(trees, randomShape(rng, p, depth, classes).preorder())
		}
		var (
			cls    rf.Classifier
			output func(x []float64, class int) float64
		)
		if boosted {
			m := &gbt.Model{Bias: rng.NormFloat64(), Rate: 0.1 + rng.Float64()}
			for _, nodes := range trees {
				m.Trees = append(m.Trees, regTree(nodes))
			}
			cls, output = m, func(x []float64, class int) float64 { return float64(2*class-1) * m.Score(x) }
		} else {
			forest := handForest(t, nclasses, trees...)
			cls, output = forest, func(x []float64, class int) float64 { return forest.Prob(x)[class] }
		}
		e, err := New(stats[p], cls, Config{Background: 32, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		fork := e.Fork(cls)
		x := make([]float64, p)
		for trial := 0; trial < 4; trial++ {
			for a := range x {
				x[a] = 1.5 * rng.NormFloat64()
				if rng.Intn(16) == 0 {
					x[a] = math.NaN()
				}
			}
			assertMatchesBruteForce(t, "fuzzed ensemble", e, x)
			forked := mustExplain(t, fork, x)
			at := mustExplain(t, e, x)
			assertSameBits(t, "fork of a fuzzed ensemble", forked, at)
			if got, want := outputSum(at), output(x, at.Class); !(math.Abs(got-want) <= 1e-9) {
				t.Fatalf("Σφ+b = %g, the model's output toward class %d is %g", got, at.Class, want)
			}
		}
	})
}
