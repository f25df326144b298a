package rf

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"shahin/internal/datagen"
	"shahin/internal/dataset"
)

// referenceBuilder is the tree builder the rank histograms replaced: per
// node and tried feature it sorts the node's rows by value and walks
// them. The trees Train grows must equal its trees node for node.
type referenceBuilder struct {
	cols     [][]float64
	labels   []int
	nClasses int
	cfg      treeConfig
	rng      *rand.Rand
	nodes    []treeNode
	sortBuf  []int
}

func (b *referenceBuilder) build(idx []int, depth int) int32 {
	counts := make([]int, b.nClasses)
	for _, i := range idx {
		counts[b.labels[i]]++
	}
	major, majorN := 0, -1
	for c, n := range counts {
		if n > majorN {
			major, majorN = c, n
		}
	}
	pure := majorN == len(idx)
	if pure || depth >= b.cfg.maxDepth || len(idx) < 2*b.cfg.minLeaf {
		return b.leaf(major)
	}
	feat, thr, ok := b.bestSplit(idx, counts)
	if !ok {
		return b.leaf(major)
	}
	lo, hi := 0, len(idx)
	for lo < hi {
		if b.cols[feat][idx[lo]] <= thr {
			lo++
		} else {
			hi--
			idx[lo], idx[hi] = idx[hi], idx[lo]
		}
	}
	if lo == 0 || lo == len(idx) {
		return b.leaf(major)
	}
	self := int32(len(b.nodes))
	b.nodes = append(b.nodes, treeNode{Feature: int32(feat), Threshold: thr})
	left := b.build(idx[:lo], depth+1)
	right := b.build(idx[lo:], depth+1)
	b.nodes[self].Left = left
	b.nodes[self].Right = right
	return self
}

func (b *referenceBuilder) leaf(class int) int32 {
	i := int32(len(b.nodes))
	b.nodes = append(b.nodes, treeNode{Feature: -1, Class: int32(class)})
	return i
}

func (b *referenceBuilder) bestSplit(idx []int, counts []int) (feat int, thr float64, ok bool) {
	n := len(idx)
	p := len(b.cols)
	tryN := b.cfg.featuresTry
	if tryN <= 0 || tryN > p {
		tryN = p
	}
	bestGini := math.Inf(1)
	feats := b.rng.Perm(p)[:tryN]

	if cap(b.sortBuf) < n {
		b.sortBuf = make([]int, n)
	}
	order := b.sortBuf[:n]
	leftCounts := make([]int, b.nClasses)

	for _, f := range feats {
		col := b.cols[f]
		copy(order, idx)
		sort.Slice(order, func(i, j int) bool { return col[order[i]] < col[order[j]] })
		for i := range leftCounts {
			leftCounts[i] = 0
		}
		nl := 0
		for i := 0; i < n-1; i++ {
			leftCounts[b.labels[order[i]]]++
			nl++
			v, next := col[order[i]], col[order[i+1]]
			if v == next {
				continue // not a valid cut point
			}
			if nl < b.cfg.minLeaf || n-nl < b.cfg.minLeaf {
				continue
			}
			g := weightedGini(leftCounts, counts, nl, n)
			if g < bestGini {
				bestGini = g
				feat = f
				thr = v + (next-v)/2
				ok = true
			}
		}
	}
	return feat, thr, ok
}

// referenceTrain is Train with the reference builder, one tree after
// another: the same per-tree seeds, bootstraps and feature draws.
func referenceTrain(d *dataset.Dataset, cfg Config) *Forest {
	cfg = cfg.fill(d.NumAttrs())
	n := d.NumRows()
	f := &Forest{NClasses: d.Schema.NumClasses()}
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	seeds := make([]int64, cfg.NumTrees)
	for i := range seeds {
		seeds[i] = seedRng.Int63()
	}
	for _, seed := range seeds {
		rng := rand.New(rand.NewSource(seed))
		idx := make([]int, n)
		for i := range idx {
			idx[i] = rng.Intn(n)
		}
		b := &referenceBuilder{cols: d.Cols, labels: d.Labels, nClasses: f.NClasses, rng: rng,
			cfg: treeConfig{maxDepth: cfg.MaxDepth, minLeaf: cfg.MinLeaf, featuresTry: cfg.FeaturesTry}}
		b.build(idx, 0)
		f.Trees = append(f.Trees, &Tree{Nodes: b.nodes, NClasses: f.NClasses})
	}
	return f
}

// sameTrees reports the first node where two forests differ, comparing
// thresholds by their bits; "" when they are equal.
func sameTrees(got, want *Forest) string {
	if len(got.Trees) != len(want.Trees) || got.NClasses != want.NClasses {
		return fmt.Sprintf("%d trees of %d classes, want %d of %d", len(got.Trees), got.NClasses, len(want.Trees), want.NClasses)
	}
	for t := range want.Trees {
		g, w := got.Trees[t].Nodes, want.Trees[t].Nodes
		if len(g) != len(w) {
			return fmt.Sprintf("tree %d has %d nodes, want %d", t, len(g), len(w))
		}
		for i := range w {
			a, b := g[i], w[i]
			if a.Feature != b.Feature || a.Class != b.Class || a.Left != b.Left || a.Right != b.Right ||
				math.Float64bits(a.Threshold) != math.Float64bits(b.Threshold) {
				return fmt.Sprintf("tree %d node %d is %+v, want %+v", t, i, a, b)
			}
		}
	}
	return ""
}

// TestTrainMatchesReference: on every twin family, the forest Train
// grows is the reference builder's node for node and bit for bit, over a
// grid of leaf sizes, feature subsets and depths.
func TestTrainMatchesReference(t *testing.T) {
	for _, family := range datagen.Names() {
		spec, err := datagen.Spec(family)
		if err != nil {
			t.Fatal(err)
		}
		for seed := int64(1); seed <= 3; seed++ {
			d, err := spec.Generate(300, seed)
			if err != nil {
				t.Fatal(err)
			}
			for _, minLeaf := range []int{1, 2, 5} {
				for _, try := range []int{1, 0, d.NumAttrs()} {
					for _, depth := range []int{3, 10} {
						cfg := Config{NumTrees: 2, MaxDepth: depth, MinLeaf: minLeaf, FeaturesTry: try, Seed: seed}
						got, err := Train(d, cfg)
						if err != nil {
							t.Fatal(err)
						}
						if diff := sameTrees(got, referenceTrain(d, cfg)); diff != "" {
							t.Fatalf("%s seed %d %+v: %s", family, seed, cfg, diff)
						}
					}
				}
			}
		}
	}
}

// TestRankColumns: each column's values ascend strictly, every cell's
// rank names a value equal to it, and -0 and +0 share one rank, as no
// cut of the sorted walk falls between them.
func TestRankColumns(t *testing.T) {
	negZero := math.Copysign(0, -1)
	cols := [][]float64{
		{0, negZero, 1, negZero, 0, -1},
		{negZero, 0, negZero, 0, 0, negZero},
		{5e-324, -5e-324, math.MaxFloat64, -math.MaxFloat64, 5e-324, 0},
	}
	want := []int{3, 1, 5}
	ranks := rankColumns(cols)
	for f, col := range cols {
		value := ranks.value[f]
		if len(value) != want[f] {
			t.Errorf("column %d: %d distinct values %v, want %d", f, len(value), value, want[f])
		}
		for r := 1; r < len(value); r++ {
			if !(value[r-1] < value[r]) {
				t.Errorf("column %d: values %v do not ascend strictly", f, value)
			}
		}
		for i, v := range col {
			if value[ranks.rank[f][i]] != v {
				t.Errorf("column %d row %d: %v has rank %d, whose value is %v", f, i, v, ranks.rank[f][i], value[ranks.rank[f][i]])
			}
		}
	}
	if ranks.distinct != 5 {
		t.Errorf("distinct = %d, want 5", ranks.distinct)
	}
}

// splitPalette is the fuzzed columns' values: ties, both zeros, the
// subnormal and float64 extremes, and neighbours whose midpoint rounds
// onto one of them.
var splitPalette = []float64{
	0, math.Copysign(0, -1), 5e-324, -5e-324, 1e-310, -1e-310,
	math.MaxFloat64, -math.MaxFloat64, 1, math.Nextafter(1, 2), math.Nextafter(1, 0), -1, 2, 3,
}

// splitCase is one node decoded from fuzz bytes: columns of a few rows,
// labels, a bootstrap of the rows with repeats, and the split's knobs.
type splitCase struct {
	cols     [][]float64
	labels   []int
	nClasses int
	idx      []int
	cfg      treeConfig
	seed     int64
}

// decodeSplitCase reads a splitCase: a header of five bytes (columns,
// rows, classes, minLeaf and depth, features tried), then per cell a
// mode byte and eight payload bytes (mode even: a palette value, odd: raw
// bits, with NaN and ±Inf folded onto the palette), then a label byte per
// row and a row byte per bootstrap draw; the last eight bytes seed the
// feature draw. It reports false when data is too short.
func decodeSplitCase(data []byte) (splitCase, bool) {
	if len(data) < 5 {
		return splitCase{}, false
	}
	p, n := 1+int(data[0])%4, 2+int(data[1])%62
	c := splitCase{nClasses: 2 + int(data[2])%4, cfg: treeConfig{maxDepth: 1 + int(data[3]/8)%4, minLeaf: 1 + int(data[3])%8, featuresTry: int(data[4]) % (p + 1)}}
	data = data[5:]
	if len(data) < 9*p*n+2*n {
		return splitCase{}, false
	}
	c.seed = int64(binary.LittleEndian.Uint64(data[len(data)-8:]))
	for f := 0; f < p; f++ {
		col := make([]float64, n)
		for i := range col {
			mode, bits := data[0], binary.LittleEndian.Uint64(data[1:9])
			data = data[9:]
			v := math.Float64frombits(bits)
			if mode%2 == 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				v = splitPalette[bits%uint64(len(splitPalette))]
			}
			col[i] = v
		}
		c.cols = append(c.cols, col)
	}
	for i := 0; i < n; i++ {
		c.labels = append(c.labels, int(data[i])%c.nClasses)
	}
	for _, r := range data[n : 2*n] {
		c.idx = append(c.idx, int(r)%n)
	}
	return c, true
}

// builders returns the rank builder and the reference builder for the
// case, each drawing features from its own source of the case's seed.
func (c splitCase) builders() (*treeBuilder, *referenceBuilder) {
	b := newTreeBuilder(rankColumns(c.cols), c.labels, c.nClasses, c.cfg)
	b.rng = rand.New(rand.NewSource(c.seed))
	ref := &referenceBuilder{cols: c.cols, labels: c.labels, nClasses: c.nClasses, cfg: c.cfg, rng: rand.New(rand.NewSource(c.seed))}
	return b, ref
}

// splitSeeds is FuzzTrainSplit's corpus: all-palette and all-raw cells,
// few and many rows, every class count. Among them are nodes whose ranks
// are dense in their span (scanned) and sparse (sorted); see
// TestSplitSeedsTakeBothOrders.
func splitSeeds() [][]byte {
	var out [][]byte
	for s := 0; s < 16; s++ {
		rng := rand.New(rand.NewSource(int64(s)))
		p, n := 1+s%4, 2+(s*7)%30
		data := []byte{byte(p - 1), byte(n - 2), byte(s), byte(s / 4), byte(s)}
		var col0 []float64
		for cell := 0; cell < p*n; cell++ {
			if s%2 == 1 {
				v := rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
				col0 = append(col0, v)
				data = binary.LittleEndian.AppendUint64(append(data, 1), math.Float64bits(v))
			} else {
				data = binary.LittleEndian.AppendUint64(append(data, 0), uint64(rng.Intn(4+s)))
			}
		}
		// The rows of column 0's extremes, in the raw seeds.
		var extremes [2]int
		for i, v := range col0[:min(n, len(col0))] {
			if v < col0[extremes[0]] {
				extremes[0] = i
			}
			if v > col0[extremes[1]] {
				extremes[1] = i
			}
		}
		for i := 0; i < n; i++ {
			data = append(data, byte(rng.Intn(256))) // labels
		}
		for i := 0; i < n; i++ {
			if s%4 == 3 {
				// Two rows drawn n times: two ranks n apart, sparse in their span.
				data = append(data, byte(extremes[rng.Intn(2)]))
			} else {
				data = append(data, byte(rng.Intn(256)))
			}
		}
		data = binary.LittleEndian.AppendUint64(data, uint64(s)) // the feature draw's seed
		out = append(out, data)
	}
	return out
}

// TestSplitSeedsTakeBothOrders: the fuzz corpus reaches both ways
// bestSplit orders a node's ranks.
func TestSplitSeedsTakeBothOrders(t *testing.T) {
	taken := map[bool]int{}
	for _, data := range splitSeeds() {
		c, ok := decodeSplitCase(data)
		if !ok {
			t.Fatal("a seed is too short to decode")
		}
		ranks := rankColumns(c.cols)
		for _, rank := range ranks.rank {
			seen := map[int32]bool{}
			lo, hi := int32(math.MaxInt32), int32(-1)
			for _, i := range c.idx {
				seen[rank[i]] = true
				lo, hi = min(lo, rank[i]), max(hi, rank[i])
			}
			taken[scanRanks(len(seen), int(hi-lo)+1)]++
		}
	}
	if taken[true] == 0 || taken[false] == 0 {
		t.Fatalf("the seeds scan %d nodes' ranks and sort %d; both must be taken", taken[true], taken[false])
	}
}

// FuzzTrainSplit holds the rank split to the reference split — feature,
// threshold bits and ok — on small columns with heavy ties, both zeros,
// subnormals, ±MaxFloat64, repeated bootstrap rows, 2–5 classes and any
// minLeaf, and the trees of up to four levels grown from them node for
// node.
func FuzzTrainSplit(f *testing.F) {
	for _, s := range splitSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, ok := decodeSplitCase(data)
		if !ok {
			return
		}
		counts := make([]int, c.nClasses)
		for _, i := range c.idx {
			counts[c.labels[i]]++
		}
		b, ref := c.builders()
		gf, gt, gok := b.bestSplit(slices.Clone(c.idx), counts)
		wf, wt, wok := ref.bestSplit(slices.Clone(c.idx), counts)
		if gf != wf || math.Float64bits(gt) != math.Float64bits(wt) || gok != wok {
			t.Fatalf("split (%d, %v, %v), reference (%d, %v, %v)\ncols %v labels %v idx %v cfg %+v",
				gf, gt, gok, wf, wt, wok, c.cols, c.labels, c.idx, c.cfg)
		}
		// And the tree grown from the node, partitions included.
		b, ref = c.builders()
		got := b.grow(slices.Clone(c.idx), b.rng)
		ref.build(slices.Clone(c.idx), 0)
		want := &Tree{Nodes: ref.nodes, NClasses: c.nClasses}
		if diff := sameTrees(&Forest{Trees: []*Tree{got}, NClasses: c.nClasses}, &Forest{Trees: []*Tree{want}, NClasses: c.nClasses}); diff != "" {
			t.Fatalf("%s\ncols %v labels %v idx %v cfg %+v", diff, c.cols, c.labels, c.idx, c.cfg)
		}
	})
}
