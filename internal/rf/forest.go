package rf

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"

	"shahin/internal/dataset"
)

// Config controls random forest training. The zero value is filled with
// reasonable defaults by Train.
type Config struct {
	NumTrees    int // default 100
	MaxDepth    int // default 12
	MinLeaf     int // default 2
	FeaturesTry int // features per split; default floor(sqrt(p))
	Seed        int64
}

func (c Config) fill(p int) Config {
	if c.NumTrees <= 0 {
		c.NumTrees = 100
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 12
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	if c.FeaturesTry <= 0 {
		c.FeaturesTry = int(math.Sqrt(float64(p)))
		if c.FeaturesTry < 1 {
			c.FeaturesTry = 1
		}
	}
	return c
}

// Forest is a bagged ensemble of CART trees; it is the black-box
// classifier of the paper's experiments.
type Forest struct {
	Trees    []*Tree
	NClasses int

	// flat is the layout Predict walks (see flatForest), derived from
	// Trees by Train and Load, and on first use for a Forest assembled
	// by hand. Trees must not change once it exists.
	flat atomic.Pointer[flatForest]
}

var _ Classifier = (*Forest)(nil)

// Train fits a random forest on a labelled dataset: one bootstrap sample
// per tree, Gini splits over a random feature subset per node. Every
// value must be finite. The columns are ranked once (see rankTable) and
// the trees grown in parallel from that one table; the result is
// deterministic for a given seed.
func Train(d *dataset.Dataset, cfg Config) (*Forest, error) {
	if d.Labels == nil {
		return nil, fmt.Errorf("rf: training data has no labels")
	}
	nClasses := d.Schema.NumClasses()
	if err := validateInput(d.Cols, d.Labels, nClasses); err != nil {
		return nil, err
	}
	cfg = cfg.fill(d.NumAttrs())
	n := d.NumRows()

	f := &Forest{Trees: make([]*Tree, cfg.NumTrees), NClasses: nClasses}
	// Derive one seed per tree up front so parallel growth stays
	// deterministic.
	seedRng := rand.New(rand.NewSource(cfg.Seed))
	seeds := make([]int64, cfg.NumTrees)
	for i := range seeds {
		seeds[i] = seedRng.Int63()
	}

	ranks := rankColumns(d.Cols)
	tc := treeConfig{maxDepth: cfg.MaxDepth, minLeaf: cfg.MinLeaf, featuresTry: cfg.FeaturesTry}
	inParallel(cfg.NumTrees, func() func(t int) {
		b := newTreeBuilder(ranks, d.Labels, nClasses, tc)
		idx := make([]int, n)
		return func(t int) {
			rng := rand.New(rand.NewSource(seeds[t]))
			for i := range idx {
				idx[i] = rng.Intn(n) // bootstrap with replacement
			}
			f.Trees[t] = b.grow(idx, rng)
		}
	})
	f.flat.Store(flatten(f.Trees))
	return f, nil
}

// inParallel runs job(i) for every i < n on up to GOMAXPROCS goroutines
// and returns once all have run. Each goroutine makes its job once, so a
// job keeps its scratch across the items it runs.
func inParallel(n int, newJob func() func(i int)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			job := newJob()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				job(i)
			}
		}()
	}
	wg.Wait()
}

// NumClasses implements Classifier.
func (f *Forest) NumClasses() int { return f.NClasses }

// votesOnStack is the largest class count whose vote tally lives in
// Predict's frame; a forest with more classes pays one allocation per
// call.
const votesOnStack = 16

// Predict returns the majority vote over the trees, the lowest class
// among tied leaders. It walks only until the vote is decided (see
// flatForest.tally).
//
//shahin:hotpath
func (f *Forest) Predict(x []float64) int {
	var buf [votesOnStack]int
	votes := buf[:]
	if f.NClasses > votesOnStack {
		votes = make([]int, f.NClasses)
	}
	votes = votes[:f.NClasses]
	f.tally(x, votes, true)
	best, bestN := 0, -1
	for c, v := range votes {
		if v > bestN {
			best, bestN = c, v
		}
	}
	return best
}

// tally adds every tree's vote for x to votes, which has one slot per
// class — or, with stopDecided, only the votes cast before the argmax
// was settled (see flatForest.tally). Rows of finite cells take the
// derived layout's walk. A NaN or infinite cell does not survive its
// sign-bit comparison (NaN has no defined sign; -Inf - -Inf is NaN), so
// such a row takes the reference walk, which sends NaN right at every
// split; v-v is +0 for a finite v and NaN otherwise.
func (f *Forest) tally(x []float64, votes []int, stopDecided bool) {
	finite := true
	for _, v := range x {
		if v-v != 0 {
			finite = false
			break
		}
	}
	trees := f.Trees
	if finite {
		ff := f.layout()
		if ff.tally(x, votes, stopDecided) {
			return
		}
		trees = ff.slow
	}
	for _, t := range trees {
		votes[t.Predict(x)]++
	}
}

// layout returns the derived layout, deriving it on first use; racing
// first calls each derive the same one.
func (f *Forest) layout() *flatForest {
	ff := f.flat.Load()
	if ff == nil {
		ff = flatten(f.Trees)
		f.flat.Store(ff)
	}
	return ff
}

// Flat exposes the derived layout, read-only, to the exact explainer:
// every laid-out tree's nodes in pre-order (indices forest-wide, the
// left child of node i is i+1, a leaf has Right == i), the class of each
// leaf and the root of each tree. ok is false when some tree could not
// be laid out (see flatten) and so has no bounded walk.
func (f *Forest) Flat() (nodes []FlatNode, class, roots []int32, ok bool) {
	ff := f.layout()
	return ff.nodes, ff.class, ff.roots, len(ff.slow) == 0
}

// Prob returns the per-class vote fractions. The slice is freshly
// allocated per call.
func (f *Forest) Prob(x []float64) []float64 {
	votes := make([]int, f.NClasses)
	f.tally(x, votes, false)
	p := make([]float64, f.NClasses)
	for c, v := range votes {
		p[c] = float64(v) / float64(len(f.Trees))
	}
	return p
}

// Accuracy returns the fraction of rows in d the forest classifies
// correctly.
func (f *Forest) Accuracy(d *dataset.Dataset) float64 {
	if d.NumRows() == 0 {
		return 0
	}
	correct := 0
	row := make([]float64, d.NumAttrs())
	for i := 0; i < d.NumRows(); i++ {
		row = d.Row(i, row)
		if f.Predict(row) == d.Labels[i] {
			correct++
		}
	}
	return float64(correct) / float64(d.NumRows())
}

// Save serialises the forest with encoding/gob.
func (f *Forest) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(f)
}

// maxLoadClasses bounds the class count Load accepts: Predict and Prob
// allocate one tally slot per class on every call.
const maxLoadClasses = 1 << 16

// Load deserialises a forest written by Save. It refuses a forest whose
// walks might not end or might answer outside [0, NClasses): every tree
// must be one Train could have built (see wellFormed), and NClasses at
// most maxLoadClasses.
func Load(r io.Reader) (*Forest, error) {
	var f Forest
	if err := gob.NewDecoder(r).Decode(&f); err != nil {
		return nil, fmt.Errorf("rf: decoding forest: %w", err)
	}
	if len(f.Trees) == 0 || f.NClasses < 2 || f.NClasses > maxLoadClasses {
		return nil, fmt.Errorf("rf: decoded forest is empty or degenerate")
	}
	for i, t := range f.Trees {
		if !t.wellFormed(f.NClasses) {
			return nil, fmt.Errorf("rf: decoded tree %d is not a pre-order tree with leaf classes below %d", i, f.NClasses)
		}
	}
	f.flat.Store(flatten(f.Trees))
	return &f, nil
}
