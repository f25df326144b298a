// Package exact computes exact Shapley attributions for the random
// forest this repository owns end-to-end (internal/rf) in polynomial
// time: TreeSHAP (Lundberg et al., "Consistent Individualized Feature
// Attribution for Tree Ensembles") with its leaf rule restated so that
// only the features the tuple follows are unwound (Yang, "Fast
// TreeSHAP"), in multiply-adds alone; see "On the Tractability of SHAP
// Explanations" in PAPERS.md for why tree families admit this.
//
// Where KernelSHAP estimates Shapley values from perturbation samples —
// and therefore pays the classifier-invocation cost the paper shows
// dominates explanation time — the exact walker reads the tree
// structure directly. One Explain call issues exactly one classifier
// invocation (to pick the target class) and zero perturbations. The
// background distribution is the same product-of-training-marginals
// distribution every sampled explainer perturbs from: New draws
// Config.Background rows with the shared perturbation generator and
// routes them down every tree once, recording per-node visit counts
// ("covers") that weight the recursion exactly like the sampled
// estimators' expectation over fill-ins.
//
// The fast path is only legal when the model is owned in-process: New
// is the one test of that. It refuses a classifier that does not unwrap
// (through instrumentation such as rf.Counting or rf.Delayed) to an
// *rf.Forest, and internal/core falls back to KernelSHAP for those and
// for fault-injected backends.
//
// An Explainer is not safe for concurrent use: the walk's state is the
// Explainer's. Build once, Fork per goroutine.
package exact

import (
	"errors"
	"fmt"
	"math/rand"

	"shahin/internal/dataset"
	"shahin/internal/explain"
	"shahin/internal/perturb"
	"shahin/internal/rf"
)

// ErrUnsupported is returned (wrapped) by New when the classifier does
// not unwrap to a forest this package can walk. Callers use it to
// decide on the KernelSHAP fallback.
var ErrUnsupported = errors.New("exact: classifier is not an owned random forest")

// errWidth is returned by Explain for a tuple of the wrong width. It is
// a package-level value so the hotpath stays allocation-free.
var errWidth = errors.New("exact: tuple width does not match training schema")

// Config controls the exact explainer. Zero values select the noted
// defaults.
type Config struct {
	// Background is the number of background rows drawn from the
	// discretised training distribution to compute per-node cover
	// weights (default 256). More rows sharpen the conditional
	// expectation estimate; the cost is paid once at construction.
	Background int
	// Seed drives the background draw. internal/core derives it from
	// Options.Seed when left zero.
	Seed int64
}

func (c Config) withDefaults() Config {
	if c.Background <= 0 {
		c.Background = 256
	}
	return c
}

// pathEntry is one feature of the unique path. The tuple either follows
// every split on it so far (hot: o = 1, and z is the share of background
// cover that does too) or has left it (cold: o = 0; a cold z lives only
// in the walk's running product).
type pathEntry struct {
	z    float64
	feat int32
	hot  bool
}

// Explainer computes exact Shapley attributions over one owned random
// forest. It is not safe for concurrent use; Fork one per goroutine.
type Explainer struct {
	predict rf.Classifier // full instrumentation chain: one Predict per Explain

	// The forest's own pre-order layout (rf.Forest.Flat): node indices
	// are forest-wide, the left child of node i is i+1, a leaf has
	// Right == i and its class in class[i].
	nodes []rf.FlatNode
	class []int32
	roots []int32
	// What only this walk needs, under the same node index.
	frac []float64 // share of the parent's background cover that reaches the node
	mask []uint64  // bit c%64: a leaf of class c lies at or below the node (a superset past 64 classes)

	nattrs  int
	base    []float64   // background expectation of each class's vote fraction
	weights [][]float64 // weights[d][k] = k!(d-1-k)!/d!

	// Walk state, sized in New: the tuple, its attribution and target,
	// the unique path and where each attribute sits on it (-1: nowhere),
	// and two rows of coefficients per level (row 0 is the constant 1).
	x, phi []float64
	target int32
	bit    uint64
	path   []pathEntry
	slot   []int32
	poly   []float64
	stride int
	visits int64
}

// unwrapper is implemented by instrumentation wrappers (rf.Counting,
// rf.Delayed) that expose the classifier they decorate.
type unwrapper interface{ Inner() rf.Classifier }

// unwrap follows Inner() through the instrumentation chain until it
// reaches a classifier that is not a wrapper.
func unwrap(cls rf.Classifier) rf.Classifier {
	for {
		u, ok := cls.(unwrapper)
		if !ok {
			return cls
		}
		cls = u.Inner()
	}
}

// New builds an exact explainer over the forest underneath cls. The
// passed classifier is kept for the single target-class Predict each
// Explain issues, so invocation counters and calibrated delays still
// apply to that one call; the tree structure is read from the unwrapped
// forest's pre-order layout. It returns an error wrapping ErrUnsupported
// when cls does not unwrap to an *rf.Forest, or when one of its trees
// is not in pre-order (hand-assembled or hostile: it may not even be a
// tree), so New terminates on any input.
func New(st *dataset.Stats, cls rf.Classifier, cfg Config) (*Explainer, error) {
	cfg = cfg.withDefaults()
	e := &Explainer{predict: cls, nattrs: st.Schema.NumAttrs()}
	laidOut := false
	switch m := unwrap(cls).(type) {
	case *rf.Forest:
		e.nodes, e.class, e.roots, laidOut = m.Flat()
		e.base = make([]float64, m.NClasses)
	default:
		return nil, fmt.Errorf("%w (got %T)", ErrUnsupported, m)
	}
	if !laidOut {
		return nil, fmt.Errorf("%w: a tree is not in pre-order", ErrUnsupported)
	}

	depth := e.annotate(e.covers(st, cfg), float64(cfg.Background))

	e.weights = make([][]float64, depth+1)
	for d := 1; d <= depth; d++ {
		w := make([]float64, d)
		w[0] = 1 / float64(d)
		for k := 1; k < d; k++ {
			w[k] = w[k-1] * float64(k) / float64(d-k)
		}
		e.weights[d] = w
	}
	e.stride = depth + 1
	e.scratch()
	return e, nil
}

// scratch gives e walk state of its own for trees of depth stride-1. A
// path holds at most one entry per ancestor split, its hot ones at most
// depth+1 coefficients; every level above the leaves writes two rows.
func (e *Explainer) scratch() {
	depth := e.stride - 1
	e.path = make([]pathEntry, depth)
	e.slot = make([]int32, e.nattrs)
	for i := range e.slot {
		e.slot[i] = -1
	}
	e.poly = make([]float64, (2*depth+1)*e.stride)
	e.poly[0] = 1
}

// Fork returns an explainer over the same ensemble for another
// goroutine: it shares everything New derived (layout, covers, base,
// weights — read-only from here on), owns its walk state and visit
// count, and issues its one Predict per Explain through cls.
func (e *Explainer) Fork(cls rf.Classifier) *Explainer {
	f := *e
	f.predict, f.x, f.phi, f.visits = cls, nil, nil, 0
	f.scratch()
	return &f
}

// covers draws the background sample and routes every row down every
// tree once, returning per-node visit counts.
func (e *Explainer) covers(st *dataset.Stats, cfg Config) []float64 {
	cover := make([]float64, len(e.nodes))
	gen := perturb.NewGenerator(st, rand.New(rand.NewSource(cfg.Seed)))
	row := make([]float64, st.NumAttrs())
	for b := 0; b < cfg.Background; b++ {
		// A nil frozen itemset yields a pure draw from the training
		// product distribution — the same background every sampled
		// explainer perturbs against.
		gen.FillItemset(nil, row, nil)
		for _, i := range e.roots {
			for {
				cover[i]++
				n := &e.nodes[i]
				if n.Right == i {
					break
				}
				if row[n.Feature] <= n.Threshold {
					i++
				} else {
					i = n.Right
				}
			}
		}
	}
	return cover
}

// annotate derives from the covers, in one sweep from the last node to
// the first (children come after their parent), each node's frac and
// mask and base, each class's expected vote fraction over the
// background — every background row passes every root, so a leaf's
// share of its tree is its cover over their number. It returns the
// depth of the deepest tree.
func (e *Explainer) annotate(cover []float64, background float64) int {
	n := len(e.nodes)
	e.frac = make([]float64, n)
	e.mask = make([]uint64, n)
	height := make([]int32, n)
	nt := float64(len(e.roots))
	for i := n - 1; i >= 0; i-- {
		l, r := i+1, int(e.nodes[i].Right)
		if r == i {
			c := e.class[i]
			e.mask[i] = classBit(c)
			e.base[c] += cover[i] / background / nt
			continue
		}
		e.mask[i] = e.mask[l] | e.mask[r]
		height[i] = 1 + max(height[l], height[r])
		if cover[i] > 0 {
			e.frac[l], e.frac[r] = cover[l]/cover[i], cover[r]/cover[i]
		}
	}
	depth := 0
	for _, r := range e.roots {
		depth = max(depth, int(height[r]))
	}
	return depth
}

// classBit is class c's bit in a node mask.
func classBit(c int32) uint64 { return 1 << (uint32(c) % 64) }

// NodeVisits returns the cumulative number of tree nodes visited by the
// path recursion across all Explain calls. Provenance events report the
// per-tuple delta of this counter in place of pooled/fresh sample
// counts.
func (e *Explainer) NodeVisits() int64 { return e.visits }

// NumTrees returns the number of trees the explainer walks per tuple.
func (e *Explainer) NumTrees() int { return len(e.roots) }

// Explain computes the exact Shapley attribution of x toward the
// forest's predicted class; the explained output is that class's vote
// fraction. The efficiency identity holds exactly: the attribution
// weights plus the intercept sum to the vote fraction on x.
//
//shahin:hotpath
func (e *Explainer) Explain(x []float64) (*explain.Attribution, error) {
	if len(x) != e.nattrs {
		return nil, errWidth
	}
	target := e.predict.Predict(x)
	phi := make([]float64, e.nattrs)
	e.x, e.phi, e.target, e.bit = x, phi, int32(target), classBit(int32(target))
	for _, r := range e.roots {
		if e.mask[r]&e.bit != 0 {
			e.walk(r, 0, e.poly[:1], 0, 1)
		}
	}
	return e.finish(phi, target), nil
}

// finish scales the per-tree sums into vote fractions and attaches the
// target class's background expectation as the intercept.
func (e *Explainer) finish(phi []float64, target int) *explain.Attribution {
	scale := 1 / float64(len(e.roots))
	for i := range phi {
		phi[i] *= scale
	}
	return &explain.Attribution{Weights: phi, Intercept: e.base[target], Class: target}
}

// walk carries the unique path down from node i at recursion level lvl.
// With every o either 0 or 1, the path's coalition-size polynomial
// Π(z_j + o_j·y) is zc·Π_hot(z_j + y): p holds the coefficients of the
// hot product (p[len(p)-1] = 1), zc the product of the cold z's, d the
// number of path entries. A child is entered only if a leaf of the
// target class lies below it; the cold one also needs background cover
// (without it every weight below is zero). A feature that splits again
// keeps its one entry: a hot one is divided out of p and re-enters with
// the folded fraction, on either side; a cold one stays cold and only
// zc shrinks. Entries are changed in place and put back on return; p is
// never written, each level has two rows of its own for what it derives.
//
//shahin:hotpath
func (e *Explainer) walk(i int32, lvl int, p []float64, d int, zc float64) {
	e.visits++
	n := &e.nodes[i]
	if n.Right == i {
		e.leaf(i, p, d, zc)
		return
	}
	f := n.Feature
	hot, cold := i+1, n.Right
	// The model's own predicate: NaN goes right. (rf's layout holds a NaN
	// threshold as -Inf; the two part ways on a -Inf cell only.)
	if !(e.x[f] <= n.Threshold) {
		hot, cold = cold, hot
	}
	hz, cz := e.frac[hot], e.frac[cold]
	goHot, goCold := e.mask[hot]&e.bit != 0, e.mask[cold]&e.bit != 0
	row := e.poly[(2*lvl+1)*e.stride:]
	k := e.slot[f]
	switch {
	case k < 0:
		e.slot[f] = int32(d)
		if goHot {
			e.path[d] = pathEntry{z: hz, feat: f, hot: true}
			e.walk(hot, lvl+1, extend(row, p, hz), d+1, zc)
		}
		if goCold && cz != 0 {
			e.path[d] = pathEntry{feat: f}
			e.walk(cold, lvl+1, p, d+1, zc*cz)
		}
		e.slot[f] = -1
	case e.path[k].hot:
		was := e.path[k]
		q := divide(row, p, was.z)
		if goHot {
			e.path[k].z = was.z * hz
			e.walk(hot, lvl+1, extend(row[e.stride:], q, was.z*hz), d, zc)
		}
		if z := was.z * cz; goCold && z != 0 {
			e.path[k] = pathEntry{feat: f}
			e.walk(cold, lvl+1, q, d, zc*z)
		}
		e.path[k] = was
	default:
		if goHot && hz != 0 {
			e.walk(hot, lvl+1, p, d, zc*hz)
		}
		if goCold && cz != 0 {
			e.walk(cold, lvl+1, p, d, zc*cz)
		}
	}
}

// extend writes p·(y + z) into dst and returns it.
//
//shahin:hotpath
func extend(dst, p []float64, z float64) []float64 {
	h := len(p) - 1
	dst = dst[:h+2]
	dst[h+1] = p[h]
	for k := h; k >= 1; k-- {
		dst[k] = p[k-1] + z*p[k]
	}
	dst[0] = z * p[0]
	return dst
}

// divide writes p ÷ (y + z) into dst and returns it: synthetic division
// from the leading coefficient down, so it multiplies by z where the
// other direction would divide by it.
//
//shahin:hotpath
func divide(dst, p []float64, z float64) []float64 {
	h := len(p) - 1
	dst = dst[:h]
	q := p[h]
	for k := h - 1; k >= 0; k-- {
		dst[k] = q
		q = p[k] - z*q
	}
	return dst
}

// leaf adds leaf i's share to every path feature. A leaf of the target
// class is worth 1, so with v = zc and w = weights[d], a cold feature's
// Shapley sum is -v·Σ w[k]·p[k], the same for all of them; a hot
// feature's is v·(1-z)·Σ w[k]·q[k] with q = p ÷ (y + z), summed as
// divide produces it. A leaf of another class is worth 0 and returns
// first (the mask already kept the walk from all of them that do not
// alias).
//
//shahin:hotpath
func (e *Explainer) leaf(i int32, p []float64, d int, zc float64) {
	if e.class[i] != e.target {
		return
	}
	v := zc
	h := len(p) - 1
	w := e.weights[d]
	cold := 0.0
	if h < d {
		for k, c := range p {
			cold += w[k] * c
		}
		cold *= v
	}
	for _, en := range e.path[:d] {
		if !en.hot {
			e.phi[en.feat] -= cold
			continue
		}
		q, sum := 1.0, w[h-1]
		for k := h - 1; k >= 1; k-- {
			q = p[k] - en.z*q
			sum += w[k-1] * q
		}
		e.phi[en.feat] += v * (1 - en.z) * sum
	}
}

// maxBruteForceAttrs bounds BruteForce's subset enumeration; beyond ~20
// attributes the 2^p walk is both slow and numerically pointless.
const maxBruteForceAttrs = 20

// BruteForce computes the same attribution as Explain by enumerating
// all 2^p feature subsets — the Shapley definition applied directly to
// the cover-weighted conditional value function the fast path uses. It
// exists as the ground-truth oracle for tests and the bench experiment
// and refuses schemas wider than 20 attributes.
func (e *Explainer) BruteForce(x []float64) (*explain.Attribution, error) {
	if len(x) != e.nattrs {
		return nil, errWidth
	}
	p := e.nattrs
	if p > maxBruteForceAttrs {
		return nil, fmt.Errorf("exact: brute force limited to %d attributes, schema has %d", maxBruteForceAttrs, p)
	}
	target := e.predict.Predict(x)

	// v(S) for every subset mask, summed over trees.
	vals := make([]float64, 1<<p)
	for mask := range vals {
		v := 0.0
		for _, r := range e.roots {
			v += e.condExp(x, uint32(mask), int32(target), r)
		}
		vals[mask] = v
	}

	// Shapley weights |S|! (p-1-|S|)! / p! by subset size.
	fact := make([]float64, p+1)
	fact[0] = 1
	for i := 1; i <= p; i++ {
		fact[i] = fact[i-1] * float64(i)
	}
	phi := make([]float64, p)
	for i := 0; i < p; i++ {
		bit := uint32(1) << i
		for mask := uint32(0); mask < uint32(len(vals)); mask++ {
			if mask&bit != 0 {
				continue
			}
			s := popcount(mask)
			w := fact[s] * fact[p-1-s] / fact[p]
			phi[i] += w * (vals[mask|bit] - vals[mask])
		}
	}
	return e.finish(phi, target), nil
}

// condExp returns the cover-weighted conditional expectation of the
// subtree at node i: features in mask follow x, the rest mix children
// by background cover.
func (e *Explainer) condExp(x []float64, mask uint32, target, i int32) float64 {
	n := &e.nodes[i]
	l, r := i+1, n.Right
	if r == i {
		if e.class[i] == target {
			return 1
		}
		return 0
	}
	if mask&(1<<uint32(n.Feature)) != 0 {
		if x[n.Feature] <= n.Threshold {
			return e.condExp(x, mask, target, l)
		}
		return e.condExp(x, mask, target, r)
	}
	return e.frac[l]*e.condExp(x, mask, target, l) + e.frac[r]*e.condExp(x, mask, target, r)
}

func popcount(m uint32) int {
	c := 0
	for ; m != 0; m &= m - 1 {
		c++
	}
	return c
}
