package analysis

import "go/token"

// This file is the dataflow half of the flow framework: a small forward
// engine over FuncCFG, specialised to the fact shape lockguard needs —
// a set of "open" resources keyed by a stable string, each remembering
// where it was opened.
//
// The engine runs a may-analysis: facts are joined by set union, so a
// resource is "open" at a point if it is open along ANY path reaching
// it. For a must-release property ("every lock is unlocked on all
// paths") that is exactly the check:
// anything still open in the set flowing into the normal Exit block is
// open on at least one path, which is a violation. Paths into PanicExit
// are deliberately not checked (see cfg.go).

// Facts is a may-set of open resources: key -> position where the
// resource was opened (kept for diagnostics; on a join conflict the
// earliest position wins, deterministically).
type Facts map[string]token.Pos

// clone copies a fact set.
func (f Facts) clone() Facts {
	out := make(Facts, len(f))
	for k, v := range f {
		out[k] = v
	}
	return out
}

// join unions other into f, keeping the earliest open position per key.
func (f Facts) join(other Facts) (Facts, bool) {
	changed := false
	for k, v := range other {
		if have, ok := f[k]; !ok || v < have {
			if !ok {
				changed = true
			}
			f[k] = v
		}
	}
	return f, changed
}

// equal reports whether two fact sets have the same keys.
func (f Facts) equal(other Facts) bool {
	if len(f) != len(other) {
		return false
	}
	for k := range f {
		if _, ok := other[k]; !ok {
			return false
		}
	}
	return true
}

// Transfer mutates the facts for one block node: open resources are
// added (Open), released ones removed (Close). The engine hands each
// transfer function a private copy, so implementations may mutate in
// place.
type Transfer func(blk *Block, in Facts) Facts

// FlowResult is the fixpoint of a forward may-analysis.
type FlowResult struct {
	// In maps each reachable block to the facts flowing into it.
	In map[*Block]Facts
	// AtExit is the fact set flowing into the normal Exit block:
	// resources open on at least one return path.
	AtExit Facts
}

// ForwardMay runs the forward may-analysis to fixpoint: worklist over
// reverse postorder, union join. transfer is applied once per block per
// sweep and must be deterministic.
func ForwardMay(g *FuncCFG, transfer Transfer) FlowResult {
	rpo := g.ReversePostorder()
	in := make(map[*Block]Facts, len(rpo))
	out := make(map[*Block]Facts, len(rpo))
	in[g.Entry] = Facts{}

	// Iterate RPO sweeps until no out-set changes. Go CFGs are reducible
	// in practice, so this converges in two or three sweeps.
	for changed := true; changed; {
		changed = false
		for _, b := range rpo {
			inb := Facts{}
			if b == g.Entry {
				inb = in[g.Entry].clone()
			}
			for _, p := range b.Preds {
				if po, ok := out[p]; ok {
					inb, _ = inb.join(po)
				}
			}
			in[b] = inb
			newOut := transfer(b, inb.clone())
			if old, ok := out[b]; !ok || !old.equal(newOut) {
				out[b] = newOut
				changed = true
			}
		}
	}

	exitIn := Facts{}
	for _, p := range g.Exit.Preds {
		if po, ok := out[p]; ok {
			exitIn, _ = exitIn.join(po)
		}
	}
	return FlowResult{In: in, AtExit: exitIn}
}
