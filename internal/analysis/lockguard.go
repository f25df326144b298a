package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockGuard is the lock-lifecycle analyzer. Two invariants, both
// flow-aware (a mutex passed by value is go vet's copylocks, which CI
// runs):
//
//  1. every Lock/RLock is released on every normal control-flow path
//     (defer counts, panic paths are exempt — see cfg.go);
//  2. no potentially blocking operation runs while a lock may be held:
//     channel sends/receives, selects without a default clause,
//     net/http calls, time.Sleep, sync.WaitGroup.Wait, PredictCtx (the
//     classifier backend may stall), and calls to same-package
//     functions that transitively do any of those (the package-level
//     call-graph approximation; cross-package callees are assumed
//     non-blocking).
//
// For invariant 2 a deferred unlock does NOT release the lock — the
// lock is held until function exit — while for invariant 1 it does.
// The two passes therefore run with different transfer functions over
// the same CFG.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "forbid locks not released on all paths and blocking calls under a held lock",
	Run:  runLockGuard,
}

func runLockGuard(pass *Pass) {
	blocking := blockingFuncs(pass.Pkg)
	forEachFuncBody(pass.Pkg, func(body *ast.BlockStmt) {
		checkLockFlow(pass, body, blocking)
	})
}

// forEachFuncBody visits every function body in the package: each
// top-level declaration with a body, and each function literal nested
// inside one (literals are opaque to the enclosing CFG, so each is its
// own unit).
func forEachFuncBody(pkg *Package, visit func(body *ast.BlockStmt)) {
	for _, f := range pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			visit(fd.Body)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					visit(lit.Body)
				}
				return true
			})
		}
	}
}

// lockOp classifies one mutex method call.
type lockOp struct {
	key     string // "expr-path:mode", e.g. "s.mu:w"
	acquire bool
}

// classifyLockCall recognises k.Lock/RLock/Unlock/RUnlock on a sync
// mutex (or a type embedding one via field selection).
func classifyLockCall(info *types.Info, call *ast.CallExpr) (lockOp, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockOp{}, false
	}
	var mode string
	var acquire bool
	switch sel.Sel.Name {
	case "Lock":
		mode, acquire = "w", true
	case "Unlock":
		mode, acquire = "w", false
	case "RLock":
		mode, acquire = "r", true
	case "RUnlock":
		mode, acquire = "r", false
	default:
		return lockOp{}, false
	}
	// The receiver must be (or point to) a sync.Mutex / sync.RWMutex.
	tv, ok := info.Types[sel.X]
	if !ok {
		return lockOp{}, false
	}
	t := tv.Type
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return lockOp{}, false
	}
	if name := named.Obj().Name(); name != "Mutex" && name != "RWMutex" {
		return lockOp{}, false
	}
	path, ok := exprPath(sel.X)
	if !ok {
		return lockOp{}, false
	}
	return lockOp{key: path + ":" + mode, acquire: acquire}, true
}

// exprPath renders a selector chain of plain identifiers ("s.mu",
// "b.inner.mu") as a stable key; anything else (index expressions,
// call results) is untrackable.
func exprPath(e ast.Expr) (string, bool) {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name, true
	case *ast.SelectorExpr:
		base, ok := exprPath(e.X)
		if !ok {
			return "", false
		}
		return base + "." + e.Sel.Name, true
	case *ast.UnaryExpr:
		return exprPath(e.X)
	}
	return "", false
}

// checkLockFlow runs both lock passes over one function body.
func checkLockFlow(pass *Pass, body *ast.BlockStmt, blocking map[*types.Func]bool) {
	info := pass.Pkg.Info
	if !usesLocks(info, body) {
		return
	}
	pass.InScope()
	g := BuildCFG(body)
	nonBlockingComm := nonBlockingSelectStmts(body)

	// Pass A (invariant 1): deferred unlocks release. Anything still
	// held at the normal exit is a leak on some path.
	leak := func(blk *Block, in Facts) Facts {
		for _, n := range blk.Nodes {
			lockTransfer(info, n, in, true)
		}
		return in
	}
	resA := ForwardMay(g, leak)
	for key, pos := range resA.AtExit {
		name := strings.TrimSuffix(strings.TrimSuffix(key, ":w"), ":r")
		verb := "Unlock"
		if strings.HasSuffix(key, ":r") {
			verb = "RUnlock"
		}
		pass.Reportf(pos,
			"%s locked here is not released on every path; call %s.%s on all exits (or defer it)",
			name, name, verb)
	}

	// Pass B (invariant 2): deferred unlocks do NOT release — the lock
	// is held until exit. At every node reached with a non-empty held
	// set, blocking operations are findings.
	held := func(blk *Block, in Facts) Facts {
		for _, n := range blk.Nodes {
			lockTransfer(info, n, in, false)
		}
		return in
	}
	resB := ForwardMay(g, held)
	reported := make(map[string]bool)
	for _, blk := range g.ReversePostorder() {
		in, ok := resB.In[blk]
		if !ok {
			continue
		}
		facts := in.clone()
		for _, n := range blk.Nodes {
			if len(facts) > 0 {
				if why := blockingNode(info, n, blocking, nonBlockingComm); why != "" {
					lockName := heldLockName(facts)
					at := pass.Pkg.Fset.Position(n.Pos())
					dedup := why + "@" + at.String()
					if !reported[dedup] {
						reported[dedup] = true
						pass.Reportf(n.Pos(),
							"%s while %s is held; release the lock first or make the operation non-blocking", why, lockName)
					}
				}
			}
			lockTransfer(info, n, facts, false)
		}
	}
}

// usesLocks cheaply pre-screens a body for Lock/RLock calls.
func usesLocks(info *types.Info, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if op, ok := classifyLockCall(info, call); ok && op.acquire {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// lockTransfer applies one node to the held-lock set. deferReleases
// selects the pass-A semantics (deferred unlock discharges the fact).
func lockTransfer(info *types.Info, n ast.Node, facts Facts, deferReleases bool) {
	applyCall := func(call *ast.CallExpr, deferred bool) {
		op, ok := classifyLockCall(info, call)
		if !ok {
			return
		}
		switch {
		case op.acquire && !deferred:
			facts[op.key] = call.Pos()
		case !op.acquire && (!deferred || deferReleases):
			delete(facts, op.key)
		}
	}
	switch n := n.(type) {
	case *ast.DeferStmt:
		applyCall(n.Call, true)
		if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(c ast.Node) bool {
				if call, ok := c.(*ast.CallExpr); ok {
					applyCall(call, true)
				}
				return true
			})
		}
	default:
		ast.Inspect(n, func(c ast.Node) bool {
			if _, ok := c.(*ast.FuncLit); ok {
				return false // closures run elsewhere
			}
			if call, ok := c.(*ast.CallExpr); ok {
				applyCall(call, false)
			}
			return true
		})
	}
}

// heldLockName renders the held set for a diagnostic, deterministically
// picking the lexicographically first lock.
func heldLockName(facts Facts) string {
	best := ""
	for key := range facts {
		name := strings.TrimSuffix(strings.TrimSuffix(key, ":w"), ":r")
		if best == "" || name < best {
			best = name
		}
	}
	return best
}

// nonBlockingSelectStmts collects select statements with a default
// clause (non-blocking by construction) and their comm statements.
func nonBlockingSelectStmts(body *ast.BlockStmt) map[ast.Node]bool {
	out := make(map[ast.Node]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, cs := range sel.Body.List {
			if cc, ok := cs.(*ast.CommClause); ok && cc.Comm == nil {
				hasDefault = true
			}
		}
		if hasDefault {
			out[sel] = true
			for _, cs := range sel.Body.List {
				if cc, ok := cs.(*ast.CommClause); ok && cc.Comm != nil {
					out[cc.Comm] = true
				}
			}
		}
		return true
	})
	return out
}

// blockingNode reports why node n blocks ("" when it does not):
// channel operations outside non-blocking selects, selects without
// default, sleeps, WaitGroup waits, net/http calls, PredictCtx, and
// same-package calls with a blocking summary.
func blockingNode(info *types.Info, n ast.Node, blocking map[*types.Func]bool, nonBlockingComm map[ast.Node]bool) string {
	if nonBlockingComm[n] {
		return ""
	}
	why := ""
	ast.Inspect(n, func(c ast.Node) bool {
		if why != "" {
			return false
		}
		if _, ok := c.(*ast.FuncLit); ok {
			return false
		}
		if nonBlockingComm[c] {
			return false
		}
		switch c := c.(type) {
		case *ast.SendStmt:
			why = "channel send"
		case *ast.UnaryExpr:
			if c.Op == token.ARROW {
				why = "channel receive"
			}
		case *ast.SelectStmt:
			if !nonBlockingComm[c] {
				why = "blocking select (no default clause)"
			}
			return false
		case *ast.GoStmt:
			return false // the spawned goroutine blocks, not this one
		case *ast.CallExpr:
			why = blockingCall(info, c, blocking)
		}
		return why == ""
	})
	return why
}

// blockingCall classifies one call expression ("" when not blocking).
func blockingCall(info *types.Info, call *ast.CallExpr, blocking map[*types.Func]bool) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "PredictCtx" {
		return "classifier PredictCtx call"
	}
	fn := staticCallee(info, call)
	if fn == nil {
		return ""
	}
	if pkg := fn.Pkg(); pkg != nil {
		path := pkg.Path()
		if path == "time" && fn.Name() == "Sleep" {
			return "time.Sleep"
		}
		if path == "sync" && fn.Name() == "Wait" {
			return "sync WaitGroup wait"
		}
		if path == "net" || strings.HasPrefix(path, "net/") {
			return "network call " + path + "." + fn.Name()
		}
	}
	if fn.Name() == "Wait" {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			t := sig.Recv().Type()
			if p, isPtr := t.(*types.Pointer); isPtr {
				t = p.Elem()
			}
			if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil &&
				named.Obj().Pkg().Path() == "sync" {
				return "sync." + named.Obj().Name() + ".Wait"
			}
		}
	}
	if blocking[fn] {
		return "call to " + fn.Name() + " (which may block)"
	}
	return ""
}

// blockingFuncs computes the package's blocking summaries: functions
// whose body directly contains a blocking operation, widened through
// the package call graph to everything that calls them.
func blockingFuncs(pkg *Package) map[*types.Func]bool {
	g := BuildCallGraph(pkg)
	seed := make(map[*types.Func]bool)
	none := map[*types.Func]bool{}
	for fn, fd := range g.Decls {
		nonBlocking := nonBlockingSelectStmts(fd.Body)
		direct := false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if direct {
				return false
			}
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			switch n.(type) {
			case *ast.SendStmt, *ast.UnaryExpr, *ast.SelectStmt, *ast.CallExpr:
				if why := blockingNode(pkg.Info, n, none, nonBlocking); why != "" {
					direct = true
					return false
				}
				// Descend no further: blockingNode already walked this
				// subtree.
				return false
			}
			return true
		})
		if direct {
			seed[fn] = true
		}
	}
	return g.Transitive(seed)
}
