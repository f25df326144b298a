package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// LockGuard is the critical-section rule. Every Lock/RLock on a sync
// mutex opens a section in its own statement list, and the section has
// one of two shapes:
//
//  1. the next statement is `defer k.Unlock()`: the section is the rest
//     of the list, held until the function returns;
//  2. a later statement of the same list is `k.Unlock()`: the section is
//     the statements between. A return, goto or break/continue that
//     leaves it must come after an Unlock in its own list.
//
// A lock whose release is in neither place, or whose section has an
// exit that leaves it held, is a finding. So is a blocking operation
// inside a section: a channel send or receive, a select without a
// default clause, time.Sleep, a sync Wait, a net/... call, or
// PredictCtx (the classifier backend may stall). Calls are judged by
// their callee alone, never by its body: a helper that blocks, like
// interface dispatch, is invisible. Function literals and go statements
// run elsewhere and are not part of the section; a panic is exempt (a
// deferred cleanup still runs, and in this codebase a panic is a crash).
// Mutexes passed by value are go vet's copylocks.
var LockGuard = &Analyzer{
	Name: "lockguard",
	Doc:  "every lock opens a critical section in its block: released there on every exit, nothing blocking inside",
	Run:  runLockGuard,
}

func runLockGuard(pass *Pass) {
	reported := make(map[token.Pos]bool) // nested sections share their inner statements
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BlockStmt:
				checkSections(pass, n.List, reported)
			case *ast.CaseClause:
				checkSections(pass, n.Body, reported)
			case *ast.CommClause:
				checkSections(pass, n.Body, reported)
			}
			return true
		})
	}
}

// checkSections checks the section of every acquire statement in list.
func checkSections(pass *Pass, list []ast.Stmt, reported map[token.Pos]bool) {
	for i, st := range list {
		es, isExpr := st.(*ast.ExprStmt)
		if !isExpr {
			continue
		}
		name, method, ok := mutexCall(pass.Pkg.Info, es.X)
		if !ok || release[method] == "" {
			continue
		}
		pass.InScope()
		s := &section{pass: pass, name: name, verb: release[method], reported: reported}
		if i+1 < len(list) {
			if d, ok := list[i+1].(*ast.DeferStmt); ok && s.releases(d.Call) {
				s.deferred = true
				s.list(list[i+2:])
				continue
			}
		}
		switch {
		case !s.list(list[i+1:]):
			pass.Reportf(st.Pos(),
				"%s locked here is not released in the same block; call %s.%s before the block ends (or defer it)",
				name, name, s.verb)
		case s.leak != nil:
			pass.Reportf(st.Pos(),
				"%s locked here is not released on every path; the exit on line %d leaves it held (call %s.%s first, or defer it)",
				name, pass.Pkg.Fset.Position(s.leak.Pos()).Line, name, s.verb)
		}
	}
}

// section walks the statements that run while one lock is held.
type section struct {
	pass     *Pass
	name     string // the mutex's selector path, "s.mu"
	verb     string // the method that releases it, Unlock or RUnlock
	deferred bool   // released by a defer: every exit is covered
	reported map[token.Pos]bool

	loops, breakables int      // enclosing loops / break targets opened inside the section
	labels            []string // labels declared inside the section
	leak              ast.Stmt // first exit that leaves with the lock held
}

// list walks a statement list up to a release of the lock and reports
// whether it met one: what follows the release runs unlocked.
func (s *section) list(list []ast.Stmt) bool {
	for _, st := range list {
		if es, ok := st.(*ast.ExprStmt); ok && s.releases(es.X) {
			return true
		}
		s.stmt(st)
	}
	return false
}

// releases reports whether e is a call releasing the lock.
func (s *section) releases(e ast.Expr) bool {
	name, method, ok := mutexCall(s.pass.Pkg.Info, e)
	return ok && name == s.name && method == s.verb
}

// stmt checks one statement's own expressions for blocking operations,
// then its exits and nested statement lists.
func (s *section) stmt(st ast.Stmt) {
	if l, ok := st.(*ast.LabeledStmt); ok {
		s.labels = append(s.labels, l.Label.Name)
		s.stmt(l.Stmt)
		s.labels = s.labels[:len(s.labels)-1]
		return
	}
	s.blocking(st)
	switch st := st.(type) {
	case *ast.ReturnStmt:
		s.exit(st, true)
	case *ast.BranchStmt:
		switch {
		case st.Tok == token.FALLTHROUGH:
		case st.Label != nil:
			s.exit(st, !s.declared(st.Label.Name))
		case st.Tok == token.BREAK:
			s.exit(st, s.breakables == 0)
		case st.Tok == token.CONTINUE:
			s.exit(st, s.loops == 0)
		}
	case *ast.BlockStmt:
		s.list(st.List)
	case *ast.IfStmt:
		s.list(st.Body.List)
		if st.Else != nil {
			s.stmt(st.Else)
		}
	case *ast.ForStmt:
		s.loop(st.Body)
	case *ast.RangeStmt:
		s.loop(st.Body)
	case *ast.SwitchStmt:
		s.clauses(st.Body)
	case *ast.TypeSwitchStmt:
		s.clauses(st.Body)
	case *ast.SelectStmt:
		if !hasDefault(st) {
			s.report(st.Pos(), "blocking select (no default clause)")
		}
		s.clauses(st.Body)
	}
}

// loop walks a loop body, inside which unlabelled break and continue
// stay in the section.
func (s *section) loop(body *ast.BlockStmt) {
	s.loops++
	s.breakables++
	s.list(body.List)
	s.loops--
	s.breakables--
}

// clauses walks the clauses of a switch or select, inside which an
// unlabelled break stays in the section.
func (s *section) clauses(body *ast.BlockStmt) {
	s.breakables++
	for _, st := range body.List {
		switch cc := st.(type) {
		case *ast.CaseClause:
			for _, e := range cc.List {
				s.blocking(e)
			}
			s.list(cc.Body)
		case *ast.CommClause:
			s.list(cc.Body) // the comm itself is the select's
		}
	}
	s.breakables--
}

// exit records st as the section's first leak when it leaves the
// section with the lock held.
func (s *section) exit(st ast.Stmt, leaves bool) {
	if leaves && !s.deferred && s.leak == nil {
		s.leak = st
	}
}

// declared reports whether label names a statement inside the section.
func (s *section) declared(label string) bool {
	for _, l := range s.labels {
		if l == label {
			return true
		}
	}
	return false
}

// blocking reports the blocking operations in n's own expressions: it
// does not enter nested statement lists (the walk reaches those under
// the right lock state), function literals or go statements.
func (s *section) blocking(n ast.Node) {
	ast.Inspect(n, func(c ast.Node) bool {
		switch c := c.(type) {
		case *ast.BlockStmt, *ast.CaseClause, *ast.CommClause, *ast.FuncLit, *ast.GoStmt:
			return false
		case *ast.IfStmt:
			return c == n // an else-if is a statement of its own
		case *ast.SendStmt:
			s.report(c.Pos(), "channel send")
		case *ast.UnaryExpr:
			if c.Op == token.ARROW {
				s.report(c.Pos(), "channel receive")
			}
		case *ast.CallExpr:
			if why := blockingCall(s.pass.Pkg.Info, c); why != "" {
				s.report(c.Pos(), why)
			}
		}
		return true
	})
}

// report records one blocking operation, once per position.
func (s *section) report(pos token.Pos, why string) {
	if s.reported[pos] {
		return
	}
	s.reported[pos] = true
	s.pass.Reportf(pos, "%s while %s is held; release the lock first or make the operation non-blocking", why, s.name)
}

// hasDefault reports whether a select has a default clause (and so
// cannot block).
func hasDefault(sel *ast.SelectStmt) bool {
	for _, cs := range sel.Body.List {
		if cc, ok := cs.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// release maps each acquiring mutex method to the one that releases it.
var release = map[string]string{"Lock": "Unlock", "RLock": "RUnlock"}

// mutexCall recognises e as a Lock, RLock, Unlock or RUnlock call on a
// sync mutex (or a type embedding one via field selection), returning
// the mutex's selector path and the method.
func mutexCall(info *types.Info, e ast.Expr) (name, method string, ok bool) {
	call, isCall := e.(*ast.CallExpr)
	if !isCall {
		return "", "", false
	}
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch method = sel.Sel.Name; method {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	tv, typed := info.Types[sel.X]
	if !typed {
		return "", "", false
	}
	t := tv.Type
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != "sync" {
		return "", "", false
	}
	if n := named.Obj().Name(); n != "Mutex" && n != "RWMutex" {
		return "", "", false
	}
	name, ok = exprPath(sel.X)
	return name, method, ok
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

// blockingCall classifies one call expression ("" when not blocking).
func blockingCall(info *types.Info, call *ast.CallExpr) string {
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "PredictCtx" {
		return "classifier PredictCtx call"
	}
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	switch path := fn.Pkg().Path(); {
	case path == "time" && fn.Name() == "Sleep",
		path == "sync" && fn.Name() == "Wait":
		return fn.FullName()
	case path == "net" || strings.HasPrefix(path, "net/"):
		return "network call " + fn.FullName()
	}
	return ""
}
