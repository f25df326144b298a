package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// SpanEnd is the span-lifecycle analyzer: every span obtained from
// StartSpan must be ended on every normal control-flow path out of the
// function that started it. A span that
// escapes — returned, passed to another function, stored in a struct,
// captured by a non-deferred closure — transfers the obligation to the
// new owner and stops being tracked (the package-level approximation:
// ownership is checked one function at a time).
//
// "defer s.End()" (directly or inside a deferred function literal)
// discharges the obligation at the point the defer statement executes,
// which is sound: the deferred call runs on every exit of every path
// that registered it. Paths that end in panic(...) are not checked
// (see cfg.go for the trade-off).
var SpanEnd = &Analyzer{
	Name: "spanend",
	Doc:  "require StartSpan results to be ended on all control-flow paths",
	Run:  runSpanEnd,
}

// spanStarters are the method names whose results carry an End
// obligation. Matching is by method name: fixtures cannot import
// internal/obs (the fixture loader resolves imports as stdlib only),
// and no other type in this module declares methods with these names.
var spanStarters = map[string]bool{
	"StartSpan": true,
}

func runSpanEnd(pass *Pass) {
	forEachFuncBody(pass.Pkg, func(fd *ast.FuncDecl, body *ast.BlockStmt) {
		checkSpanBody(pass, body)
	})
}

// checkSpanBody runs the open-span may-analysis over one function body.
func checkSpanBody(pass *Pass, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	tracked := spanVars(info, body)
	if len(tracked) == 0 {
		return
	}
	g := BuildCFG(body)
	names := make(map[string]string) // fact key -> variable name
	transfer := func(blk *Block, in Facts) Facts {
		for _, n := range blk.Nodes {
			spanTransfer(info, tracked, names, n, in)
		}
		return in
	}
	res := ForwardMay(g, transfer)
	reported := make(map[string]bool)
	for key, pos := range res.AtExit {
		if reported[key] {
			continue
		}
		reported[key] = true
		pass.Reportf(pos,
			"span %s started here is not ended on every path; call %s.End() on all exits (or defer it)",
			names[key], names[key])
	}
}

// spanVars finds the local variables assigned from a span-starting
// call anywhere in the body, keyed by their defining object.
func spanVars(info *types.Info, body *ast.BlockStmt) map[types.Object]bool {
	out := make(map[types.Object]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Rhs) != 1 || len(as.Lhs) != 1 {
			return true
		}
		if !isSpanStartCall(as.Rhs[0]) {
			return true
		}
		id, ok := as.Lhs[0].(*ast.Ident)
		if !ok || id.Name == "_" {
			return true
		}
		if obj := info.Defs[id]; obj != nil {
			out[obj] = true
		} else if obj := info.Uses[id]; obj != nil {
			// plain `=` re-assignment to an existing local
			if _, isVar := obj.(*types.Var); isVar {
				out[obj] = true
			}
		}
		return true
	})
	return out
}

// isSpanStartCall reports whether e is a call to a span starter method.
func isSpanStartCall(e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && spanStarters[sel.Sel.Name]
}

// spanTransfer applies one CFG node to the open-span set: opens on
// span-start assignments, closes on End calls, deferred End calls, and
// every escaping use.
func spanTransfer(info *types.Info, tracked map[types.Object]bool, names map[string]string, n ast.Node, facts Facts) {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Rhs) == 1 && len(n.Lhs) == 1 && isSpanStartCall(n.Rhs[0]) {
			if id, ok := n.Lhs[0].(*ast.Ident); ok {
				if obj := spanObjOf(info, id); obj != nil && tracked[obj] {
					// Arguments of the start call may escape other spans.
					startCall := ast.Unparen(n.Rhs[0]).(*ast.CallExpr)
					args := make([]ast.Node, len(startCall.Args))
					for i, a := range startCall.Args {
						args[i] = a
					}
					spanScanUses(info, tracked, names, args, facts)
					key := spanKey(obj)
					names[key] = obj.Name()
					facts[key] = n.Rhs[0].Pos()
					return
				}
			}
		}
	case *ast.DeferStmt:
		spanDeferredCloses(info, tracked, n.Call, facts)
		return
	case *ast.GoStmt:
		// A goroutine that ends the span takes ownership; so does one
		// that merely captures it.
		spanDeferredCloses(info, tracked, n.Call, facts)
		return
	}
	spanScanUses(info, tracked, names, []ast.Node{n}, facts)
}

// spanDeferredCloses handles `defer x.End()`, `go x.End()` and
// deferred/spawned function literals: every tracked span whose End is
// called inside — or that is captured at all — is discharged.
func spanDeferredCloses(info *types.Info, tracked map[types.Object]bool, call *ast.CallExpr, facts Facts) {
	ast.Inspect(call, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		if obj := info.Uses[id]; obj != nil && tracked[obj] {
			delete(facts, spanKey(obj))
		}
		return true
	})
}

// spanScanUses walks expression trees looking for uses of tracked span
// variables, closing the fact on End calls and on escaping uses. A use
// as the receiver of a method call (s.SetAttr, s.Child, s.Dump) and a
// nil comparison are neither: the span stays open and tracked.
func spanScanUses(info *types.Info, tracked map[types.Object]bool, names map[string]string, roots []ast.Node, facts Facts) {
	var walk func(n ast.Node, receiverOK bool)
	walk = func(n ast.Node, receiverOK bool) {
		switch n := n.(type) {
		case nil:
			return
		case *ast.FuncLit:
			// A non-deferred closure capturing the span takes ownership.
			spanDeferredCloses(info, tracked, &ast.CallExpr{Fun: n}, facts)
			return
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil && tracked[obj] {
						if sel.Sel.Name == "End" {
							delete(facts, spanKey(obj))
						}
						// Method call on the span: receiver use, not an
						// escape; still scan the arguments.
						for _, a := range n.Args {
							walk(a, false)
						}
						return
					}
				}
			}
			walk(n.Fun, true)
			for _, a := range n.Args {
				walk(a, false)
			}
			return
		case *ast.BinaryExpr:
			if (n.Op == token.EQL || n.Op == token.NEQ) && (isNilIdent(info, n.X) || isNilIdent(info, n.Y)) {
				return // nil check keeps the span tracked
			}
		case *ast.Ident:
			if obj := info.Uses[n]; obj != nil && tracked[obj] && !receiverOK {
				delete(facts, spanKey(obj)) // escape: ownership transferred
			}
			return
		}
		for _, c := range childNodes(n) {
			walk(c, false)
		}
	}
	for _, r := range roots {
		walk(r, false)
	}
}

// spanObjOf resolves an identifier to its object whether it defines or
// uses the variable.
func spanObjOf(info *types.Info, id *ast.Ident) types.Object {
	if obj := info.Defs[id]; obj != nil {
		return obj
	}
	return info.Uses[id]
}

// spanKey is the stable fact key of a span variable.
func spanKey(obj types.Object) string {
	return fmt.Sprintf("%s@%d", obj.Name(), obj.Pos())
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	_, isNil := info.Uses[id].(*types.Nil)
	return isNil
}
