package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder catches the classic Go nondeterminism bug: building ordered
// output — slice appends or string concatenation — inside a for-range
// over a map, whose iteration order changes run to run. A loop is
// clean if the value it builds is visibly sorted later in the same
// function (any call whose package or name mentions "sort" receiving
// the value), if the append target is local to the loop body (its
// order cannot escape an iteration), or if the site carries a
// //shahinvet:allow maporder annotation.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "forbid map-iteration order leaking into slices or strings without a sort",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		var funcs []ast.Node // innermost-last stack of enclosing func bodies
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case nil:
				if len(funcs) > 0 && funcs[len(funcs)-1] == nil {
					funcs = funcs[:len(funcs)-1]
				}
			case *ast.FuncDecl, *ast.FuncLit:
				funcs = append(funcs, n)
			case *ast.RangeStmt:
				if _, ok := info.TypeOf(n.X).Underlying().(*types.Map); ok {
					pass.InScope()
					checkMapRange(pass, n, enclosingBody(funcs))
				}
			}
			return true
		})
	}
}

// enclosingBody returns the body of the innermost function on the
// stack (nil at file scope, which cannot contain statements anyway).
func enclosingBody(funcs []ast.Node) *ast.BlockStmt {
	for i := len(funcs) - 1; i >= 0; i-- {
		switch fn := funcs[i].(type) {
		case *ast.FuncDecl:
			return fn.Body
		case *ast.FuncLit:
			return fn.Body
		}
	}
	return nil
}

func checkMapRange(pass *Pass, loop *ast.RangeStmt, body *ast.BlockStmt) {
	info := pass.Pkg.Info
	mapExpr := types.ExprString(loop.X)
	ast.Inspect(loop.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		switch assign.Tok {
		case token.ADD_ASSIGN:
			// s += ... on a string accumulates in iteration order.
			if len(assign.Lhs) == 1 && isStringExpr(info, assign.Lhs[0]) {
				target := types.ExprString(assign.Lhs[0])
				if !localToLoop(info, assign.Lhs[0], loop) && !sortedAfter(body, loop, target) {
					pass.Reportf(assign.Pos(),
						"string %s is built in map-iteration order over %s; collect and sort instead, or annotate with //shahinvet:allow maporder", target, mapExpr)
				}
			}
		case token.ASSIGN, token.DEFINE:
			for i, rhs := range assign.Rhs {
				if i >= len(assign.Lhs) || !isAppendCall(info, rhs) {
					continue
				}
				target := assign.Lhs[i]
				targetStr := types.ExprString(target)
				if localToLoop(info, target, loop) || sortedAfter(body, loop, targetStr) {
					continue
				}
				pass.Reportf(assign.Pos(),
					"%s is appended to in map-iteration order over %s; sort it before use or annotate with //shahinvet:allow maporder", targetStr, mapExpr)
			}
		}
		return true
	})
}

func isAppendCall(info *types.Info, e ast.Expr) bool {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	b, ok := info.Uses[id].(*types.Builtin)
	return ok && b.Name() == "append"
}

func isStringExpr(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	basic, ok := t.Underlying().(*types.Basic)
	return ok && basic.Info()&types.IsString != 0
}

// localToLoop reports whether the target is a variable declared inside
// the loop body: per-iteration values never expose iteration order.
func localToLoop(info *types.Info, target ast.Expr, loop *ast.RangeStmt) bool {
	id, ok := ast.Unparen(target).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Defs[id]
	if obj == nil {
		obj = info.Uses[id]
	}
	return obj != nil && obj.Pos() >= loop.Body.Lbrace && obj.Pos() <= loop.Body.Rbrace
}

// sortedAfter reports whether, later in the enclosing function body,
// some sort-ish call receives the target: sort.Slice(target, ...),
// slices.Sort(target), sortNodes(target), target.Sort(), and friends.
func sortedAfter(body *ast.BlockStmt, loop *ast.RangeStmt, target string) bool {
	if body == nil {
		return false
	}
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < loop.End() {
			return true
		}
		if !sortishCallee(call.Fun) {
			return true
		}
		for _, arg := range call.Args {
			if types.ExprString(arg) == target {
				found = true
				return false
			}
		}
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && types.ExprString(sel.X) == target {
			found = true
			return false
		}
		return true
	})
	return found
}

// sortishCallee reports whether the callee's name, or its package or
// receiver qualifier, mentions sorting.
func sortishCallee(fun ast.Expr) bool {
	switch fn := ast.Unparen(fun).(type) {
	case *ast.Ident:
		return strings.Contains(strings.ToLower(fn.Name), "sort")
	case *ast.SelectorExpr:
		return strings.Contains(strings.ToLower(fn.Sel.Name), "sort") ||
			strings.Contains(strings.ToLower(types.ExprString(fn.X)), "sort")
	}
	return false
}
