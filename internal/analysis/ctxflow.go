package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces end-to-end context propagation on the serving and
// fault paths, where a severed context chain silently disables the
// cancellation ladder and per-request deadlines:
//
//  1. Everywhere: inside a function that receives a context.Context, a
//     context-accepting callee must be given a context derived from the
//     incoming one — passing context.Background()/context.TODO() (or a
//     variable rooted in one) severs the chain and is a finding.
//  2. In packages named serve or fault, and in functions named *Ctx in
//     any package (the core context-threaded entry points), calling
//     context.Background() or context.TODO() at all is a finding: these
//     are exactly the paths whose contract is "the caller's context
//     reaches the classifier". A deliberate lifecycle root detached
//     from any request carries a //shahinvet:allow ctxflow directive
//     with its reason, which keeps the inventory auditable.
//
// Derivation is tracked flow-insensitively to a fixpoint within one
// declaration (nested function literals included): ctx parameters seed
// the derived set; any call taking a derived context and returning a
// context (context.With*, obs.ContextWithSpan, ...) extends it, as does
// plain aliasing.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "require incoming contexts to be forwarded; forbid context.Background/TODO on serve, fault, and *Ctx paths",
	Run:  runCtxFlow,
}

// ctxFlowBanned reports whether the package bans Background/TODO
// outright (rule 2's package scope).
func ctxFlowBanned(path string) bool {
	last := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		last = path[i+1:]
	}
	return last == "serve" || last == "fault"
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

func runCtxFlow(pass *Pass) {
	banned := ctxFlowBanned(pass.Pkg.Path)
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCtxDecl(pass, info, fd, banned)
		}
	}
}

// checkCtxDecl analyses one top-level declaration (nested literals
// included, since they capture the declaration's context).
func checkCtxDecl(pass *Pass, info *types.Info, fd *ast.FuncDecl, bannedPkg bool) {
	params := ctxParams(info, fd)
	derived := make(map[types.Object]bool, len(params))
	for obj := range params {
		derived[obj] = true
	}
	severed := make(map[types.Object]bool)

	// Fixpoint over assignments: aliasing and ctx-returning calls
	// propagate both "derived from the incoming ctx" and "rooted in
	// Background/TODO".
	for changed := true; changed; {
		changed = false
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || id.Name == "_" {
					continue
				}
				obj := info.ObjectOf(id)
				if obj == nil || !isContextType(obj.Type()) {
					continue
				}
				var rhs ast.Expr
				if len(as.Rhs) == len(as.Lhs) {
					rhs = as.Rhs[i]
				} else if len(as.Rhs) == 1 {
					rhs = as.Rhs[0] // multi-value call; arg flow decides
				}
				if rhs == nil {
					continue
				}
				if ctxExprDerived(info, rhs, derived) && !derived[obj] {
					derived[obj] = true
					changed = true
				}
				if ctxExprSevered(info, rhs, severed) && !severed[obj] {
					severed[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	hasCtxParam := len(params) > 0
	bannedFunc := bannedPkg || strings.HasSuffix(fd.Name.Name, "Ctx")
	if hasCtxParam || bannedFunc {
		pass.InScope()
	}
	reported := make(map[ast.Node]bool)

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Rule 2: bare Background/TODO on banned paths.
		if name := backgroundCallName(info, call); name != "" && bannedFunc {
			where := "package " + lastSegment(pass.Pkg.Path)
			if !bannedPkg {
				where = fd.Name.Name + " (a *Ctx context-threaded path)"
			}
			reported[call] = true
			pass.Reportf(call.Pos(),
				"context.%s() inside %s severs the caller's cancellation chain; thread the incoming context instead", name, where)
			return true
		}
		// Rule 1: severed context handed to a context-accepting callee.
		if !hasCtxParam {
			return true
		}
		sig, ok := info.TypeOf(call.Fun).(*types.Signature)
		if !ok {
			return true
		}
		for i, arg := range call.Args {
			if i >= sig.Params().Len() && !sig.Variadic() {
				break
			}
			pt := paramTypeAt(sig, i)
			if pt == nil || !isContextType(pt) {
				continue
			}
			if reported[ast.Unparen(arg)] {
				continue
			}
			if name := backgroundCallName(info, arg); name != "" {
				pass.Reportf(arg.Pos(),
					"context.%s() passed to %s while the enclosing function receives a context; forward the incoming context",
					name, types.ExprString(call.Fun))
				continue
			}
			if ctxExprSevered(info, arg, severed) && !ctxExprDerived(info, arg, derived) {
				pass.Reportf(arg.Pos(),
					"context rooted in context.Background/TODO passed to %s while the enclosing function receives a context; forward the incoming context",
					types.ExprString(call.Fun))
			}
		}
		return true
	})
}

// ctxParams collects the context.Context parameter objects of the
// declaration and of every nested function literal.
func ctxParams(info *types.Info, fd *ast.FuncDecl) map[types.Object]bool {
	out := make(map[types.Object]bool)
	addFieldList := func(fl *ast.FieldList) {
		if fl == nil {
			return
		}
		for _, field := range fl.List {
			for _, name := range field.Names {
				if obj := info.Defs[name]; obj != nil && isContextType(obj.Type()) {
					out[obj] = true
				}
			}
		}
	}
	addFieldList(fd.Type.Params)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok {
			addFieldList(lit.Type.Params)
		}
		return true
	})
	return out
}

// ctxExprDerived reports whether e evaluates to a context derived from
// the incoming one: a derived identifier, or a call any of whose
// arguments is derived (context.WithCancel(ctx), obs helpers, method
// calls on derived contexts).
func ctxExprDerived(info *types.Info, e ast.Expr, derived map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		return obj != nil && derived[obj]
	case *ast.CallExpr:
		for _, arg := range e.Args {
			if ctxExprDerived(info, arg, derived) {
				return true
			}
		}
		// Method call on a derived context (ctx.Value chains are not
		// contexts, but tc.Child()-style helpers hang off carriers).
		if sel, ok := e.Fun.(*ast.SelectorExpr); ok {
			return ctxExprDerived(info, sel.X, derived)
		}
	}
	return false
}

// ctxExprSevered mirrors ctxExprDerived for Background/TODO roots.
func ctxExprSevered(info *types.Info, e ast.Expr, severed map[types.Object]bool) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.Uses[e]
		return obj != nil && severed[obj]
	case *ast.CallExpr:
		if backgroundCallName(info, e) != "" {
			return true
		}
		for _, arg := range e.Args {
			if ctxExprSevered(info, arg, severed) {
				return true
			}
		}
	}
	return false
}

// backgroundCallName returns "Background" or "TODO" when e is a direct
// call to the corresponding context constructor, "" otherwise.
func backgroundCallName(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	if fn, ok := calleeFromPackage(info, call, "context"); ok {
		if fn.Name() == "Background" || fn.Name() == "TODO" {
			return fn.Name()
		}
	}
	return ""
}

// paramTypeAt resolves the effective parameter type for argument i,
// unwrapping the variadic tail.
func paramTypeAt(sig *types.Signature, i int) types.Type {
	n := sig.Params().Len()
	if i < n-1 || (i < n && !sig.Variadic()) {
		return sig.Params().At(i).Type()
	}
	if n == 0 {
		return nil
	}
	last := sig.Params().At(n - 1).Type()
	if sig.Variadic() {
		if sl, ok := last.(*types.Slice); ok {
			return sl.Elem()
		}
	}
	return last
}

// lastSegment returns the final path element of an import path.
func lastSegment(path string) string {
	if i := strings.LastIndex(path, "/"); i >= 0 {
		return path[i+1:]
	}
	return path
}
