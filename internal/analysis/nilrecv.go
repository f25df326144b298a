package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// NilRecv mechanically enforces the obs layer's documented contract:
// every exported pointer-receiver method is a no-op on a nil receiver,
// so pipeline code can instrument unconditionally and a run without a
// recorder pays nothing. Concretely: in packages named obs, no
// exported pointer-receiver method may touch a receiver field before a
// `recv == nil` / `recv != nil` comparison appears. Methods that only
// delegate to other (themselves guarded) methods need no guard —
// calling a method on a nil pointer is legal; reading its fields is
// the panic.
var NilRecv = &Analyzer{
	Name: "nilrecv",
	Doc:  "require nil-receiver guards on exported pointer-receiver methods in obs packages",
	Run:  runNilRecv,
}

func runNilRecv(pass *Pass) {
	if !strings.HasSuffix(pass.Pkg.Path, "/obs") { // observability packages only
		return
	}
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !fd.Name.IsExported() {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			sig := fn.Type().(*types.Signature)
			if sig.Recv() == nil {
				continue
			}
			if _, ok := sig.Recv().Type().(*types.Pointer); !ok {
				continue // value receivers cannot be nil pointers
			}
			pass.InScope()
			checkNilGuard(pass, fd)
		}
	}
}

func checkNilGuard(pass *Pass, fd *ast.FuncDecl) {
	names := fd.Recv.List[0].Names
	if len(names) == 0 || names[0].Name == "_" {
		return // receiver unnamed: its fields cannot be touched
	}
	recv := pass.Pkg.Info.Defs[names[0]]
	if recv == nil {
		return
	}
	info := pass.Pkg.Info

	guardPos := token.NoPos
	usePos := token.NoPos
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			if (n.Op == token.EQL || n.Op == token.NEQ) && isNilComparison(info, n, recv) {
				if !guardPos.IsValid() || n.Pos() < guardPos {
					guardPos = n.Pos()
				}
			}
		case *ast.SelectorExpr:
			id, ok := ast.Unparen(n.X).(*ast.Ident)
			if !ok || info.Uses[id] != recv {
				return true
			}
			if sel, ok := info.Selections[n]; ok && sel.Kind() == types.FieldVal {
				if !usePos.IsValid() || n.Pos() < usePos {
					usePos = n.Pos()
				}
			}
		}
		return true
	})
	if !usePos.IsValid() {
		return // no field access: nil-safe by construction
	}
	if guardPos.IsValid() && guardPos < usePos {
		return
	}
	pass.Reportf(fd.Name.Pos(),
		"exported method %s dereferences receiver %s before a nil guard; the obs layer documents nil receivers as no-ops",
		fd.Name.Name, names[0].Name)
}

// isNilComparison reports whether the binary expression compares the
// receiver object against nil.
func isNilComparison(info *types.Info, be *ast.BinaryExpr, recv types.Object) bool {
	matches := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && info.Uses[id] == recv
	}
	isNil := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		_, ok = info.Uses[id].(*types.Nil)
		return ok
	}
	return (matches(be.X) && isNil(be.Y)) || (matches(be.Y) && isNil(be.X))
}
