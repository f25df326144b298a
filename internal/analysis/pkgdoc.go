package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// PkgDoc enforces the repo's documentation contract: every package
// carries a package comment, and every exported identifier — function,
// method on an exported type, type, const, var — carries a doc
// comment. A grouped const/var/type declaration is covered by its
// group doc, and a spec inside a group may instead carry its own doc
// or a trailing line comment (the idiomatic form for enum members).
// Methods on unexported receiver types are exempt: they are invisible
// in godoc unless the type escapes through an exported API, and the
// type's own doc is the right place for that story.
var PkgDoc = &Analyzer{
	Name: "pkgdoc",
	Doc:  "require doc comments on the package clause and every exported identifier",
	Run:  runPkgDoc,
}

func runPkgDoc(pass *Pass) {
	files := pass.Pkg.Files
	if len(files) == 0 {
		return
	}
	pass.InScope()
	// The package comment may live in any file of the package; files
	// arrive in sorted filename order, so the report (if any) anchors
	// deterministically at the first file's package clause.
	hasPkgDoc := false
	for _, f := range files {
		if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
			hasPkgDoc = true
			break
		}
	}
	if !hasPkgDoc {
		pass.Reportf(files[0].Name.Pos(),
			"package %s has no package comment; document what the package is for in one of its files",
			files[0].Name.Name)
	}
	for _, f := range files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				checkFuncDoc(pass, d)
			case *ast.GenDecl:
				checkGenDoc(pass, d)
			}
		}
	}
}

// checkFuncDoc flags exported functions, and exported methods on
// exported receiver types, that carry no doc comment.
func checkFuncDoc(pass *Pass, fd *ast.FuncDecl) {
	if !fd.Name.IsExported() || fd.Doc != nil {
		return
	}
	name := fd.Name.Name
	kind := "function"
	if fd.Recv != nil {
		recv := receiverTypeName(fd.Recv)
		if recv == "" || !token.IsExported(recv) {
			return
		}
		kind = "method"
		name = recv + "." + name
	}
	pass.Reportf(fd.Name.Pos(), "exported %s %s has no doc comment", kind, name)
}

// receiverTypeName unwraps a receiver field to its base type name,
// looking through pointers and generic instantiations.
func receiverTypeName(recv *ast.FieldList) string {
	if len(recv.List) == 0 {
		return ""
	}
	t := recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.IndexExpr:
			t = x.X
		case *ast.IndexListExpr:
			t = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

// checkGenDoc flags exported names in type/const/var declarations that
// are covered by neither a group doc, a per-spec doc, nor a trailing
// line comment.
func checkGenDoc(pass *Pass, gd *ast.GenDecl) {
	if gd.Tok != token.TYPE && gd.Tok != token.CONST && gd.Tok != token.VAR {
		return
	}
	groupDoc := gd.Doc != nil && strings.TrimSpace(gd.Doc.Text()) != ""
	for _, spec := range gd.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if covered := groupDoc || s.Doc != nil || s.Comment != nil; covered {
				continue
			}
			if s.Name.IsExported() {
				pass.Reportf(s.Name.Pos(), "exported type %s has no doc comment", s.Name.Name)
			}
		case *ast.ValueSpec:
			if covered := groupDoc || s.Doc != nil || s.Comment != nil; covered {
				continue
			}
			for _, name := range s.Names {
				if name.IsExported() {
					pass.Reportf(name.Pos(), "exported %s %s has no doc comment",
						gd.Tok.String(), name.Name)
				}
			}
		}
	}
}
