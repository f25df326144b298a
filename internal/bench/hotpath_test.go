package bench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// hotpathInsideExplain are the walker's tagged helpers: they only run
// inside exact.(*Explainer).Explain, whose row covers them.
var hotpathInsideExplain = map[string]bool{
	"exact.(*Explainer).walk": true,
	"exact.(*Explainer).leaf": true,
	"exact.extend":            true,
	"exact.divide":            true,
}

// taggedHotpaths returns the qualified name of every function under
// internal/ whose doc comment carries the //shahin:hotpath directive,
// keyed to the directory of the file that declares it.
func taggedHotpaths(t *testing.T) map[string]string {
	t.Helper()
	tagged := map[string]string{}
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Doc == nil {
				continue
			}
			for _, c := range fn.Doc.List {
				if strings.TrimSpace(c.Text) != "//shahin:hotpath" {
					continue
				}
				name := fn.Name.Name
				if fn.Recv != nil {
					name = "(" + types.ExprString(fn.Recv.List[0].Type) + ")." + name
				}
				tagged[f.Name.Name+"."+name] = filepath.Dir(path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return tagged
}

// TestHotpathBodies: every //shahin:hotpath function has an exact
// allocs-per-call assertion. The tag is the list: a tagged function
// that no test file of its own package names, and that Explain's row
// does not cover, fails here — whether the row was never written or
// the test stopped naming the function.
func TestHotpathBodies(t *testing.T) {
	tagged := taggedHotpaths(t)
	for name := range hotpathInsideExplain {
		if _, ok := tagged[name]; !ok {
			t.Errorf("%s no longer carries the //shahin:hotpath tag; drop it from hotpathInsideExplain", name)
		}
	}
	for name, dir := range tagged {
		if hotpathInsideExplain[name] {
			continue
		}
		t.Run(name, func(t *testing.T) {
			tests, err := filepath.Glob(filepath.Join(dir, "*_test.go"))
			if err != nil {
				t.Fatal(err)
			}
			for _, path := range tests {
				src, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if strings.Contains(string(src), `"`+name+`"`) {
					return
				}
			}
			t.Fatalf("%s is tagged //shahin:hotpath but no test file in %s names %q: give it a row in its package's TestHotpathAllocs", name, dir, name)
		})
	}
}
