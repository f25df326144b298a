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

// hotpathMeasured is the hand-kept list of //shahin:hotpath functions
// whose allocations per call are pinned exactly by the alloc test of
// the package that owns them, keyed to that package's directory.
var hotpathMeasured = map[string]string{
	"exact.(*Explainer).Explain":       "../explain/exact",
	"lime.(*Explainer).kernel":         "../explain/lime",
	"lime.topKByAbs":                   "../explain/lime",
	"linmodel.(*BinaryFit).Add":        "../linmodel",
	"linmodel.(*BinaryFit).Solve":      "../linmodel",
	"linmodel.(*Sym).Solve":            "../linmodel",
	"linmodel.cholSolve":               "../linmodel",
	"anchor.(*ruleArm).pull":           "../explain/anchor",
	"perturb.(*Generator).fill":        "../perturb",
	"perturb.(*Generator).FillItemset": "../perturb",
	"perturb.(*Generator).ForItemset":  "../perturb",
	"perturb.(*Generator).ForTuple":    "../perturb",
	"perturb.BinaryEncode":             "../perturb",
	"perturb.MatchesBins":              "../perturb",
	"rf.(*Forest).Predict":             "../rf",
	"router.(*Ring).Lookup":            "../router",
	"router.Signature":                 "../router",
	"shap.(*fit).add":                  "../explain/shap",
	"shap.(*fit).solve":                "../explain/shap",
	"shap.pick":                        "../explain/shap",
}

// hotpathInsideExplain are the walker's tagged helpers: they only run
// inside exact.(*Explainer).Explain, whose row covers them.
var hotpathInsideExplain = map[string]bool{
	"exact.(*Explainer).walk": true,
	"exact.findFeat":          true,
	"exact.unwoundSum":        true,
	"exact.unwind":            true,
}

// taggedHotpaths returns the qualified name of every function under
// internal/ whose doc comment carries the //shahin:hotpath directive.
func taggedHotpaths(t *testing.T) map[string]bool {
	t.Helper()
	tagged := map[string]bool{}
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
				tagged[f.Name.Name+"."+name] = true
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
// allocs-per-call assertion. A tag that is neither on the measured list
// nor covered by Explain fails here, and so does a listed function that
// lost its tag or whose package test no longer names it.
func TestHotpathBodies(t *testing.T) {
	tagged := taggedHotpaths(t)
	for name := range tagged {
		if _, ok := hotpathMeasured[name]; !ok && !hotpathInsideExplain[name] {
			t.Errorf("%s is tagged //shahin:hotpath but has no alloc test: list it here and give it a row in its package's TestHotpathAllocs", name)
		}
	}
	for name, dir := range hotpathMeasured {
		t.Run(name, func(t *testing.T) {
			if !tagged[name] {
				t.Fatalf("%s no longer carries the //shahin:hotpath tag", name)
			}
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
			t.Fatalf("no test file in %s names %q: its alloc test is gone", dir, name)
		})
	}
}
