package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module under
// analysis. Test files (_test.go) are excluded by default: the
// invariants guard the production pipeline, and fixtures deliberately
// violate them. Under load's tests flag a package is its in-package
// test variant, test files included; external _test packages stay out.
type Package struct {
	Path  string // import path ("shahin/internal/fim")
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	root string // directory load ran in; Diagnostic.File is relative to it
}

// relFile maps an absolute filename to its root-relative form.
func (pkg *Package) relFile(filename string) string {
	if rel, err := filepath.Rel(pkg.root, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filename)
}

// listed is the part of one `go list -json` record that load reads.
type listed struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	ForTest    string            // set on test variants: the package under test
	Export     string            // compiled export data
	ImportMap  map[string]string // source import path -> listed ImportPath
	Match      []string          // command-line patterns matching this package
	Error      *struct{ Err string }
}

// load asks `go list` in dir for the packages matching patterns, with
// their dependencies compiled to export data, and parses and
// type-checks the matched ones from source. Packages are the toolchain's:
// build constraints, patterns and module resolution are go list's. With
// tests, a package that has in-package _test.go files is loaded as its
// test variant "p [p.test]". Any package or pattern go list reports an
// error for, dependencies included, fails the load.
func load(dir string, patterns []string, tests bool) ([]*Package, error) {
	root, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	args := []string{"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,ForTest,Export,ImportMap,Match,Error"}
	if tests {
		args = append(args, "-test")
	}
	cmd := exec.Command("go", append(append(args, "--"), patterns...)...)
	cmd.Dir = root
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	byID := make(map[string]*listed)
	targets := make(map[string]*listed) // package path -> the unit to check
	for dec := json.NewDecoder(&stdout); dec.More(); {
		p := new(listed)
		if err := dec.Decode(p); err != nil {
			return nil, fmt.Errorf("analysis: go list output: %w", err)
		}
		if p.Error != nil {
			return nil, fmt.Errorf("analysis: %s: %s", p.ImportPath, strings.TrimSpace(p.Error.Err))
		}
		byID[p.ImportPath] = p
		switch {
		case len(p.Match) == 0: // a dependency, an external test or a test main
		case p.ForTest == "":
			if targets[p.ImportPath] == nil {
				targets[p.ImportPath] = p
			}
		case p.ImportPath == p.ForTest+" ["+p.ForTest+".test]":
			targets[p.ForTest] = p // the in-package test variant replaces p
		}
	}
	if len(targets) == 0 {
		return nil, fmt.Errorf("analysis: no packages match %s", strings.Join(patterns, " "))
	}
	paths := make([]string, 0, len(targets))
	for path := range targets {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	fset := token.NewFileSet()
	pkgs := make([]*Package, len(paths))
	for i, path := range paths {
		if pkgs[i], err = typeCheck(fset, path, targets[path], byID); err != nil {
			return nil, err
		}
		pkgs[i].root = root
	}
	return pkgs, nil
}

// typeCheck parses p's files and type-checks them as package path. Each
// import is read from the export data go list produced, mapped through
// p.ImportMap so a test variant sees the dependencies its test binary
// was built with.
func typeCheck(fset *token.FileSet, path string, p *listed, byID map[string]*listed) (*Package, error) {
	var files []*ast.File
	for _, name := range p.GoFiles {
		f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		if id, ok := p.ImportMap[path]; ok {
			path = id
		}
		if dep := byID[path]; dep != nil && dep.Export != "" {
			return os.Open(dep.Export)
		}
		return nil, fmt.Errorf("no export data for %s", path)
	})
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(path, fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	return &Package{Path: path, Fset: fset, Files: files, Types: tpkg, Info: info}, nil
}
