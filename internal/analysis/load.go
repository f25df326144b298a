package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

// Package is one parsed and type-checked package of the module under
// analysis. Test files (_test.go) are excluded by default: the
// invariants guard the production pipeline, and fixtures deliberately
// violate them. Setting Loader.IncludeTests pulls in a package's
// in-package test files too (external _test packages stay out — they
// are separate compilation units the recursive loader cannot layer on
// top of an already-checked package).
type Package struct {
	Path  string // import path ("shahin/internal/fim")
	Dir   string // absolute directory
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	root string // module root; Diagnostic.File is relative to it
}

// relFile maps an absolute filename to its module-relative form.
func (pkg *Package) relFile(filename string) string {
	if rel, err := filepath.Rel(pkg.root, filename); err == nil && !strings.HasPrefix(rel, "..") {
		return filepath.ToSlash(rel)
	}
	return filepath.ToSlash(filename)
}

// Loader loads module packages from source. Imports inside the module
// are resolved recursively through the loader itself; everything else
// (the standard library) goes through go/importer's source importer,
// so the whole stack stays free of toolchain export-data files.
type Loader struct {
	fset       *token.FileSet
	dir        string // module root (absolute)
	modulePath string // module path from go.mod; "" loads bare fixture dirs
	std        types.Importer

	// IncludeTests adds each package's in-package _test.go files to the
	// unit under analysis. Set it before the first Load call: results
	// are memoized, so flipping it later has no effect on packages
	// already loaded.
	IncludeTests bool

	pkgs    map[string]*Package
	loading map[string]bool
}

// newLoader creates a loader rooted at dir. modulePath is the module's
// import-path prefix (from go.mod); the empty string puts the loader
// in fixture mode, where package paths are directories relative to dir
// and every import is resolved as standard library.
func newLoader(dir, modulePath string) (*Loader, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: resolving %s: %w", dir, err)
	}
	fset := token.NewFileSet()
	return &Loader{
		fset:       fset,
		dir:        abs,
		modulePath: modulePath,
		std:        importer.ForCompiler(fset, "source", nil),
		pkgs:       make(map[string]*Package),
		loading:    make(map[string]bool),
	}, nil
}

// readModulePath extracts the module path from dir/go.mod.
func readModulePath(dir string) (string, error) {
	data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
	if err != nil {
		return "", fmt.Errorf("analysis: %w", err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			return strings.TrimSpace(rest), nil
		}
	}
	return "", fmt.Errorf("analysis: no module line in %s/go.mod", dir)
}

// inModule reports whether path belongs to the module under analysis.
func (l *Loader) inModule(path string) bool {
	if l.modulePath == "" {
		return false
	}
	return path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/")
}

// dirFor maps an import path of the module to its directory.
func (l *Loader) dirFor(path string) string {
	switch {
	case l.modulePath == "":
		return filepath.Join(l.dir, filepath.FromSlash(path))
	case path == l.modulePath:
		return l.dir
	default:
		return filepath.Join(l.dir, filepath.FromSlash(strings.TrimPrefix(path, l.modulePath+"/")))
	}
}

// Import implements types.Importer.
func (l *Loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.dir, 0)
}

// ImportFrom implements types.ImporterFrom: module-internal imports
// load recursively through this loader, the rest through the source
// importer (which needs srcDir for GOROOT vendor resolution).
func (l *Loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	if l.inModule(path) {
		pkg, err := l.Load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if from, ok := l.std.(types.ImporterFrom); ok {
		return from.ImportFrom(path, srcDir, mode)
	}
	return l.std.Import(path)
}

// Load parses and type-checks the package at the given import path
// (module-relative directory in fixture mode). Results are memoized.
func (l *Loader) Load(path string) (*Package, error) {
	if pkg, ok := l.pkgs[path]; ok {
		return pkg, nil
	}
	if l.loading[path] {
		return nil, fmt.Errorf("analysis: import cycle through %s", path)
	}
	l.loading[path] = true
	defer delete(l.loading, path)

	dir := l.dirFor(path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	var files []*ast.File
	var testNames []string
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		if strings.HasSuffix(name, "_test.go") {
			if l.IncludeTests {
				testNames = append(testNames, name)
			}
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	// In-package test files join the same type-checking unit; external
	// _test packages are skipped by comparing the package clause.
	for _, name := range testNames {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: %w", err)
		}
		if f.Name.Name != files[0].Name.Name {
			continue
		}
		files = append(files, f)
	}

	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %w", path, err)
	}
	pkg := &Package{
		Path:  path,
		Dir:   dir,
		Fset:  l.fset,
		Files: files,
		Types: tpkg,
		Info:  info,
		root:  l.dir,
	}
	l.pkgs[path] = pkg
	return pkg, nil
}

// Packages expands go-style patterns ("./...", "./internal/...",
// "./internal/fim", "shahin/internal/fim", ".") into the sorted set of
// matching package import paths.
func (l *Loader) Packages(patterns []string) ([]string, error) {
	all, err := l.walkPackages()
	if err != nil {
		return nil, err
	}
	seen := make(map[string]bool)
	var out []string
	add := func(p string) {
		if !seen[p] {
			seen[p] = true
			out = append(out, p)
		}
	}
	for _, pat := range patterns {
		switch {
		case pat == "./..." || pat == "...":
			for _, p := range all {
				add(p)
			}
		case strings.HasSuffix(pat, "/..."):
			prefix := l.patternPath(strings.TrimSuffix(pat, "/..."))
			matched := false
			for _, p := range all {
				if p == prefix || strings.HasPrefix(p, prefix+"/") {
					add(p)
					matched = true
				}
			}
			if !matched {
				return nil, fmt.Errorf("analysis: pattern %s matched no packages", pat)
			}
		default:
			p := l.patternPath(pat)
			found := false
			for _, known := range all {
				if known == p {
					found = true
					break
				}
			}
			if !found {
				return nil, fmt.Errorf("analysis: no package matches %s", pat)
			}
			add(p)
		}
	}
	sort.Strings(out)
	return out, nil
}

// patternPath normalizes a single non-wildcard pattern to an import
// path.
func (l *Loader) patternPath(pat string) string {
	if pat == "." {
		return l.modulePath
	}
	if rest, ok := strings.CutPrefix(pat, "./"); ok {
		if l.modulePath == "" {
			return path.Clean(rest)
		}
		return l.modulePath + "/" + path.Clean(rest)
	}
	return pat
}

// walkPackages enumerates every package directory of the module,
// skipping testdata, vendor, and hidden trees.
func (l *Loader) walkPackages() ([]string, error) {
	var out []string
	err := filepath.WalkDir(l.dir, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if p != l.dir && (name == "testdata" || name == "vendor" ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		hasGo, err := dirHasGoFiles(p)
		if err != nil {
			return err
		}
		if !hasGo {
			return nil
		}
		rel, err := filepath.Rel(l.dir, p)
		if err != nil {
			return err
		}
		switch {
		case rel == ".":
			if l.modulePath != "" {
				out = append(out, l.modulePath)
			}
		case l.modulePath == "":
			out = append(out, filepath.ToSlash(rel))
		default:
			out = append(out, l.modulePath+"/"+filepath.ToSlash(rel))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("analysis: %w", err)
	}
	sort.Strings(out)
	return out, nil
}

func dirHasGoFiles(dir string) (bool, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return false, err
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") ||
			strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
			continue
		}
		return true, nil
	}
	return false, nil
}
