// Package docs is the doc-drift gate: it inventories everything the
// operator guide must cover — every binary under cmd/ and every flag
// the module registers — straight from the source, then checks each
// item is actually mentioned in OPERATIONS.md. The inventory is
// syntactic (go/parser only, no type checking): a flag registration is
// any 3-argument String/Bool/Int/Int64/Uint/Uint64/Float64/Duration
// call whose first argument is a string literal, or the 4-argument
// StringVar/BoolVar/… form whose second is — on the flag package or on
// a flag.FlagSet, which is how internal/cli registers the groups the
// binaries share and how benchmark/ registers its own.
//
// Coverage is deliberately strict about form: a flag -name counts as
// documented only when OPERATIONS.md contains `-name` in backticks
// (optionally opening a `-name=value` or `-name value` span), so prose
// that happens to contain the substring cannot mask a missing entry.
// The package's tests run the gate over a drifted fixture (must fail)
// and over this repository (must pass), so `go test ./...` catches a
// new binary or flag that lands without documentation, and a flag that
// vanishes without the test's count being lowered.
package docs

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Flag is one registered command-line flag and where it is declared;
// File is relative to the scanned module root.
type Flag struct {
	Name string
	File string
	Line int
}

// Inventory is the set of documentation obligations scanned from a
// module: binary names (cmd/ subdirectories) and registered flags,
// deduplicated by name with the first declaration winning.
type Inventory struct {
	Binaries []string
	Flags    []Flag
}

// flagFuncs are the registration method names recognised on both the
// flag package and a flag.FlagSet; each also has a Var form taking the
// destination first and the name second.
var flagFuncs = map[string]bool{
	"String": true, "Bool": true, "Int": true, "Int64": true,
	"Uint": true, "Uint64": true, "Float64": true, "Duration": true,
}

// Scan walks the module rooted at root and builds its inventory.
// Test files, testdata, vendor, and hidden directories are skipped,
// matching what ships in the binaries.
func Scan(root string) (*Inventory, error) {
	inv := &Inventory{}
	cmdDir := filepath.Join(root, "cmd")
	if entries, err := os.ReadDir(cmdDir); err == nil {
		for _, e := range entries {
			if e.IsDir() && !strings.HasPrefix(e.Name(), ".") {
				inv.Binaries = append(inv.Binaries, e.Name())
			}
		}
	}
	sort.Strings(inv.Binaries)

	fset := token.NewFileSet()
	seen := make(map[string]bool)
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (name == "testdata" || name == "vendor" ||
				strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return fmt.Errorf("docs: parsing %s: %w", path, err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			// String(name, value, usage) or StringVar(&dst, name, value, usage).
			fn, nameArg := sel.Sel.Name, 0
			if strings.HasSuffix(fn, "Var") {
				fn, nameArg = strings.TrimSuffix(fn, "Var"), 1
			}
			if !flagFuncs[fn] || len(call.Args) != 3+nameArg {
				return true
			}
			lit, ok := call.Args[nameArg].(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			fname, err := strconv.Unquote(lit.Value)
			if err != nil || fname == "" || seen[fname] {
				return true
			}
			seen[fname] = true
			pos := fset.Position(lit.Pos())
			rel, rerr := filepath.Rel(root, pos.Filename)
			if rerr != nil {
				rel = pos.Filename
			}
			inv.Flags = append(inv.Flags, Flag{Name: fname, File: filepath.ToSlash(rel), Line: pos.Line})
			return true
		})
		return nil
	})
	if err != nil {
		return nil, err
	}
	sort.Slice(inv.Flags, func(i, j int) bool { return inv.Flags[i].Name < inv.Flags[j].Name })
	return inv, nil
}

// flagDocumented reports whether ops mentions the flag in its
// canonical backticked form: `-name` closed by a backtick, or opening
// a `-name=value` / `-name value` span.
func flagDocumented(ops, name string) bool {
	needle := "`-" + name
	for at := 0; ; {
		i := strings.Index(ops[at:], needle)
		if i < 0 {
			return false
		}
		rest := ops[at+i+len(needle):]
		if rest == "" {
			return false
		}
		switch rest[0] {
		case '`', '=', ' ':
			return true
		}
		at += i + len(needle)
	}
}

// Missing diffs an inventory against the operator guide's contents and
// returns one human-readable finding per undocumented binary or flag;
// an empty slice means the guide is complete.
func Missing(inv *Inventory, ops string) []string {
	var out []string
	for _, bin := range inv.Binaries {
		if !strings.Contains(ops, bin) {
			out = append(out, fmt.Sprintf("binary %s is not mentioned in OPERATIONS.md", bin))
		}
	}
	for _, f := range inv.Flags {
		if !flagDocumented(ops, f.Name) {
			out = append(out, fmt.Sprintf("flag -%s (%s:%d) is not documented in OPERATIONS.md (want `-%s`)",
				f.Name, f.File, f.Line, f.Name))
		}
	}
	return out
}

// Check scans the module rooted at root and diffs it against the
// operator guide at opsPath, returning the findings.
func Check(root, opsPath string) ([]string, error) {
	inv, err := Scan(root)
	if err != nil {
		return nil, err
	}
	ops, err := os.ReadFile(opsPath)
	if err != nil {
		return nil, fmt.Errorf("docs: %w", err)
	}
	return Missing(inv, string(ops)), nil
}
