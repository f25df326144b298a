// Package analysis is shahin's project-specific static-analysis suite:
// stdlib go/parser + go/types over the packages go list reports (no
// golang.org/x/tools dependency). It enforces the invariants the
// reproduction's headline claim rests on — bit-for-bit deterministic
// explanations — plus the error-handling and nil-recorder conventions
// the codebase documents:
//
//   - detrand: no top-level math/rand calls (RNGs are seeded and
//     threaded explicitly) and no clock-seeded sources.
//   - maporder: no map-iteration order leaking into slices or strings
//     that reach results without a dominating sort.
//   - walltime: time.Now confined to internal/obs, internal/bench, and
//     explicitly annotated sites.
//   - errcheck: no silently discarded error returns.
//   - nilrecv: every exported pointer-receiver method in the obs layer
//     guards the receiver against nil before touching its fields.
//   - pkgdoc: every package has a package comment and every exported
//     identifier a doc comment, so godoc stays complete as the API
//     grows.
//   - ctxflow: incoming contexts must be forwarded to context-accepting
//     callees; context.Background/TODO is forbidden on serve, fault,
//     and *Ctx paths (derivation is a per-declaration fixpoint over
//     assignments).
//   - lockguard: a lock is released in its own block on every exit
//     (or by the defer right after it), and nothing between blocks
//     (channels, network, PredictCtx, Sleep, Wait).
//
// The ninth, allowaudit, audits the suppression inventory itself: a
// //shahinvet:allow directive that suppresses nothing is a finding.
// What another gate already checks is not checked again here: mutex
// copies are go vet's copylocks, and allocation in //shahin:hotpath
// functions is measured exactly by the TestHotpathAllocs rows that
// TestHotpathBodies requires of every tagged function.
//
// Findings can be suppressed per line with a
//
//	//shahinvet:allow <analyzer> [<analyzer>...] [— reason]
//
// comment on the offending line or on the line directly above it.
// The cmd/shahin-vet command is the CLI driver; the package-level
// tests run every analyzer over fixture packages and over the real
// module, so a regression in either the analyzers or the codebase
// fails go test ./... .
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one finding: a violated invariant at a source position.
// File is relative to the module root the driver was pointed at.
type Diagnostic struct {
	File     string `json:"file"`
	Line     int    `json:"line"`
	Col      int    `json:"col"`
	Analyzer string `json:"analyzer"`
	Message  string `json:"message"`
}

// String renders the go-vet-style "file:line:col: analyzer: message"
// form used by the text output mode.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.File, d.Line, d.Col, d.Analyzer, d.Message)
}

// Analyzer is one named invariant check run over a type-checked package.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass)
}

// All returns the full suite in a stable order. allowaudit always
// executes last within an invocation so it can see which directives
// the others consumed.
func All() []*Analyzer {
	return []*Analyzer{
		AllowAudit, CtxFlow, DetRand, ErrCheck, LockGuard,
		MapOrder, NilRecv, PkgDoc, WallTime,
	}
}

// directiveUse identifies one (directive line, analyzer) suppression:
// the unit allowaudit checks for staleness.
type directiveUse struct {
	file     string
	line     int
	analyzer string
}

// Pass is one (analyzer, package) run. Analyzers report findings
// through Reportf, which applies the //shahinvet:allow suppression
// rules before recording anything.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package

	allow map[string]map[int]bool // file -> lines with an allow directive
	diags []Diagnostic
	sites int // InScope calls

	// usage records which directive lines suppressed a finding, shared
	// across the invocation's passes; ran is the set of analyzer names
	// executed before allowaudit. Both feed the staleness audit.
	usage map[directiveUse]bool
	ran   map[string]bool
}

// InScope counts one site the analyzer judged its rule to apply to (a
// lock call, a map range, a call with an error result, ...), finding
// or not. An analyzer whose count over the whole module is zero
// examines nothing, and TestRepoSelfClean fails it.
func (p *Pass) InScope() { p.sites++ }

// Reportf records a finding at pos unless a directive suppresses it,
// in which case the consumed directive line is marked used.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Pkg.Fset.Position(pos)
	file := p.Pkg.relFile(position.Filename)
	if lines := p.allow[file]; lines[position.Line] || lines[position.Line-1] {
		if p.usage != nil {
			used := position.Line
			if !lines[position.Line] {
				used = position.Line - 1
			}
			p.usage[directiveUse{file: file, line: used, analyzer: p.Analyzer.Name}] = true
		}
		return
	}
	p.diags = append(p.diags, Diagnostic{
		File:     file,
		Line:     position.Line,
		Col:      position.Column,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// runPackage runs the given analyzers over one loaded package and
// returns the surviving findings sorted by position, and per analyzer
// name the number of sites it judged in scope. allowaudit, if
// selected, runs after every other analyzer regardless of its slice
// position, so directive-usage information is complete when it audits.
func runPackage(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, map[string]int) {
	usage := make(map[directiveUse]bool)
	sites := make(map[string]int)
	ran := make(map[string]bool)
	var audit *Analyzer
	ordered := make([]*Analyzer, 0, len(analyzers))
	for _, an := range analyzers {
		if an.Name == AllowAudit.Name {
			audit = an
			continue
		}
		ordered = append(ordered, an)
		ran[an.Name] = true
	}
	if audit != nil {
		ordered = append(ordered, audit)
	}
	var diags []Diagnostic
	for _, an := range ordered {
		pass := &Pass{
			Analyzer: an,
			Pkg:      pkg,
			allow:    pkg.directiveLines(an.Name),
			usage:    usage,
			ran:      ran,
		}
		an.Run(pass)
		diags = append(diags, pass.diags...)
		sites[an.Name] += pass.sites
	}
	sortDiagnostics(diags)
	return diags, sites
}

func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})
}

// directivePrefix introduces a suppression comment. The directive
// applies to its own line and to the line directly below it, so both
// trailing comments and a comment above the offending statement work.
const directivePrefix = "shahinvet:allow"

// directiveLines extracts, per file, the lines carrying an allow
// directive naming the given analyzer.
func (pkg *Package) directiveLines(analyzer string) map[string]map[int]bool {
	out := make(map[string]map[int]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				names, ok := parseDirective(c.Text)
				if !ok || !names[analyzer] {
					continue
				}
				position := pkg.Fset.Position(c.Pos())
				file := pkg.relFile(position.Filename)
				if out[file] == nil {
					out[file] = make(map[int]bool)
				}
				out[file][position.Line] = true
			}
		}
	}
	return out
}

// parseDirective parses a "//shahinvet:allow a b — reason" comment into
// the set of analyzer names it names. Name tokens stop at the first
// field that is not a plausible analyzer name, so free-form rationale
// after the names (or after a dash) is fine.
func parseDirective(text string) (map[string]bool, bool) {
	if !strings.HasPrefix(text, "//") {
		return nil, false
	}
	body := strings.TrimSpace(strings.TrimPrefix(text, "//"))
	if !strings.HasPrefix(body, directivePrefix) {
		return nil, false
	}
	rest := body[len(directivePrefix):]
	if rest != "" && rest[0] != ' ' && rest[0] != '\t' {
		return nil, false
	}
	names := make(map[string]bool)
	for _, field := range strings.Fields(rest) {
		field = strings.TrimSuffix(field, ",")
		if !isAnalyzerName(field) {
			break
		}
		names[field] = true
	}
	return names, len(names) > 0
}

func isAnalyzerName(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if r < 'a' || r > 'z' {
			return false
		}
	}
	return true
}

// staticCallee resolves the called *types.Func of a call expression,
// or nil for calls through function values, builtins, and conversions.
func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		obj = info.Uses[fun.Sel]
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// calleeFromPackage reports whether call statically resolves to a
// package-level function (not a method) of the given package path.
func calleeFromPackage(info *types.Info, call *ast.CallExpr, pkgPath string) (*types.Func, bool) {
	fn := staticCallee(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != pkgPath {
		return nil, false
	}
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		return nil, false
	}
	return fn, true
}

var errorType = types.Universe.Lookup("error").Type()

// hasErrorResult reports whether the call's type includes an error.
func hasErrorResult(info *types.Info, call *ast.CallExpr) bool {
	sig, ok := info.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return false // builtin, conversion, or untypeable
	}
	res := sig.Results()
	for i := 0; i < res.Len(); i++ {
		if types.Identical(res.At(i).Type(), errorType) {
			return true
		}
	}
	return false
}

// containsCallTo reports whether the expression tree contains a call to
// the named package-level function (e.g. time.Now inside a seed
// expression).
func containsCallTo(info *types.Info, expr ast.Expr, pkgPath, name string) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if fn, ok := calleeFromPackage(info, call, pkgPath); ok && fn.Name() == name {
			found = true
			return false
		}
		return true
	})
	return found
}
