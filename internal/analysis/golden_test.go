package analysis

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// loadFixture type-checks one package of the fixtures module under
// testdata/src (import path fixtures/<name>).
func loadFixture(t *testing.T, name string) *Package {
	t.Helper()
	pkgs, err := load(filepath.Join("testdata", "src"), []string{"./" + name}, false)
	if err != nil {
		t.Fatal(err)
	}
	return pkgs[0]
}

var wantRE = regexp.MustCompile(`want "([^"]*)"`)

// parseWants extracts the expected-diagnostic comments: every
// `want "substring"` marker, keyed by file and line.
func parseWants(pkg *Package) map[string][]string {
	wants := make(map[string][]string)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pkg.relFile(pos.Filename), pos.Line)
					wants[key] = append(wants[key], m[1])
				}
			}
		}
	}
	return wants
}

// TestAnalyzersGolden runs each analyzer over its fixture package and
// requires an exact match against the want-comments: every expected
// diagnostic fires (so weakening an analyzer fails the test) and
// nothing unexpected or suppressed leaks through.
func TestAnalyzersGolden(t *testing.T) {
	cases := []struct {
		name      string
		fixture   string
		analyzers []*Analyzer
	}{
		{"detrand", "detrand", []*Analyzer{DetRand}},
		{"maporder", "maporder", []*Analyzer{MapOrder}},
		{"walltime", "walltime", []*Analyzer{WallTime}},
		{"errcheck", "errcheck", []*Analyzer{ErrCheck}},
		{"nilrecv", "obs", []*Analyzer{NilRecv}},
		{"pkgdoc", "pkgdoc", []*Analyzer{PkgDoc}},
		{"ctxflow", "ctxflow", []*Analyzer{CtxFlow}},
		{"ctxflow-serve", "ctxflow/serve", []*Analyzer{CtxFlow}},
		{"lockguard", "lockguard", []*Analyzer{LockGuard}},
		// allowaudit needs a companion analyzer so one directive in the
		// fixture is genuinely consumed (a used directive is the
		// deliberate non-finding).
		{"allowaudit", "allowaudit", []*Analyzer{ErrCheck, AllowAudit}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			pkg := loadFixture(t, tc.fixture)
			diags, _ := runPackage(pkg, tc.analyzers)
			wants := parseWants(pkg)

			matched := make(map[string]int)
			for _, d := range diags {
				key := fmt.Sprintf("%s:%d", d.File, d.Line)
				ok := false
				for _, w := range wants[key] {
					if strings.Contains(d.Analyzer+": "+d.Message, w) {
						ok = true
						matched[key]++
						break
					}
				}
				if !ok {
					t.Errorf("unexpected diagnostic: %s", d)
				}
			}
			for key, ws := range wants {
				if matched[key] < len(ws) {
					t.Errorf("%s: expected diagnostic matching %q did not fire", key, ws)
				}
			}
			if len(diags) == 0 {
				t.Errorf("fixture %s produced no diagnostics at all; detection logic gutted?", tc.fixture)
			}
		})
	}
}

// TestDirectiveParsing pins the suppression comment grammar.
func TestDirectiveParsing(t *testing.T) {
	cases := []struct {
		text string
		want []string
	}{
		{"//shahinvet:allow walltime", []string{"walltime"}},
		{"// shahinvet:allow walltime — stage timing", []string{"walltime"}},
		{"//shahinvet:allow errcheck, walltime — trailing reason", []string{"errcheck", "walltime"}},
		{"//shahinvet:allowwalltime", nil},
		{"//shahinvet:allow", nil},
		{"// a normal comment", nil},
		{"//shahinvet:allow Weird42 walltime", nil}, // names stop at first non-name token
	}
	for _, tc := range cases {
		names, ok := parseDirective(tc.text)
		if !ok {
			if len(tc.want) != 0 {
				t.Errorf("parseDirective(%q) = not a directive, want %v", tc.text, tc.want)
			}
			continue
		}
		if len(names) != len(tc.want) {
			t.Errorf("parseDirective(%q) = %v, want %v", tc.text, names, tc.want)
			continue
		}
		for _, w := range tc.want {
			if !names[w] {
				t.Errorf("parseDirective(%q) missing %q", tc.text, w)
			}
		}
	}
}
