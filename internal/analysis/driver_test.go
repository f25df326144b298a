package analysis

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// TestMainJSONAndExit drives the CLI entry point over the fixture tree
// (which has deliberate violations) and over bogus flags, pinning the
// exit-code contract and the -json output shape.
func TestMainJSONAndExit(t *testing.T) {
	fixtures := filepath.Join("testdata", "src")

	var out, errBuf bytes.Buffer
	code := Main([]string{"-dir", fixtures, "-json", "./..."}, &out, &errBuf)
	if code != 1 {
		t.Fatalf("Main over violating fixtures: exit %d, want 1 (stderr: %s)", code, errBuf.String())
	}
	var diags []Diagnostic
	if err := json.Unmarshal(out.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not a diagnostic array: %v\n%s", err, out.String())
	}
	if len(diags) == 0 {
		t.Fatal("-json output is empty despite non-zero exit")
	}
	for _, d := range diags {
		if d.File == "" || d.Line <= 0 || d.Col <= 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("incomplete diagnostic: %+v", d)
		}
	}
	if !sort.SliceIsSorted(diags, func(i, j int) bool {
		if diags[i].File != diags[j].File {
			return diags[i].File < diags[j].File
		}
		return diags[i].Line < diags[j].Line
	}) {
		t.Error("diagnostics are not sorted by file and line")
	}
	seen := make(map[string]bool)
	for _, d := range diags {
		seen[d.Analyzer] = true
	}
	for _, an := range All() {
		if !seen[an.Name] {
			t.Errorf("full run over fixtures produced no %s findings", an.Name)
		}
	}

	// Text mode agrees with JSON mode on the finding count.
	out.Reset()
	if code := Main([]string{"-dir", fixtures, "./..."}, &out, &errBuf); code != 1 {
		t.Fatalf("text-mode exit %d, want 1", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) != len(diags) {
		t.Errorf("text mode printed %d findings, JSON had %d", len(lines), len(diags))
	}

	// -run selects a subset.
	out.Reset()
	if code := Main([]string{"-dir", fixtures, "-run", "walltime", "-json", "./..."}, &out, &errBuf); code != 1 {
		t.Fatalf("-run walltime exit %d, want 1", code)
	}
	var subset []Diagnostic
	if err := json.Unmarshal(out.Bytes(), &subset); err != nil {
		t.Fatal(err)
	}
	for _, d := range subset {
		if d.Analyzer != "walltime" {
			t.Errorf("-run walltime leaked a %s finding", d.Analyzer)
		}
	}

	// -tests pulls in in-package _test.go files: the planted violation
	// in errcheck/extra_test.go appears only with the flag.
	out.Reset()
	if code := Main([]string{"-dir", fixtures, "-tests", "-run", "errcheck", "-json", "./errcheck"}, &out, &errBuf); code != 1 {
		t.Fatalf("-tests exit %d, want 1 (stderr: %s)", code, errBuf.String())
	}
	var withTests []Diagnostic
	if err := json.Unmarshal(out.Bytes(), &withTests); err != nil {
		t.Fatal(err)
	}
	testFileHit := false
	for _, d := range withTests {
		if strings.HasSuffix(d.File, "_test.go") {
			testFileHit = true
		}
	}
	if !testFileHit {
		t.Error("-tests produced no finding from a _test.go file")
	}
	out.Reset()
	if code := Main([]string{"-dir", fixtures, "-run", "errcheck", "-json", "./errcheck"}, &out, &errBuf); code != 1 {
		t.Fatalf("default errcheck run exit %d, want 1", code)
	}
	var withoutTests []Diagnostic
	if err := json.Unmarshal(out.Bytes(), &withoutTests); err != nil {
		t.Fatal(err)
	}
	for _, d := range withoutTests {
		if strings.HasSuffix(d.File, "_test.go") {
			t.Errorf("default run leaked a test-file finding: %s", d)
		}
	}

	// Usage and load errors exit 2.
	if code := Main([]string{"-run", "nope"}, &out, &errBuf); code != 2 {
		t.Errorf("unknown analyzer: exit %d, want 2", code)
	}
	if code := Main([]string{"-dir", filepath.Join("testdata", "nosuch")}, &out, &errBuf); code != 2 {
		t.Errorf("missing module: exit %d, want 2", code)
	}

	// A package that does not type-check, a clean package importing one,
	// and a pattern naming no directory are load errors too: exit 2,
	// with the broken package or the pattern named on stderr.
	mod := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":       "module vetload\n\ngo 1.22\n",
		"bad/bad.go":   "package bad\n\nvar X int = \"s\"\n",
		"dep/dep.go":   "package dep\n\nvar Y int = \"s\"\n",
		"user/user.go": "package user\n\nimport \"vetload/dep\"\n\nvar Z = dep.Y\n",
	} {
		if err := os.MkdirAll(filepath.Dir(filepath.Join(mod, name)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(mod, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct{ pattern, named string }{
		{"./bad", "vetload/bad"},
		{"./user", "vetload/dep"},
		{"./nosuch/...", "./nosuch/..."},
	} {
		errBuf.Reset()
		if code := Main([]string{"-dir", mod, tc.pattern}, &out, &errBuf); code != 2 {
			t.Errorf("%s: exit %d, want 2 (stderr: %s)", tc.pattern, code, errBuf.String())
		}
		if !strings.Contains(errBuf.String(), tc.named) {
			t.Errorf("%s: stderr does not name %s: %s", tc.pattern, tc.named, errBuf.String())
		}
	}

	// -list exits 0 and names every analyzer.
	out.Reset()
	if code := Main([]string{"-list"}, &out, &errBuf); code != 0 {
		t.Errorf("-list exit %d, want 0", code)
	}
	for _, an := range All() {
		if !strings.Contains(out.String(), an.Name) {
			t.Errorf("-list output missing %s", an.Name)
		}
	}
}

// TestPatternExpansion pins how patterns select packages of the
// fixtures module.
func TestPatternExpansion(t *testing.T) {
	fixtures := filepath.Join("testdata", "src")
	paths := func(patterns ...string) ([]string, error) {
		pkgs, err := load(fixtures, patterns, false)
		var out []string
		for _, pkg := range pkgs {
			out = append(out, pkg.Path)
		}
		return out, err
	}
	all, err := paths("./...")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"detrand", "errcheck", "maporder", "obs", "walltime"} {
		if !slices.Contains(all, "fixtures/"+want) {
			t.Errorf("./... missed fixture package fixtures/%s (got %v)", want, all)
		}
	}
	one, err := paths("./obs")
	if err != nil || len(one) != 1 || one[0] != "fixtures/obs" {
		t.Errorf("./obs -> (%v, %v), want exactly [fixtures/obs]", one, err)
	}
	if _, err := paths("./nosuch"); err == nil {
		t.Error("pattern matching a missing package should fail")
	}
}
