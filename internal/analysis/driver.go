package analysis

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"strings"
)

// check loads the packages matching patterns in dir (load) and runs
// the given analyzers (nil means the full suite) over each, returning
// all surviving findings sorted by position and each analyzer's
// in-scope site count (Pass.InScope). includeTests analyzes each
// package's in-package test variant instead (the -tests flag of
// shahin-vet).
func check(dir string, patterns []string, analyzers []*Analyzer, includeTests bool) ([]Diagnostic, map[string]int, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	if analyzers == nil {
		analyzers = All()
	}
	pkgs, err := load(dir, patterns, includeTests)
	if err != nil {
		return nil, nil, err
	}
	var diags []Diagnostic
	sites := make(map[string]int)
	for _, pkg := range pkgs {
		d, n := runPackage(pkg, analyzers)
		diags = append(diags, d...)
		for name, c := range n {
			sites[name] += c
		}
	}
	sortDiagnostics(diags)
	return diags, sites, nil
}

// Main is the shahin-vet entry point. It returns the process exit
// code: 0 clean, 1 findings, 2 usage or load errors.
func Main(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("shahin-vet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as a JSON array")
	dir := fs.String("dir", ".", "module root to analyze")
	run := fs.String("run", "", "comma-separated analyzer subset (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	tests := fs.Bool("tests", false, "also analyze in-package _test.go files")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: shahin-vet [flags] [packages]\n\n"+
			"Runs shahin's project-specific analyzers over the module.\n"+
			"Patterns follow go tool conventions (default ./...).\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *list {
		for _, an := range All() {
			fmt.Fprintf(stdout, "%-10s %s\n", an.Name, an.Doc)
		}
		return 0
	}
	analyzers, err := selectAnalyzers(*run)
	if err != nil {
		fmt.Fprintln(stderr, "shahin-vet:", err)
		return 2
	}
	diags, _, err := check(*dir, fs.Args(), analyzers, *tests)
	if err != nil {
		fmt.Fprintln(stderr, "shahin-vet:", err)
		return 2
	}
	if *jsonOut {
		if diags == nil {
			diags = []Diagnostic{}
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(diags); err != nil {
			fmt.Fprintln(stderr, "shahin-vet:", err)
			return 2
		}
	} else {
		for _, d := range diags {
			fmt.Fprintln(stdout, d.String())
		}
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}

// selectAnalyzers resolves a comma-separated -run list against the
// suite; the empty string selects everything.
func selectAnalyzers(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := make(map[string]*Analyzer)
	for _, an := range All() {
		byName[an.Name] = an
	}
	var out []*Analyzer
	for _, name := range strings.Split(names, ",") {
		name = strings.TrimSpace(name)
		an, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown analyzer %q (have %s)", name, analyzerNames())
		}
		out = append(out, an)
	}
	return out, nil
}

func analyzerNames() string {
	var names []string
	for _, an := range All() {
		names = append(names, an.Name)
	}
	return strings.Join(names, ", ")
}
