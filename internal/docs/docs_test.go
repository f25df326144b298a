package docs

import (
	"path/filepath"
	"strings"
	"testing"
)

// TestCoveredFixturePasses pins the positive case: a module whose
// OPERATIONS.md mentions every binary and backticks every flag
// produces no findings.
func TestCoveredFixturePasses(t *testing.T) {
	root := filepath.Join("testdata", "covered")
	missing, err := Check(root, filepath.Join(root, "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 0 {
		t.Fatalf("covered fixture produced findings: %v", missing)
	}
}

// TestDriftFixtureFails pins the gate's teeth: the deliberately
// undocumented flag must be flagged, as must a flag mentioned only in
// prose without backticks and one registered through a Var form (the
// form internal/cli and benchmark/ use) — while the documented ones,
// in either form, stay quiet.
func TestDriftFixtureFails(t *testing.T) {
	root := filepath.Join("testdata", "drift")
	missing, err := Check(root, filepath.Join(root, "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) != 3 {
		t.Fatalf("drift fixture produced %d findings, want 3: %v", len(missing), missing)
	}
	joined := strings.Join(missing, "\n")
	for _, want := range []string{"flag -undocumented", "flag -prose", "flag -hidden", "cmd/driftbin/main.go"} {
		if !strings.Contains(joined, want) {
			t.Errorf("findings missing %q:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "-seed") || strings.Contains(joined, "-rows") {
		t.Errorf("a documented flag was flagged:\n%s", joined)
	}
}

// TestScanInventory sanity-checks the scanner's shape on the drift
// fixture: the binary is found and flags are deduplicated and sorted.
func TestScanInventory(t *testing.T) {
	inv, err := Scan(filepath.Join("testdata", "drift"))
	if err != nil {
		t.Fatal(err)
	}
	if len(inv.Binaries) != 1 || inv.Binaries[0] != "driftbin" {
		t.Fatalf("binaries = %v, want [driftbin]", inv.Binaries)
	}
	var names []string
	for _, f := range inv.Flags {
		names = append(names, f.Name)
	}
	if got, want := strings.Join(names, ","), "hidden,prose,rows,seed,undocumented"; got != want {
		t.Fatalf("flags = %s, want %s", got, want)
	}
}

// TestRepoOperationsComplete runs the gate over this repository: every
// binary under cmd/ and every registered flag must appear in the real
// OPERATIONS.md. A new flag or binary that lands without documentation
// fails tier-1 here, and so does a flag that vanishes: the count below
// is exact, and whoever removes a flag on purpose lowers it.
func TestRepoOperationsComplete(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	missing, err := Check(root, filepath.Join(root, "OPERATIONS.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range missing {
		t.Error(m)
	}
	inv, err := Scan(root)
	if err != nil {
		t.Fatal(err)
	}
	// The scanner must keep seeing the real module: if it ever reports
	// implausibly few obligations, the gate has gone blind, not green.
	if len(inv.Binaries) < 6 {
		t.Errorf("scanner found only %d binaries under cmd/", len(inv.Binaries))
	}
	if len(inv.Flags) != 50 {
		t.Errorf("scanner found %d distinct flags module-wide, want 50: one was added or lost (a lost one is a dropped registration unless this number was lowered on purpose)", len(inv.Flags))
	}
}
