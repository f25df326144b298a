package analysis

import (
	"path/filepath"
	"testing"
)

// TestRepoSelfClean runs the full analyzer suite over the real module
// from go test ./..., so any new violation of the determinism,
// error-handling, or nil-recorder invariants — or any annotation that
// stops parsing — fails tier-1 immediately. An analyzer that finds no
// site in the module its rule applies to fails too: it is clean only
// because it examines nothing.
func TestRepoSelfClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	diags, sites, err := check(root, []string{"./..."}, nil, false)
	if err != nil {
		t.Fatalf("loading the module: %v", err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
	if len(diags) > 0 {
		t.Errorf("%d finding(s); fix them or annotate with //shahinvet:allow <analyzer>", len(diags))
	}
	for _, an := range All() {
		if sites[an.Name] == 0 {
			t.Errorf("%s judged no site in the module in scope: it guards nothing here; fix its matching or delete it", an.Name)
		}
	}
}
