package main

import (
	"runtime"
	"strings"
	"testing"

	"shahin/internal/bench"
)

func TestFingerprint(t *testing.T) {
	fp := fingerprint()
	if fp.GoVersion != runtime.Version() {
		t.Errorf("go version %q", fp.GoVersion)
	}
	if fp.GOOS != runtime.GOOS || fp.GOARCH != runtime.GOARCH {
		t.Errorf("platform %s/%s", fp.GOOS, fp.GOARCH)
	}
	if fp.NumCPU < 1 {
		t.Errorf("num cpu %d", fp.NumCPU)
	}
}

// An unknown id anywhere in -exp is refused by resolve, which main calls
// before it runs anything, and the refusal names every valid id.
func TestResolveRefusesUnknownBeforeRunning(t *testing.T) {
	exps, err := resolve([]string{"fig2", " abl-sample"})
	if err == nil {
		t.Fatalf("resolved %d experiments for an unknown id", len(exps))
	}
	if !strings.Contains(err.Error(), `"abl-sample"`) {
		t.Errorf("error %q does not name the unknown id", err)
	}
	for _, id := range bench.ExperimentIDs() {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error %q does not name valid id %s", err, id)
		}
	}
	ids := []string{"fig5", " fig6 "}
	if exps, err := resolve(ids); err != nil || len(exps) != 2 || ids[1] != "fig6" {
		t.Fatalf("resolve(fig5, fig6) = %d experiments, ids %q, %v", len(exps), ids, err)
	}
}
