package main

import (
	"runtime"
	"testing"
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
