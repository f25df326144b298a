// Command shahin-vet runs the project's static-analysis suite: nine
// analyzers enforcing the determinism, error-handling, nil-recorder,
// and documentation invariants the reproduction depends on, plus
// context propagation (ctxflow), the critical-section rule for locks
// (lockguard), and an audit of the suppression inventory itself
// (allowaudit). See internal/analysis. It prints go-vet-style
// diagnostics (or JSON with -json) and exits non-zero when anything is
// flagged:
//
//	go run ./cmd/shahin-vet ./...
//	go run ./cmd/shahin-vet -json ./internal/...
//	go run ./cmd/shahin-vet -run walltime,maporder ./internal/core
//	go run ./cmd/shahin-vet -tests -run detrand,maporder ./...
//
// Findings are suppressed per line with //shahinvet:allow <analyzer>;
// allowaudit flags any such directive that no longer suppresses
// anything. -tests additionally analyzes in-package _test.go files.
package main

import (
	"os"

	"shahin/internal/analysis"
)

func main() {
	os.Exit(analysis.Main(os.Args[1:], os.Stdout, os.Stderr))
}
