package cli

import (
	"context"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
)

// Shutdown returns a context cancelled by the first SIGINT or SIGTERM.
// A second signal does not wait for graceful teardown: it prints a note
// to stderr and exits the process immediately with status 1. Call stop
// to release the signal handler once shutdown is complete.
func Shutdown(parent context.Context) (ctx context.Context, stop func()) {
	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	ctx, cancel := shutdownContext(parent, sigs, os.Exit, os.Stderr)
	return ctx, func() {
		signal.Stop(sigs)
		cancel()
	}
}

// shutdownContext implements Shutdown against an injected signal
// channel and exit function so the double-signal path is testable.
// The first signal cancels the returned context; the second calls
// exit(1) after noting the forced shutdown on logw.
func shutdownContext(parent context.Context, sigs <-chan os.Signal, exit func(int), logw io.Writer) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(parent)
	// Both selects below can have a signal and a finished run ready at
	// once, and select picks arbitrarily — so a signal received while
	// the run is already over must be re-checked against parent.Done()
	// before it counts, or a late Ctrl-C could force-exit a process
	// that finished cleanly.
	parentLive := func() bool {
		select {
		case <-parent.Done():
			return false
		default:
			return true
		}
	}
	go func() {
		select {
		case <-sigs:
			if !parentLive() {
				return
			}
		case <-ctx.Done():
			return
		}
		cancel()
		select {
		case <-sigs:
			if !parentLive() {
				return
			}
			fmt.Fprintln(logw, "second signal: forcing exit without graceful drain")
			exit(1)
		case <-parent.Done():
		}
	}()
	return ctx, cancel
}
