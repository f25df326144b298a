package cli

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"
)

// TestDoubleSignalForcesExit is the regression test for the forced-exit
// path: the first signal cancels the context (graceful drain), the
// second must call exit immediately instead of waiting for the drain.
func TestDoubleSignalForcesExit(t *testing.T) {
	sigs := make(chan os.Signal, 2)
	exited := make(chan int, 1)
	var log strings.Builder
	ctx, cancel := shutdownContext(context.Background(), sigs, func(code int) { exited <- code }, &log)
	defer cancel()

	sigs <- os.Interrupt
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("first signal did not cancel the context")
	}
	select {
	case code := <-exited:
		t.Fatalf("exit(%d) called after a single signal", code)
	default:
	}

	sigs <- os.Interrupt
	select {
	case code := <-exited:
		if code != 1 {
			t.Fatalf("forced exit code = %d, want 1", code)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("second signal did not force an exit")
	}
	if !strings.Contains(log.String(), "forcing exit") {
		t.Fatalf("forced exit left no note, log = %q", log.String())
	}
}

// TestShutdownContextParentCancel checks the signal goroutine stands
// down when the parent finishes first instead of leaking.
func TestShutdownContextParentCancel(t *testing.T) {
	parent, stopParent := context.WithCancel(context.Background())
	sigs := make(chan os.Signal, 2)
	exited := make(chan int, 1)
	ctx, cancel := shutdownContext(parent, sigs, func(code int) { exited <- code }, new(strings.Builder))
	defer cancel()

	stopParent()
	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("parent cancellation did not propagate")
	}
	// Signals after the run ended must not force an exit.
	sigs <- os.Interrupt
	sigs <- os.Interrupt
	select {
	case code := <-exited:
		t.Fatalf("exit(%d) called after the parent already finished", code)
	case <-time.After(100 * time.Millisecond):
	}
}
