// Package alloctest is the one measurement behind every exact
// TestHotpathAllocs row: what a call allocates, in heap objects and in
// bytes.
package alloctest

import (
	"runtime"
	"runtime/debug"
)

// PerCall reports what one call of f allocates, heap objects and bytes,
// exactly (ReadMemStats stops the world; no collection runs meanwhile,
// whose own bookkeeping would be counted) and floored over the runs so
// a stray runtime allocation cannot round a 0 up.
func PerCall(f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs = 100
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.Mallocs - before.Mallocs) / runs, (after.TotalAlloc - before.TotalAlloc) / runs
}
