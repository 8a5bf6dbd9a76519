// Package paralleltest holds test helpers for code built on
// internal/parallel and internal/sweep: a way to pin GOMAXPROCS for
// one test, and an allocation counter that, unlike
// testing.AllocsPerRun, leaves GOMAXPROCS alone — AllocsPerRun pins
// it to 1 while it measures, which would hide exactly the fork a
// GOMAXPROCS-resolving worker default takes in production.
package paralleltest

import (
	"runtime"
	"testing"
)

// SetGOMAXPROCS sets GOMAXPROCS to n for the rest of the test and
// restores the previous value when the test ends. Tests that use it
// must not run in parallel with other tests.
func SetGOMAXPROCS(tb testing.TB, n int) {
	tb.Helper()
	prev := runtime.GOMAXPROCS(n)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// Mallocs calls f once to warm up, then measures five rounds of runs
// calls each and returns the fewest heap allocations a round made.
// The count is process-wide, so a stray allocation by another
// goroutine (the runtime, the test framework) can only add to a
// round; the minimum discards it. The caller must be the only test
// running.
func Mallocs(runs int, f func()) uint64 {
	f()
	var ms runtime.MemStats
	least := ^uint64(0)
	for range 5 {
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		for range runs {
			f()
		}
		runtime.ReadMemStats(&ms)
		least = min(least, ms.Mallocs-before)
	}
	return least
}
