// Package noclocktest exercises the noclock analyzer.
package noclocktest

import (
	"math/rand"
	"time"
	hostclock "time"
)

// wallNow reads the wall clock directly.
func wallNow() time.Time {
	return time.Now() // want `reads the wall clock`
}

// wallSince measures elapsed wall time.
func wallSince(start time.Time) time.Duration {
	return time.Since(start) // want `reads the wall clock`
}

// globalRand draws from the process-wide generator.
func globalRand() int {
	return rand.Intn(10) // want `unseeded process-wide state`
}

// seededRand is the blessed pattern: a local, seeded generator.
func seededRand(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	return rng.Float64()
}

// ticker paces on the host clock instead of an injected one; the
// analyzer resolves the renamed import.
func ticker() *time.Ticker {
	return hostclock.NewTicker(time.Second) // want `waits on the host clock`
}

// sleeper blocks on the host clock.
func sleeper() {
	time.Sleep(time.Millisecond) // want `waits on the host clock`
}

// justified is the annotated escape hatch for progress rendering.
func justified() time.Time {
	return time.Now() //ehdl:wallclock progress ETA rendering only, never feeds a row
}

// unjustified carries the annotation but no reason.
func unjustified() time.Time {
	return time.Now() //ehdl:wallclock // want `needs a justification`
}

// derivedValues on time.Time/Duration are fine; only the reads are banned.
func derivedValues(t time.Time) int64 {
	return t.UnixNano() + int64(3*time.Second)
}
