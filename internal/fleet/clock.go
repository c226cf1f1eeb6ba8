package fleet

import "time"

// Clock abstracts the host wall clock. Simulated results are pure
// functions of (scenario, seed); the only things a fleet run may
// measure in real time are the host-seconds line of a report and
// progress/ETA pacing, and both read through this interface so tests
// can drive them deterministically: RunStream's committer reads it to
// pace Progress, and no timer runs beside it. RunStream and MergeDir
// default to SystemClock when no Clock is injected.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
}

// SystemClock is the real host clock — the single place the fleet
// packages read wall time from.
var SystemClock Clock = systemClock{}

type systemClock struct{}

func (systemClock) Now() time.Time {
	return time.Now() //ehdl:wallclock host-seconds reporting and progress pacing only; a Clock never feeds simulated results
}

// orClock resolves an optional injected clock to a usable one.
func orClock(c Clock) Clock {
	if c == nil {
		return SystemClock
	}
	return c
}
