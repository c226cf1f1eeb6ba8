package fleet

// Memoized device runs: when StreamOptions.Memo is set, workers
// consult the content-addressed memo (internal/fleet/memo) before
// simulating a device and replay the cached outcome on a hit. Rows
// stay bit-identical to the unmemoized pipeline — only the host time
// and the Result.Memo tag change.

import (
	"ehdl/internal/core"
	"ehdl/internal/fleet/memo"
)

// runMemoized executes one scenario through the memo: replay on a
// hit, simulate-and-fill on a miss. Scenarios the memo cannot
// content-address (no model, unknown profile type, an engine outside
// core.AllEngines) simulate directly with an empty Memo tag, exactly
// as if the memo were off. The probe lives on this frame, so a hit
// allocates nothing.
func runMemoized(s Scenario, m *memo.Memo) Result {
	var probe memo.Probe
	if !probe.Reset(memo.Device{
		Engine:           string(s.Engine),
		VoltageOblivious: core.VoltageOblivious(s.Engine),
		Model:            s.Model,
		Input:            s.Input,
		Config:           s.Setup.Config,
		Profile:          s.Setup.Profile,
		Flex:             s.Setup.FlexConfig,
		Runner:           s.Setup.Runner,
	}) {
		return runOne(s)
	}
	out, kind := m.Lookup(&probe)
	if kind != memo.Miss {
		r := resultFromOutcome(s, out)
		r.Memo = kind.String()
		return r
	}
	r := runOne(s)
	m.Fill(&probe, outcomeFromResult(r))
	r.Memo = kind.String()
	return r
}

// resultFromOutcome rebuilds a Result row from a cached outcome. The
// per-device identity (name) and the profile label come from the
// scenario: equal trajectory and Tier-1 keys imply the same waveform
// type, and Tier-2 outcomes carry no profile at all.
func resultFromOutcome(s Scenario, o memo.Outcome) Result {
	return Result{
		Name:          s.Name,
		Engine:        s.Engine,
		Profile:       ProfileLabel(s.Setup.Profile),
		Completed:     o.Completed,
		Predicted:     o.Predicted,
		Boots:         o.Boots,
		ActiveSec:     o.ActiveSec,
		WallSec:       o.WallSec,
		EnergymJ:      o.EnergymJ,
		Diagnosis:     o.Diagnosis,
		FastForwarded: o.FastForwarded,
		Err:           o.Err,
		CleanResumes:  o.CleanResumes,
	}
}

// outcomeFromResult captures the simulated row for the cache.
func outcomeFromResult(r Result) memo.Outcome {
	return memo.Outcome{
		Profile:       r.Profile,
		Completed:     r.Completed,
		Predicted:     r.Predicted,
		Boots:         r.Boots,
		ActiveSec:     r.ActiveSec,
		WallSec:       r.WallSec,
		EnergymJ:      r.EnergymJ,
		Diagnosis:     r.Diagnosis,
		FastForwarded: r.FastForwarded,
		Err:           r.Err,
		CleanResumes:  r.CleanResumes,
	}
}
