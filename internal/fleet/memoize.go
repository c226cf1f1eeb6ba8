package fleet

// Memoized device runs: when StreamOptions.Memo is set, workers
// consult the content-addressed memo (internal/fleet/memo) before
// simulating a device and replay the cached outcome on a hit, most of
// them from a table of their own earlier hits (replayTable). Rows stay
// bit-identical to the unmemoized pipeline — only the host time and
// the Result.Memo tag change.

import (
	"ehdl/internal/core"
	"ehdl/internal/fleet/memo"
)

// lookup executes one scenario through the memo: replay on a hit,
// simulate-and-fill on a miss. It also reports whether the memo served
// the row from its class's trajectory entry. Scenarios the memo cannot
// content-address (no model, unknown profile type, an engine outside
// core.AllEngines) simulate directly with an empty Memo tag, exactly
// as if the memo were off. The probe lives on this frame, so a hit
// allocates nothing.
func lookup(s Scenario, m *memo.Memo) (Result, bool) {
	var probe memo.Probe
	if !probe.Reset(memoDevice(&s)) {
		return runOne(s), false
	}
	out, kind := m.Lookup(&probe)
	if kind != memo.Miss {
		var r Result
		resultFromOutcome(&s, &out, &r)
		r.Memo = kind.String()
		return r, probe.HitTrajectory()
	}
	r := runOne(s)
	m.Fill(&probe, outcomeFromResult(r))
	r.Memo = kind.String()
	return r, false
}

// memoDevice is what the memo keys s by.
func memoDevice(s *Scenario) memo.Device {
	return memo.Device{
		Engine:           string(s.Engine),
		VoltageOblivious: core.VoltageOblivious(s.Engine),
		Model:            s.Model,
		Input:            s.Input,
		Config:           s.Setup.Config,
		Profile:          s.Setup.Profile,
		Flex:             s.Setup.FlexConfig,
		Runner:           s.Setup.Runner,
	}
}

// replayTable is one worker's record, for one stream, of what its
// trajectory-tier memo hits returned, indexed by the Source's handles
// less one: each trajectory handle's class outcome and each prediction
// handle's reference argmax. A device whose two slots are filled
// replays from them without building a probe; any other takes lookup
// and, on a trajectory-tier hit, fills its slots. Both are copies of
// memo entries, which are pure functions of their keys, and the
// Source's handle promise makes equal handles mean equal keys, so a
// slot serves the row the memo would. Input-keyed and compute-tier
// hits leave the table alone. Handles past maxReplaySlots always
// take lookup.
type replayTable struct {
	traj []trajectorySlot
	pred []int // argmax+1; 0 is an empty slot
	// hits counts table replays not yet added to the memo's counters.
	hits uint64
}

type trajectorySlot struct {
	out memo.Outcome // Predicted is -1
	ok  bool
	// line holds a replayed row's bytes from its engine field on,
	// less the prediction, which goes at cut; the slot's first replay
	// encodes them (see workerEncoder). general marks a slot whose
	// row appendRow declines. Both stay unset when the run's sink
	// takes no lines.
	general bool
	line    []byte
	cut     int
}

// maxReplaySlots caps each of a table's slices: a full trajectory
// slice holds about 600 KB, not counting cached line bytes.
const maxReplaySlots = 1 << 12

// run executes one scenario through the table, then the memo, into r.
// It returns the trajectory slot of a table replay, nil otherwise; the
// pointer is good until the table's next run.
func (t *replayTable) run(s *Scenario, m *memo.Memo, r *Result) *trajectorySlot {
	if sl := t.replay(s, r); sl != nil {
		t.hits++
		return sl
	}
	var traj bool
	*r, traj = lookup(*s, m)
	if traj {
		t.fill(s, r)
	}
	return nil
}

// replay writes s's row from its slots into r and returns its
// trajectory slot, or returns nil, leaving r alone, when a slot it
// needs is empty: a completed row takes its prediction from its
// prediction slot, any other predicts -1.
func (t *replayTable) replay(s *Scenario, r *Result) *trajectorySlot {
	c := int(s.TrajectoryHandle) - 1
	if uint(c) >= uint(len(t.traj)) || !t.traj[c].ok {
		return nil
	}
	sl := &t.traj[c]
	predicted := -1
	if sl.out.Completed {
		p := int(s.PredictionHandle) - 1
		if uint(p) >= uint(len(t.pred)) || t.pred[p] == 0 {
			return nil
		}
		predicted = t.pred[p] - 1
	}
	resultFromOutcome(s, &sl.out, r)
	r.Predicted = predicted
	r.Memo = memo.HitFull.String()
	return sl
}

// fill records the row of a trajectory-tier hit in s's slots. A
// refill leaves a slot's line bytes valid: by the handle promise it
// carries the same outcome.
func (t *replayTable) fill(s *Scenario, r *Result) {
	if c := int(s.TrajectoryHandle) - 1; c >= 0 && c < maxReplaySlots {
		t.traj = grow(t.traj, c)
		t.traj[c].out = outcomeFromResult(*r)
		t.traj[c].out.Predicted = -1
		t.traj[c].ok = true
	}
	if p := int(s.PredictionHandle) - 1; p >= 0 && p < maxReplaySlots && r.Completed {
		t.pred = grow(t.pred, p)
		t.pred[p] = r.Predicted + 1
	}
}

// grow extends xs with empty slots until it has slot k.
func grow[T any](xs []T, k int) []T {
	if k < len(xs) {
		return xs
	}
	return append(xs, make([]T, k+1-len(xs))...)
}

// resultFromOutcome rebuilds a Result row from a cached outcome into
// r. The per-device identity (name) and the profile label come from
// the scenario: equal trajectory and Tier-1 keys imply the same waveform
// type, and Tier-2 outcomes carry no profile at all.
func resultFromOutcome(s *Scenario, o *memo.Outcome, r *Result) {
	*r = Result{
		Name:         s.Name,
		Engine:       s.Engine,
		Profile:      ProfileLabel(s.Setup.Profile),
		Completed:    o.Completed,
		Predicted:    o.Predicted,
		Boots:        o.Boots,
		ActiveSec:    o.ActiveSec,
		WallSec:      o.WallSec,
		EnergymJ:     o.EnergymJ,
		Diagnosis:    o.Diagnosis,
		Err:          o.Err,
		CleanResumes: o.CleanResumes,
	}
}

// outcomeFromResult captures the simulated row for the cache.
func outcomeFromResult(r Result) memo.Outcome {
	return memo.Outcome{
		Profile:      r.Profile,
		Completed:    r.Completed,
		Predicted:    r.Predicted,
		Boots:        r.Boots,
		ActiveSec:    r.ActiveSec,
		WallSec:      r.WallSec,
		EnergymJ:     r.EnergymJ,
		Diagnosis:    r.Diagnosis,
		Err:          r.Err,
		CleanResumes: r.CleanResumes,
	}
}
