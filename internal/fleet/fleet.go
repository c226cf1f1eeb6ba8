// Package fleet simulates a deployment of energy-harvesting devices:
// N independent (device, engine, harvesting profile) scenarios run
// concurrently on slots of a bounded WorkerPool and are folded into one
// deterministic aggregate report — completion rate, boot counts,
// per-engine/per-profile breakdowns, and simulated-wall-time
// percentiles across the fleet. Every scenario owns its simulated
// device, so results are bit-identical to a serial sweep regardless
// of scheduling.
//
// The core is streaming (see RunStream): scenarios come from a lazy
// Source, workers claim contiguous chunks of devices, one committer
// puts the chunks back in order for the Sink and owns progress and
// checkpoints, and aggregation is online and constant-memory, so
// fleet size is bounded by simulation time, not host memory. A
// Collector sink materializes one Result row per scenario, in
// scenario order, for small fleets (ehdl.RunFleet).
package fleet

import (
	"fmt"
	"sort"
	"strings"

	"ehdl/internal/core"
	"ehdl/internal/fixed"
	"ehdl/internal/fleet/memo"
	"ehdl/internal/harvest"
	"ehdl/internal/quant"
)

// Scenario is one device of the fleet: a model inference under one
// harvesting setup on one runtime.
type Scenario struct {
	Name   string
	Engine core.EngineKind
	Model  *quant.Model
	Input  []fixed.Q15
	Setup  core.HarvestSetup
}

// Result is the outcome of one scenario.
type Result struct {
	Name   string
	Engine core.EngineKind
	// Profile labels the harvest waveform (square, sine, const,
	// trace, ...) for the per-profile breakdown.
	Profile   string
	Completed bool
	// Predicted is the argmax class on completion, -1 otherwise.
	Predicted int
	Boots     uint64
	ActiveSec float64 // simulated compute time
	WallSec   float64 // simulated compute + recharge time
	EnergymJ  float64
	// Diagnosis is the intermittent runner's verdict kind ("completed",
	// "frozen-progress", "boot-limit", ...) or "setup-error" when the
	// scenario never ran; see intermittent.DiagnosisKind.
	Diagnosis string
	// Deprecated: always 0; bench/ still reads it (ROADMAP item 2)
	FastForwarded uint64
	// Err is the intermittent sentinel on a DNF, or a setup error.
	Err error
	// CleanResumes is exec.Report's flag: no boot resumed onto an
	// input a later layer may have overwritten, so a completed run
	// predicted what the reference executor does. False (setup errors
	// too) makes the memo key the row on its input. Not in NDJSON rows.
	CleanResumes bool
	// Memo tags how the row was obtained when the run was memoized:
	// "miss" (simulated and cached), "hit-full" (whole outcome
	// replayed), or "hit-compute" (compute side replayed, boot-0
	// completion synthesized). Empty when the memo is off or the
	// scenario could not be content-addressed. The tag is diagnostic
	// only — racing workers may split hits and misses differently run
	// to run — so the aggregator and the default NDJSON rows ignore it.
	Memo string
}

// Report aggregates a fleet run.
type Report struct {
	// Results holds one row per scenario, in scenario order. Streaming
	// runs leave it nil — attach a Sink to observe rows.
	Results []Result

	Devices        int
	Completed      int
	CompletionRate float64 // Completed / Devices
	// Errors counts rows whose Err is set (setup failures and DNFs).
	Errors     int
	TotalBoots uint64

	// Simulated wall-time percentiles across all devices (completed
	// and DNF runs alike): exact nearest-rank while the fleet is
	// within the exact-percentile threshold, histogram estimates
	// above it (see PercentilesExact).
	WallP50Sec float64
	WallP90Sec float64
	WallP99Sec float64
	// PercentilesExact reports whether the percentiles above are
	// exact or fixed-bin histogram estimates (±~1%).
	PercentilesExact bool

	// Engines and Profiles break the fleet down by runtime and by
	// harvest waveform; Diagnoses counts rows per runner verdict
	// ("completed", "frozen-progress", "boot-limit", ...), the fleet
	// operator's view of WHY devices did or did not finish.
	Engines   map[string]GroupStats
	Profiles  map[string]GroupStats
	Diagnoses map[string]int

	// Memo holds the inference memo's counters when the run was
	// memoized (nil otherwise). The hit/miss split is scheduling-
	// dependent — see memo.Stats — but hits+misses always equals the
	// devices that consulted the memo.
	Memo *memo.Stats

	// HostSeconds is the real time the sweep took.
	HostSeconds float64
}

// runOne executes a single scenario on its own simulated device.
func runOne(s Scenario) Result {
	res := Result{
		Name:      s.Name,
		Engine:    s.Engine,
		Profile:   ProfileLabel(s.Setup.Profile),
		Predicted: -1,
	}
	if s.Model == nil {
		res.Err = fmt.Errorf("fleet: scenario %q has no model", s.Name)
		res.Diagnosis = SetupErrorDiagnosis
		return res
	}
	rep, err := core.InferIntermittent(s.Engine, s.Model, s.Input, s.Setup)
	if err != nil {
		res.Err = err
		res.Diagnosis = SetupErrorDiagnosis
		return res
	}
	res.Completed = rep.Intermittent.Completed
	res.Predicted = rep.Predicted
	res.Boots = rep.Intermittent.Boots
	res.ActiveSec = rep.Stats.ActiveSeconds
	res.WallSec = rep.Stats.WallSeconds
	res.EnergymJ = rep.Stats.EnergymJ()
	res.Diagnosis = string(rep.Intermittent.Diagnosis.Kind)
	res.Err = rep.Intermittent.Err
	res.CleanResumes = rep.CleanResumes
	return res
}

// SetupErrorDiagnosis labels rows whose scenario never produced an
// intermittent run (bad profile, missing model, source error).
const SetupErrorDiagnosis = "setup-error"

// ProfileLabel names a harvest profile's waveform for breakdowns.
func ProfileLabel(p harvest.Profile) string {
	switch p.(type) {
	case harvest.SquareProfile:
		return "square"
	case harvest.SineProfile:
		return "sine"
	case harvest.ConstantProfile:
		return "const"
	case *harvest.TraceProfile:
		return "trace"
	case nil:
		return "none"
	default:
		return "custom"
	}
}

// nearestRank is the 0-based nearest-rank index for percentile p over
// n sorted values, clamped to [0, n-1]. n must be > 0.
func nearestRank(n int, p float64) int {
	rank := int(float64(n)*p/100+0.5) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return rank
}

// percentile is the nearest-rank percentile of sorted values; 0 for
// an empty slice (an empty fleet has no wall times).
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[nearestRank(len(sorted), p)]
}

// RenderReport formats the fleet aggregate, the per-engine and
// per-profile breakdowns, and — when the report materialized them —
// one row per device.
func RenderReport(r Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "fleet: %d devices, %d completed (%.1f%%), %d boots total\n",
		r.Devices, r.Completed, 100*r.CompletionRate, r.TotalBoots)
	est := ""
	if !r.PercentilesExact {
		est = " (est)"
	}
	fmt.Fprintf(&b, "wall(sim)%s: p50 %.1f ms  p90 %.1f ms  p99 %.1f ms   host: %.2f s\n",
		est, r.WallP50Sec*1e3, r.WallP90Sec*1e3, r.WallP99Sec*1e3, r.HostSeconds)
	if m := r.Memo; m != nil {
		fmt.Fprintf(&b, "memo: %d hits (%d full, %d compute), %d misses, %d fills, %d/%d entries, %d evicted\n",
			m.Hits(), m.FullHits, m.ComputeHits, m.Misses, m.Fills, m.Entries, m.Capacity, m.Evictions)
	}
	renderGroups(&b, "engine", r.Engines)
	renderGroups(&b, "profile", r.Profiles)
	renderDiagnoses(&b, r.Diagnoses)
	if len(r.Results) == 0 {
		return b.String()
	}
	fmt.Fprintf(&b, "%-12s %-10s %-8s %7s %12s %12s %10s  %s\n",
		"device", "engine", "status", "boots", "active(ms)", "wall(ms)", "energy(mJ)", "diagnosis")
	for _, res := range r.Results {
		status := "ok"
		if !res.Completed {
			status = "X"
		}
		fmt.Fprintf(&b, "%-12s %-10s %-8s %7d %12.1f %12.1f %10.3f  %s\n",
			res.Name, res.Engine, status, res.Boots, res.ActiveSec*1e3, res.WallSec*1e3, res.EnergymJ,
			res.Diagnosis)
	}
	return b.String()
}

// renderDiagnoses prints the per-verdict breakdown when the fleet saw
// more than one kind of outcome.
func renderDiagnoses(b *strings.Builder, diagnoses map[string]int) {
	if len(diagnoses) < 2 {
		return
	}
	keys := make([]string, 0, len(diagnoses))
	for k := range diagnoses {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(b, "by diagnosis:\n")
	for _, k := range keys {
		fmt.Fprintf(b, "  %-24s %9d devices\n", k, diagnoses[k])
	}
}

// renderGroups prints one breakdown table in sorted key order.
func renderGroups(b *strings.Builder, label string, groups map[string]GroupStats) {
	if len(groups) < 2 {
		return // a homogeneous fleet repeats the summary line
	}
	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(b, "by %s:\n", label)
	for _, k := range keys {
		g := groups[k]
		fmt.Fprintf(b, "  %-10s %9d devices %9d ok (%5.1f%%) %12d boots %9d errors\n",
			k, g.Devices, g.Completed, 100*float64(g.Completed)/float64(g.Devices), g.Boots, g.Errors)
	}
}
