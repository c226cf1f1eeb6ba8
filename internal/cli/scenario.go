package cli

// This file declares the fleet scenario-file schema: one JSON
// document declares N heterogeneous device specs — engine ×
// capacitance × harvest profile (or trace) × model — which
// internal/cli compiles into a lazy fleet.Source (see source.go).
// The expansion is fully deterministic for a given (file, seed) pair.
// examples/scenarios/README.md is the complete field reference.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"ehdl/internal/harvest"
)

// ScenarioFile is the on-disk schema:
//
//	{
//	  "defaults": { "model": "mnist.gob", "engine": "ace+flex", "cap_f": 100e-6 },
//	  "devices": [
//	    { "name": "bench",  "count": 2 },
//	    { "name": "window", "engine": "sonic", "cap_f": 47e-6, "jitter": 0.2,
//	      "profile": { "kind": "sine", "power_w": 3e-3, "period_s": 0.2 } },
//	    { "name": "solar",  "profile": { "kind": "trace", "trace": "solar.csv", "repeat": true } }
//	  ]
//	}
//
// Every device field falls back to "defaults", then to the paper's
// experimental setup (ace+flex, 100 µF, 5 mW square wave at 50% duty).
// A device's "profile" object replaces the default profile wholesale.
// Relative "model" and "trace" paths resolve against the scenario
// file's directory, so a scenario bundle is self-contained. Unknown
// fields are rejected — a typo fails loudly instead of silently
// simulating the default.
type ScenarioFile struct {
	Defaults DeviceSpec   `json:"defaults"`
	Devices  []DeviceSpec `json:"devices"`
	// Memo configures fleet-wide inference memoization for this
	// scenario (nil = leave it to the -memo flags).
	Memo *MemoSpec `json:"memo,omitempty"`
}

// MemoSpec is the scenario file's memoization block:
//
//	"memo": { "enabled": true, "capacity": 65536 }
//
// Enabled turns the content-addressed run memo on for the fleet;
// Capacity bounds its LRU (0 = the memo package default). Results are
// bit-identical with the memo on or off — the knob trades memory for
// host time only — so scenario authors enable it wherever devices
// share (engine, model, input, waveform) equivalence classes.
type MemoSpec struct {
	Enabled  bool `json:"enabled"`
	Capacity int  `json:"capacity,omitempty"`
}

// DeviceSpec declares one (possibly repeated) device of the fleet.
type DeviceSpec struct {
	// Name labels the device's report rows; expansion appends /i for
	// count > 1.
	Name string `json:"name,omitempty"`
	// Count expands this spec into that many devices (default 1).
	Count *int `json:"count,omitempty"`
	// Model is the artifact path (relative to the scenario file).
	Model string `json:"model,omitempty"`
	// Engine is the runtime (base, sonic, tails, ace, ace+flex), a
	// comma-separated list of them, or "all"; expanded device i runs
	// entry i mod the list length, i being its global fleet index.
	Engine string `json:"engine,omitempty"`
	// CapF is the capacitance in farads.
	CapF *float64 `json:"cap_f,omitempty"`
	// LeakW is the parasitic leakage in watts.
	LeakW *float64 `json:"leak_w,omitempty"`
	// Sample is the test-set input index; unset cycles the test set
	// across the expanded fleet.
	Sample *int `json:"sample,omitempty"`
	// Jitter spreads each expanded device's harvest power uniformly in
	// [1-j, 1+j], deterministically from the expansion seed.
	Jitter *float64 `json:"jitter,omitempty"`
	// JitterSteps quantizes the jitter draw to that many equal-width
	// bins (midpoint of each), so jittered devices collapse into at
	// most JitterSteps harvest equivalence classes per spec — what
	// makes fleet memoization effective on jittered fleets. 0 (the
	// default) keeps the continuous draw.
	JitterSteps *int `json:"jitter_steps,omitempty"`
	// Profile selects the harvest waveform (replaces the default
	// profile wholesale when present).
	Profile *ProfileSpec `json:"profile,omitempty"`
	// MaxBoots overrides the intermittent runner's restart budget
	// (default 10000) — raise it for weak-ambient devices whose
	// inference legitimately needs more boots.
	MaxBoots *uint64 `json:"max_boots,omitempty"`
	// StagnationLimit overrides how many consecutive zero-progress
	// boots the runner tolerates before a DNF verdict (default 8).
	StagnationLimit *int `json:"stagnation_limit,omitempty"`
}

// ProfileSpec declares a harvest profile. The numeric fields are
// pointers so an explicit 0 (a dead source, a degenerate duty cycle)
// is passed to the profile validators instead of being silently
// replaced by the paper defaults.
type ProfileSpec struct {
	Kind   string   `json:"kind"` // square, sine, const, trace
	PowerW *float64 `json:"power_w,omitempty"`
	Period *float64 `json:"period_s,omitempty"`
	Duty   *float64 `json:"duty,omitempty"`
	Trace  string   `json:"trace,omitempty"`  // CSV path (kind "trace")
	Repeat bool     `json:"repeat,omitempty"` // repeat vs hold-last
}

// The paper's experimental defaults, used for any field no spec sets.
const (
	defaultPowerW = 5e-3
	defaultPeriod = 0.1
	defaultDuty   = 0.5
)

var paperProfile = ProfileSpec{Kind: "square"}

// DecodeScenarioFile strictly decodes a scenario document from r:
// unknown fields, trailing data and an empty device list are all
// rejected. This is the schema check alone — ParseScenarioFile for
// files, LoadFleetSource to also load the artifacts it names.
func DecodeScenarioFile(r io.Reader) (*ScenarioFile, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sf ScenarioFile
	if err := dec.Decode(&sf); err != nil {
		return nil, err
	}
	if dec.More() {
		return nil, fmt.Errorf("trailing data after the document")
	}
	if len(sf.Devices) == 0 {
		return nil, fmt.Errorf("no devices declared")
	}
	return &sf, nil
}

// ParseScenarioFile strictly decodes the scenario document at path.
func ParseScenarioFile(path string) (*ScenarioFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario file: %w", err)
	}
	defer f.Close()
	sf, err := DecodeScenarioFile(f)
	if err != nil {
		return nil, fmt.Errorf("scenario file %s: %w", path, err)
	}
	return sf, nil
}

func specName(d *DeviceSpec, idx int) string {
	if d.Name != "" {
		return d.Name
	}
	return fmt.Sprintf("dev%02d", idx)
}

// BuildProfile constructs a validated harvest profile — the one
// waveform switch behind ehsim and the scenario source (which
// ehfleet's flag mode compiles through too). power/period/duty apply where the kind uses them; trace
// must be the preloaded trace for kind "trace"; scale multiplies the
// profile's power (per-device jitter; pass 1 for none).
func BuildProfile(kind string, power, period, duty float64, trace *harvest.TraceProfile, scale float64) (harvest.Profile, error) {
	switch kind {
	case "square":
		return harvest.NewSquareProfile(power*scale, period, duty)
	case "sine":
		return harvest.NewSineProfile(power*scale, period)
	case "const":
		return harvest.NewConstantProfile(power * scale)
	case "trace":
		if trace == nil {
			return nil, fmt.Errorf(`profile kind "trace" needs a harvesting trace`)
		}
		if scale == 1 {
			// TraceProfile is immutable, so jitter-free devices share
			// the loaded trace instead of copying it per device.
			return trace, nil
		}
		scaled, err := trace.Scale(scale)
		if err != nil {
			return nil, err
		}
		return scaled, nil
	case "":
		return nil, fmt.Errorf(`profile needs a "kind" (square, sine, const, trace)`)
	default:
		return nil, fmt.Errorf("unknown profile kind %q (want square, sine, const, trace)", kind)
	}
}

func traceKey(path string, repeat bool) string {
	return fmt.Sprintf("%s|%v", path, repeat)
}

// resolvePath anchors a relative path at the scenario file's directory.
func resolvePath(baseDir, path string) string {
	if filepath.IsAbs(path) {
		return path
	}
	return filepath.Join(baseDir, path)
}

// pick returns the device-level value when set, else the default.
func pick[T any](dev, def *T) *T {
	if dev != nil {
		return dev
	}
	return def
}

func orDefault(v *float64, def float64) float64 {
	if v == nil {
		return def
	}
	return *v
}
