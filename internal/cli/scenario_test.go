package cli

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ehdl/internal/fleet"
)

// writeScenarioBundle lays out a self-contained scenario directory: a
// model artifact, a harvest trace, and a scenario document with >= 3
// heterogeneous (engine × capacitance × profile × count) device specs.
func writeScenarioBundle(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	if err := SaveModel(filepath.Join(dir, "mnist.gob"), testMNISTModel(t, 9)); err != nil {
		t.Fatal(err)
	}
	trace := "0,0.004\n0.05,0.006\n0.1,0.005\n"
	if err := os.WriteFile(filepath.Join(dir, "solar.csv"), []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := `{
  "defaults": { "model": "mnist.gob", "engine": "ace+flex" },
  "devices": [
    { "name": "bench", "count": 2, "jitter": 0.3 },
    { "name": "window", "engine": "tails", "cap_f": 220e-6,
      "profile": { "kind": "sine", "power_w": 6e-3, "period_s": 0.2 } },
    { "name": "solar", "cap_f": 150e-6, "sample": 5,
      "profile": { "kind": "trace", "trace": "solar.csv", "repeat": true } },
    { "name": "starved", "engine": "ace", "cap_f": 2e-6,
      "profile": { "kind": "const", "power_w": 4e-4 } }
  ]
}`
	if err := os.WriteFile(filepath.Join(dir, "fleet.json"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	return filepath.Join(dir, "fleet.json")
}

// loadFleet compiles the scenario file at path and builds every
// device through At, in order.
func loadFleet(path string, seed int64) ([]fleet.Scenario, error) {
	src, err := LoadFleetSource(path, seed)
	if err != nil {
		return nil, err
	}
	out := make([]fleet.Scenario, src.Len())
	for i := range out {
		if out[i], err = src.At(i); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// runFleet simulates the scenarios into a collected report with
// exact percentiles and every row materialized.
func runFleet(t *testing.T, scenarios []fleet.Scenario, workers int) fleet.Report {
	t.Helper()
	collect := &fleet.Collector{}
	rep, err := fleet.RunStream(fleet.SliceSource(scenarios), fleet.StreamOptions{
		Workers:          workers,
		ExactPercentiles: len(scenarios),
		Sink:             collect,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep.Results = collect.Rows
	return rep
}

// TestScenarioExpansion: heterogeneous specs expand deterministically
// and the fleet runs them to a deterministic report.
func TestScenarioExpansion(t *testing.T) {
	path := writeScenarioBundle(t)
	scenarios, err := loadFleet(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 5 { // bench ×2 + window + solar + starved
		t.Fatalf("expanded %d scenarios, want 5", len(scenarios))
	}
	names := []string{"bench/0", "bench/1", "window", "solar", "starved"}
	engines := []string{"ace+flex", "ace+flex", "tails", "ace+flex", "ace"}
	for i, s := range scenarios {
		if s.Name != names[i] {
			t.Errorf("scenario %d named %q, want %q", i, s.Name, names[i])
		}
		if string(s.Engine) != engines[i] {
			t.Errorf("scenario %d engine %q, want %q", i, s.Engine, engines[i])
		}
		if s.Model == nil || len(s.Input) != 784 {
			t.Errorf("scenario %d missing model or input", i)
		}
	}
	// The two bench devices share everything except the jitter draw.
	if scenarios[0].Setup.Profile == scenarios[1].Setup.Profile {
		t.Error("jittered devices received identical profiles")
	}
	// All models point at the same loaded artifact (loaded once).
	if scenarios[0].Model != scenarios[2].Model {
		t.Error("same model path loaded more than once")
	}

	// Same (file, seed) → identical expansion.
	again, err := loadFleet(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scenarios, again) {
		t.Fatal("expansion is not deterministic")
	}
	// A different seed must move the jittered profiles.
	other, err := loadFleet(path, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(scenarios[0].Setup.Profile, other[0].Setup.Profile) {
		t.Fatal("jitter ignored the seed")
	}
}

func TestScenarioFleetRunDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a small fleet")
	}
	path := writeScenarioBundle(t)
	run := func() []fleet.Result {
		scenarios, err := loadFleet(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		rep := runFleet(t, scenarios, 0)
		for i := range rep.Results {
			rep.Results[i].Err = nil // errors carry no comparable state
		}
		return rep.Results
	}
	a := run()
	b := run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("fleet runs diverged:\n%+v\nvs\n%+v", a, b)
	}
	// The starved 2 µF device can never finish; the healthy ones must.
	for _, r := range a {
		if r.Name == "starved" {
			if r.Completed {
				t.Error("starved device completed on a 2 uF capacitor")
			}
		} else if !r.Completed {
			t.Errorf("device %s (%s) did not complete", r.Name, r.Engine)
		}
	}
}

// TestScenarioUnnamedSpecsGetDistinctNames: report rows from two
// anonymous device specs must be distinguishable.
func TestScenarioUnnamedSpecsGetDistinctNames(t *testing.T) {
	dir := t.TempDir()
	if err := SaveModel(filepath.Join(dir, "mnist.gob"), testMNISTModel(t, 12)); err != nil {
		t.Fatal(err)
	}
	doc := `{"defaults": {"model": "mnist.gob"},
		"devices": [{}, {"engine": "tails"}]}`
	path := filepath.Join(dir, "anon.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	scenarios, err := loadFleet(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(scenarios) != 2 || scenarios[0].Name == scenarios[1].Name {
		t.Fatalf("anonymous specs collided: %+v", scenarios)
	}
}

// TestScenarioExplicitZeroPower: an explicit 0 must reach the profile
// (a dead source is a legitimate DNF scenario), not be silently
// replaced by the 5 mW paper default.
func TestScenarioExplicitZeroPower(t *testing.T) {
	dir := t.TempDir()
	if err := SaveModel(filepath.Join(dir, "mnist.gob"), testMNISTModel(t, 11)); err != nil {
		t.Fatal(err)
	}
	doc := `{"devices": [{"model": "mnist.gob",
		"profile": {"kind": "const", "power_w": 0}}]}`
	path := filepath.Join(dir, "dead.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	scenarios, err := loadFleet(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	prof := scenarios[0].Setup.Profile
	if got := prof.PowerAt(0); got != 0 {
		t.Fatalf("explicit power_w 0 became %g W", got)
	}
	// An explicit degenerate duty must fail validation, not default.
	doc = `{"devices": [{"model": "mnist.gob",
		"profile": {"kind": "square", "power_w": 1e-3, "duty": 0}}]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadFleet(path, 1); err == nil {
		t.Fatal("duty 0 silently replaced by the default")
	}
}

// TestScenarioErrors drives the loader over malformed documents; every
// failure must name the problem (and the device where it applies).
func TestScenarioErrors(t *testing.T) {
	dir := t.TempDir()
	if err := SaveModel(filepath.Join(dir, "mnist.gob"), testMNISTModel(t, 10)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "bad.gob"), []byte("not an artifact"), 0o644); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name, doc, wantSub string
	}{
		{"empty devices", `{"devices": []}`, "no devices"},
		{"unknown field (typo)", `{"devices": [{"modle": "mnist.gob"}]}`, "unknown field"},
		{"no model anywhere", `{"devices": [{"name": "a"}]}`, "no model path"},
		{"unknown engine", `{"devices": [{"model": "mnist.gob", "engine": "warp"}]}`, "unknown engine"},
		{"bad count", `{"devices": [{"model": "mnist.gob", "count": 0}]}`, "count"},
		{"bad jitter", `{"devices": [{"model": "mnist.gob", "jitter": 1.5}]}`, "jitter"},
		{"sample out of range", `{"devices": [{"model": "mnist.gob", "sample": 640}]}`, "out of range"},
		{"unknown profile kind", `{"devices": [{"model": "mnist.gob", "profile": {"kind": "laser"}}]}`, "profile kind"},
		{"trace without path", `{"devices": [{"model": "mnist.gob", "profile": {"kind": "trace"}}]}`, "trace"},
		{"bad duty", `{"devices": [{"model": "mnist.gob", "profile": {"kind": "square", "power_w": 1e-3, "duty": 2}}]}`, "Duty"},
		{"corrupt model artifact", `{"devices": [{"model": "bad.gob"}]}`, "artifact"},
		{"missing model file", `{"devices": [{"model": "nope.gob"}]}`, "nope.gob"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, "case.json")
			if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := loadFleet(path, 1)
			if err == nil {
				t.Fatal("malformed scenario accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestScenarioRelativePaths: model and trace paths resolve against
// the scenario file's directory, not the process working directory.
func TestScenarioRelativePaths(t *testing.T) {
	path := writeScenarioBundle(t)
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	other := t.TempDir()
	if err := os.Chdir(other); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	if _, err := loadFleet(path, 1); err != nil {
		t.Fatalf("relative paths broke away from the scenario dir: %v", err)
	}
}

// TestScenarioRunnerOverrides: max_boots / stagnation_limit compile
// into a per-spec intermittent.Runner, with defaults inherited and
// degenerate values rejected.
func TestScenarioRunnerOverrides(t *testing.T) {
	dir := t.TempDir()
	if err := SaveModel(filepath.Join(dir, "mnist.gob"), testMNISTModel(t, 13)); err != nil {
		t.Fatal(err)
	}
	// Degenerate values must be rejected by the semantic guards in
	// compile() (plain JSON integers, so decoding succeeds), with the
	// offending field named.
	path := filepath.Join(dir, "runner.json")
	for _, bad := range []struct{ doc, field string }{
		{`{"devices": [{"model": "mnist.gob", "max_boots": 0}]}`, "max_boots"},
		{`{"devices": [{"model": "mnist.gob", "stagnation_limit": 0}]}`, "stagnation_limit"},
		{`{"devices": [{"model": "mnist.gob", "stagnation_limit": -3}]}`, "stagnation_limit"},
	} {
		if err := os.WriteFile(path, []byte(bad.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadFleetSource(path, 1); err == nil || !strings.Contains(err.Error(), bad.field) {
			t.Fatalf("degenerate %s accepted: %v", bad.field, err)
		}
	}

	doc := `{
		"defaults": {"model": "mnist.gob", "max_boots": 50000},
		"devices": [
			{"name": "weak", "stagnation_limit": 32},
			{"name": "plain"}
	]}`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := LoadFleetSource(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	weak, err := src.At(0)
	if err != nil {
		t.Fatal(err)
	}
	if weak.Setup.Runner == nil || weak.Setup.Runner.MaxBoots != 50000 ||
		weak.Setup.Runner.StagnationLimit != 32 {
		t.Fatalf("weak runner = %+v, want MaxBoots 50000 / StagnationLimit 32", weak.Setup.Runner)
	}
	plain, err := src.At(1)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Setup.Runner == nil || plain.Setup.Runner.MaxBoots != 50000 ||
		plain.Setup.Runner.StagnationLimit != 0 {
		t.Fatalf("plain runner = %+v, want inherited MaxBoots 50000 with default stagnation", plain.Setup.Runner)
	}
}
