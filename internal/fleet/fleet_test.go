package fleet

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ehdl/internal/core"
	"ehdl/internal/fixed"
	"ehdl/internal/harvest"
	"ehdl/internal/intermittent"
	"ehdl/internal/nn"
	"ehdl/internal/quant"
)

// tinyModel quantizes a small untrained stack: bit-level behaviour
// does not depend on training, so the fleet exercises the full
// device/engine/profile path without a training budget.
func tinyModel(t *testing.T) *quant.Model {
	t.Helper()
	arch := &nn.Arch{
		Name: "tiny", InShape: [3]int{1, 1, 16}, NumClasses: 4,
		Specs: []nn.LayerSpec{
			{Kind: "bcm", In: 16, Out: 8, K: 8},
			{Kind: "relu", N: 8},
			{Kind: "dense", In: 8, Out: 4},
		},
	}
	rng := rand.New(rand.NewSource(1))
	net := arch.Build(rng)
	calib := make([][]float64, 3)
	for i := range calib {
		x := make([]float64, 16)
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		calib[i] = x
	}
	m, err := quant.Quantize(net, arch, calib)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// testFleet builds a mixed fleet: varying engines, profiles and
// per-device power levels, including one deliberately dead source.
func testFleet(t *testing.T, m *quant.Model) []Scenario {
	t.Helper()
	input := make([]fixed.Q15, 16)
	for i := range input {
		input[i] = fixed.FromFloat(0.1 * float64(i%5))
	}
	engines := []core.EngineKind{core.EngineACEFLEX, core.EngineSONIC, core.EngineTAILS}
	var scenarios []Scenario
	for i := 0; i < 18; i++ {
		setup := core.PaperHarvestSetup()
		switch i % 3 {
		case 0:
			setup.Profile = harvest.SquareProfile{PeakWatts: 3e-3 + 1e-4*float64(i), Period: 0.1, Duty: 0.5}
		case 1:
			setup.Profile = harvest.SineProfile{PeakWatts: 4e-3 + 1e-4*float64(i), Period: 0.2}
		case 2:
			setup.Profile = harvest.ConstantProfile{Watts: 2e-3 + 1e-4*float64(i)}
		}
		scenarios = append(scenarios, Scenario{
			Name:   fmt.Sprintf("dev%02d", i),
			Engine: engines[i%len(engines)],
			Model:  m,
			Input:  input,
			Setup:  setup,
		})
	}
	// A dead device: zero harvest after the first charge, with a
	// capacitor too small to finish on that charge.
	dead := core.PaperHarvestSetup()
	dead.Profile = harvest.ConstantProfile{}
	dead.Config.CapacitanceF = 5e-7 // ~1.9 µJ usable < one ~2.7 µJ inference
	scenarios = append(scenarios, Scenario{
		Name: "dev-dead", Engine: core.EngineACEFLEX, Model: m, Input: input, Setup: dead,
	})
	return scenarios
}

// collectRun simulates the scenarios into a collected report with
// exact percentiles and every row materialized — the shape
// ehdl.RunFleet returns.
func collectRun(t *testing.T, scenarios []Scenario, workers int) Report {
	t.Helper()
	collect := &Collector{}
	rep, err := RunStream(SliceSource(scenarios), StreamOptions{
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

func TestFleetRunDeterministicAndOrdered(t *testing.T) {
	m := tinyModel(t)
	scenarios := testFleet(t, m)

	a := collectRun(t, scenarios, 4)
	b := collectRun(t, scenarios, 1) // serial reference
	c := collectRun(t, scenarios, 16)

	if len(a.Results) != len(scenarios) {
		t.Fatalf("results = %d, want %d", len(a.Results), len(scenarios))
	}
	for i, r := range a.Results {
		if r.Name != scenarios[i].Name {
			t.Fatalf("row %d is %q, want %q (order broken)", i, r.Name, scenarios[i].Name)
		}
	}
	// Host time differs run to run; everything else must be identical.
	a.HostSeconds, b.HostSeconds, c.HostSeconds = 0, 0, 0
	if !fleetEqual(a, b) || !fleetEqual(a, c) {
		t.Fatalf("fleet results depend on worker count:\n%+v\n%+v", a.Results, b.Results)
	}
}

// fleetEqual compares reports field by field; errors are compared by
// message (errors.Is identity does not survive reflect.DeepEqual on
// wrapped errors from different runs).
func fleetEqual(a, b Report) bool {
	if a.Devices != b.Devices || a.Completed != b.Completed ||
		a.TotalBoots != b.TotalBoots || a.CompletionRate != b.CompletionRate ||
		a.WallP50Sec != b.WallP50Sec || a.WallP90Sec != b.WallP90Sec || a.WallP99Sec != b.WallP99Sec {
		return false
	}
	for i := range a.Results {
		x, y := a.Results[i], b.Results[i]
		xe, ye := fmt.Sprint(x.Err), fmt.Sprint(y.Err)
		x.Err, y.Err = nil, nil
		if !reflect.DeepEqual(x, y) || xe != ye {
			return false
		}
	}
	return true
}

func TestFleetAggregates(t *testing.T) {
	m := tinyModel(t)
	scenarios := testFleet(t, m)
	rep := collectRun(t, scenarios, 0)

	if rep.Devices != len(scenarios) {
		t.Errorf("devices = %d", rep.Devices)
	}
	// The tiny model fits the paper budget: every live device
	// completes; the dead one must not.
	if rep.Completed != len(scenarios)-1 {
		t.Errorf("completed = %d, want %d", rep.Completed, len(scenarios)-1)
	}
	deadRow := rep.Results[len(rep.Results)-1]
	if deadRow.Completed {
		t.Error("dead device completed")
	}
	if !errors.Is(deadRow.Err, intermittent.ErrExhausted) {
		t.Errorf("dead device err = %v, want ErrExhausted", deadRow.Err)
	}
	if !(rep.WallP50Sec <= rep.WallP90Sec && rep.WallP90Sec <= rep.WallP99Sec) {
		t.Errorf("percentiles not ordered: %v %v %v", rep.WallP50Sec, rep.WallP90Sec, rep.WallP99Sec)
	}
	if rep.WallP99Sec <= 0 {
		t.Error("p99 wall time not positive")
	}
	want := float64(rep.Completed) / float64(rep.Devices)
	if rep.CompletionRate != want {
		t.Errorf("completion rate %v, want %v", rep.CompletionRate, want)
	}
	out := RenderReport(rep)
	if !strings.Contains(out, "dev-dead") || !strings.Contains(out, "p50") {
		t.Errorf("render missing content:\n%s", out)
	}
}

func TestFleetScenarioErrorsDoNotAbort(t *testing.T) {
	m := tinyModel(t)
	input := make([]fixed.Q15, 16)
	bad := core.PaperHarvestSetup()
	bad.Profile = harvest.SquareProfile{PeakWatts: 5e-3, Period: 0.1} // Duty 0: invalid
	nanCap := core.PaperHarvestSetup()
	nanCap.Config.CapacitanceF = math.NaN() // a NaN store never browns out
	scenarios := []Scenario{
		{Name: "bad-profile", Engine: core.EngineACEFLEX, Model: m, Input: input, Setup: bad},
		{Name: "no-model", Engine: core.EngineACEFLEX, Setup: core.PaperHarvestSetup()},
		{Name: "good", Engine: core.EngineACEFLEX, Model: m, Input: input, Setup: core.PaperHarvestSetup()},
		{Name: "nan-cap", Engine: core.EngineACEFLEX, Model: m, Input: input, Setup: nanCap},
	}
	rep := collectRun(t, scenarios, 2)
	if r := rep.Results[3]; r.Err == nil || r.Diagnosis != SetupErrorDiagnosis {
		t.Errorf("NaN capacitance: diagnosis %q, err %v; want a setup error", r.Diagnosis, r.Err)
	}
	if rep.Results[0].Err == nil {
		t.Error("invalid profile produced no error")
	}
	if rep.Results[1].Err == nil {
		t.Error("missing model produced no error")
	}
	if !rep.Results[2].Completed || rep.Results[2].Err != nil {
		t.Errorf("good scenario: %+v", rep.Results[2])
	}
	if rep.Completed != 1 {
		t.Errorf("completed = %d, want 1", rep.Completed)
	}
}

// TestFleetUnknownLayerKindIsSetupError: a model carrying a layer kind
// no engine runs must fail its own device at setup on every engine,
// not crash the fleet, and must leave its neighbour's row untouched.
func TestFleetUnknownLayerKindIsSetupError(t *testing.T) {
	good := tinyModel(t)
	bad := &quant.Model{Name: good.Name, InShape: good.InShape, NumClasses: good.NumClasses,
		Layers: append([]quant.QLayer(nil), good.Layers...)}
	bad.Layers[1].Spec.Kind = "gelu"
	input := make([]fixed.Q15, 16)
	for _, kind := range core.AllEngines() {
		goodDev := Scenario{Name: "good", Engine: kind, Model: good, Input: input, Setup: core.PaperHarvestSetup()}
		badDev := Scenario{Name: "gelu", Engine: kind, Model: bad, Input: input, Setup: core.PaperHarvestSetup()}
		rep := collectRun(t, []Scenario{badDev, goodDev}, 2)
		if r := rep.Results[0]; r.Err == nil || r.Diagnosis != SetupErrorDiagnosis {
			t.Errorf("%s: unknown layer kind gave diagnosis %q, err %v; want a setup error", kind, r.Diagnosis, r.Err)
		}
		alone := collectRun(t, []Scenario{goodDev}, 1)
		if !reflect.DeepEqual(rep.Results[1], alone.Results[0]) {
			t.Errorf("%s: neighbour row %+v, alone %+v", kind, rep.Results[1], alone.Results[0])
		}
	}
}

func TestForEach(t *testing.T) {
	for _, workers := range []int{0, 1, 3, 64} {
		got := make([]int, 100)
		ForEach(len(got), workers, func(i int) { got[i] = i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: slot %d = %d", workers, i, v)
			}
		}
	}
	ForEach(0, 4, func(int) { t.Fatal("fn called for n=0") })
}

func TestPercentile(t *testing.T) {
	vals := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	cases := []struct{ p, want float64 }{{50, 5}, {90, 9}, {99, 10}, {1, 1}}
	for _, c := range cases {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
}
