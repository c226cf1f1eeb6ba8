package cli

import (
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ehdl/internal/core"
	"ehdl/internal/fleet"
)

// TestFleetSourceLazyMatchesMaterialized: At(i) must build exactly
// the scenario an in-order pass over a fresh source materializes at
// index i — access order does not change the fleet.
func TestFleetSourceLazyMatchesMaterialized(t *testing.T) {
	path := writeScenarioBundle(t)
	src, err := LoadFleetSource(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	eager, err := loadFleet(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	if src.Len() != len(eager) {
		t.Fatalf("source has %d devices, materialized %d", src.Len(), len(eager))
	}
	// Out-of-order and repeated access must not matter.
	for _, i := range []int{4, 0, 2, 0, 3, 1, 4} {
		got, err := src.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, eager[i]) {
			t.Fatalf("At(%d) diverges from materialized:\n%+v\nvs\n%+v", i, got, eager[i])
		}
	}
	if _, err := src.At(src.Len()); err == nil {
		t.Fatal("out-of-range index accepted")
	}
	if _, err := src.At(-1); err == nil {
		t.Fatal("negative index accepted")
	}
}

// TestFleetSourceSharesLoadedModels: every device must point at the
// same loaded artifact and share the converted input slices — the
// memory contract that makes million-device fleets possible.
func TestFleetSourceSharesLoadedModels(t *testing.T) {
	path := writeScenarioBundle(t)
	src, err := LoadFleetSource(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := src.At(0)
	b, _ := src.At(src.Len() - 1)
	if a.Model != b.Model {
		t.Error("same model artifact loaded more than once")
	}
	big := src.Resize(1000)
	c, err := big.At(999)
	if err != nil {
		t.Fatal(err)
	}
	if c.Model != a.Model {
		t.Error("resized source re-loaded the model")
	}
}

// TestFleetSourceResize: cycling, naming and determinism of resized
// fleets.
func TestFleetSourceResize(t *testing.T) {
	path := writeScenarioBundle(t)
	src, err := LoadFleetSource(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	natural := src.Len() // 5: bench×2, window, solar, starved

	big := src.Resize(12)
	if big.Len() != 12 || src.Len() != natural {
		t.Fatalf("resize mutated the source: %d, %d", big.Len(), src.Len())
	}
	names := map[string]bool{}
	for i := 0; i < big.Len(); i++ {
		s, err := big.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if names[s.Name] {
			t.Fatalf("duplicate device name %q in resized fleet", s.Name)
		}
		names[s.Name] = true
		// Device i cycles the declared fleet: same spec as i mod natural.
		base, _ := src.At(i % natural)
		if s.Engine != base.Engine {
			t.Fatalf("device %d engine %q, want %q (cycling broken)", i, s.Engine, base.Engine)
		}
	}
	// Clones of one spec are distinct devices: the jitter draw is
	// keyed by the global index.
	a, _ := big.At(0)
	b, _ := big.At(5)
	if reflect.DeepEqual(a.Setup.Profile, b.Setup.Profile) {
		t.Error("cycled clones received identical jittered profiles")
	}

	small := src.Resize(2)
	if small.Len() != 2 {
		t.Fatalf("truncated fleet has %d devices", small.Len())
	}
	if restored := small.Resize(0); restored.Len() != natural {
		t.Fatalf("Resize(0) = %d devices, want natural %d", restored.Len(), natural)
	}
}

// TestFleetSourceConcurrentAt: the source must be safe under the
// streaming pool (run with -race).
func TestFleetSourceConcurrentAt(t *testing.T) {
	path := writeScenarioBundle(t)
	src, err := LoadFleetSource(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	big := src.Resize(64)
	errs := make([]error, big.Len())
	var wg sync.WaitGroup
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = big.At(i)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("At(%d): %v", i, err)
		}
	}
}

// TestJitterScale: the continuous draw (steps 0) is deterministic,
// within [1-j, 1+j], spread across indices, moved by the seed.
func TestJitterScale(t *testing.T) {
	seen := map[float64]bool{}
	for i := 0; i < 1000; i++ {
		s := quantizedJitterScale(1, i, 0.3, 0)
		if s < 0.7 || s >= 1.3 {
			t.Fatalf("quantizedJitterScale(1, %d, 0.3, 0) = %v outside [0.7, 1.3)", i, s)
		}
		if s != quantizedJitterScale(1, i, 0.3, 0) {
			t.Fatal("jitter draw not deterministic")
		}
		seen[s] = true
	}
	if len(seen) < 990 {
		t.Fatalf("only %d distinct draws in 1000", len(seen))
	}
	if quantizedJitterScale(1, 7, 0.3, 0) == quantizedJitterScale(2, 7, 0.3, 0) {
		t.Error("seed ignored")
	}
	if quantizedJitterScale(1, 7, 0, 0) != 1 {
		t.Error("zero jitter must not scale")
	}
}

// TestScenarioStreamedMatchesRun: the end-to-end regression — a
// scenario file streamed through RunStream aggregates bit-identically
// to a collected, exact-percentile run over the materialized
// expansion, same seed.
func TestScenarioStreamedMatchesRun(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates a small fleet")
	}
	path := writeScenarioBundle(t)
	scenarios, err := loadFleet(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	ran := runFleet(t, scenarios, 4)

	src, err := LoadFleetSource(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := fleet.RunStream(src, fleet.StreamOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ran.Results, ran.HostSeconds = nil, 0
	streamed.HostSeconds = 0
	if !reflect.DeepEqual(ran, streamed) {
		t.Fatalf("streamed scenario aggregates diverge from the collected run:\n%+v\nvs\n%+v", ran, streamed)
	}
}

// TestResizedNamesCarryGlobalIndex pins the resized naming scheme the
// NDJSON rows expose.
func TestResizedNamesCarryGlobalIndex(t *testing.T) {
	path := writeScenarioBundle(t)
	src, err := LoadFleetSource(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	big := src.Resize(7)
	for _, tc := range []struct {
		i    int
		want string
	}{{0, "bench/0"}, {2, "window/2"}, {5, "bench/5"}, {6, "bench/6"}} {
		s, err := big.At(tc.i)
		if err != nil {
			t.Fatal(err)
		}
		if s.Name != tc.want {
			t.Fatalf("device %d named %q, want %q", tc.i, s.Name, tc.want)
		}
	}
}

// TestScenarioEngineLists: an "engine" field may name one runtime, a
// comma-separated list or "all"; device i runs list[i % len] by its
// global index, so a resized fleet keeps cycling where the declared
// one left off. Bad lists fail at compile, before any At.
func TestScenarioEngineLists(t *testing.T) {
	dir := t.TempDir()
	if err := SaveModel(filepath.Join(dir, "m.gob"), testMNISTModel(t, 14)); err != nil {
		t.Fatal(err)
	}
	three := 3
	compile := func(engine string) (*FleetSource, error) {
		sf := &ScenarioFile{Devices: []DeviceSpec{
			{Name: "lead", Model: "m.gob", Engine: "tails"},
			{Name: "list", Model: "m.gob", Engine: engine, Count: &three},
		}}
		return CompileFleetSource(sf, dir, 1, nil)
	}
	engines := func(src *FleetSource) []core.EngineKind {
		var got []core.EngineKind
		for i := 0; i < src.Len(); i++ {
			s, err := src.At(i)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, s.Engine)
		}
		return got
	}
	const (
		base, sonic, tails = core.EngineBase, core.EngineSONIC, core.EngineTAILS
		ace, flex          = core.EngineACE, core.EngineACEFLEX
	)
	for _, tc := range []struct {
		engine string
		want   []core.EngineKind // lead, then list/0..2 at global 1..3
	}{
		{"all", []core.EngineKind{tails, sonic, tails, ace}},
		{" ace , sonic ", []core.EngineKind{tails, sonic, ace, sonic}},
		{"base,,ace+flex", []core.EngineKind{tails, flex, base, flex}},
		{"sonic", []core.EngineKind{tails, sonic, sonic, sonic}},
	} {
		src, err := compile(tc.engine)
		if err != nil {
			t.Fatalf("engine %q: %v", tc.engine, err)
		}
		if got := engines(src); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("engine %q: devices run %v, want %v", tc.engine, got, tc.want)
		}
	}

	// Resized devices keep the global index: device 5 clones list/0
	// (declared index 1) but runs all[5 % 5] = base, not all[1].
	src, err := compile("all")
	if err != nil {
		t.Fatal(err)
	}
	want := []core.EngineKind{tails, sonic, tails, ace, tails, base, sonic, tails, tails}
	if got := engines(src.Resize(9)); !reflect.DeepEqual(got, want) {
		t.Errorf("resized fleet runs %v, want %v", got, want)
	}

	for _, bad := range []struct{ engine, want string }{
		{",", "no engines"},
		{" , ", "no engines"},
		{"ace, warp", `unknown engine "warp"`},
		{"ALL", `unknown engine "ALL"`},
	} {
		if _, err := compile(bad.engine); err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("engine %q compiled (err %v), want an error mentioning %q", bad.engine, err, bad.want)
		}
	}
}
