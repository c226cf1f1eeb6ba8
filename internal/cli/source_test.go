package cli

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

	"ehdl/internal/core"
	"ehdl/internal/fixed"
	"ehdl/internal/fleet"
	"ehdl/internal/fleet/memo"
	"ehdl/internal/harvest"
	"ehdl/internal/intermittent"
	"ehdl/internal/quant"
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

// TestFleetSourceBinProfilesExact: the per-bin profiles At serves are
// bit for bit the profile BuildProfile makes at the device's own
// jitter scale, the scale recomputed here with the draw's defining
// expression. It covers every profile kind under no jitter, continuous
// jitter, jitter_steps 1, 7 and 32, and a step count past
// binProfileBudget, on the natural, a cycled and a truncated fleet
// over several seeds.
func TestFleetSourceBinProfilesExact(t *testing.T) {
	dir := t.TempDir()
	if err := SaveModel(filepath.Join(dir, "m.gob"), testMNISTModel(t, 9)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tr.csv"), []byte("0,0.004\n0.05,0.006\n0.1,0.005\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	profiles := []string{
		`{ "kind": "const", "power_w": 2.5e-3 }`,
		`{ "kind": "square", "power_w": 5e-3, "period_s": 0.1, "duty": 0.3 }`,
		`{ "kind": "sine", "power_w": 6e-3, "period_s": 0.2 }`,
		`{ "kind": "trace", "trace": "tr.csv", "repeat": true }`,
	}
	jitters := []string{
		``,
		`, "jitter": 0.3`,
		`, "jitter": 0.3, "jitter_steps": 1`,
		`, "jitter": 0.25, "jitter_steps": 7`,
		`, "jitter": 0.2, "jitter_steps": 32`,
		`, "jitter": 0.3, "jitter_steps": 1048576`,
	}
	var specs []string
	for _, p := range profiles {
		for _, j := range jitters {
			specs = append(specs, fmt.Sprintf(`{ "name": "d%d", "count": 37, "profile": %s%s }`, len(specs), p, j))
		}
	}
	path := filepath.Join(dir, "fleet.json")
	doc := `{ "defaults": { "model": "m.gob", "engine": "sonic" }, "devices": [` + strings.Join(specs, ",\n") + `] }`
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 977} {
		src, err := LoadFleetSource(path, seed)
		if err != nil {
			t.Fatal(err)
		}
		for k, spec := range src.specs {
			want := 0
			switch {
			case spec.jitter == 0:
				want = 1
			case spec.jitterSteps > 0 && spec.jitterSteps <= 32:
				want = spec.jitterSteps
			}
			if len(spec.profiles) != want {
				t.Fatalf("spec %d (jitter %v, steps %d): %d bin profiles, want %d",
					k, spec.jitter, spec.jitterSteps, len(spec.profiles), want)
			}
		}
		for _, fl := range []*FleetSource{src, src.Resize(10240), src.Resize(100)} {
			for i := 0; i < fl.Len(); i++ {
				s, err := fl.At(i)
				if err != nil {
					t.Fatal(err)
				}
				base := i % fl.natural
				spec := &fl.specs[base/37]
				want, err := BuildProfile(spec.prof.Kind,
					orDefault(spec.prof.PowerW, defaultPowerW),
					orDefault(spec.prof.Period, defaultPeriod),
					orDefault(spec.prof.Duty, defaultDuty),
					spec.trace, refJitterScale(seed, i, spec.jitter, spec.jitterSteps))
				if err != nil {
					t.Fatal(err)
				}
				if msg := profileBitsDiffer(s.Setup.Profile, want); msg != "" {
					t.Fatalf("seed %d, fleet of %d, device %d (%s): %s", seed, fl.Len(), i, s.Name, msg)
				}
			}
		}
	}
}

// refJitterScale is quantizedJitterScale's defining expression,
// written out independently of the bin helpers.
func refJitterScale(seed int64, i int, jitter float64, steps int) float64 {
	if jitter == 0 {
		return 1
	}
	u := unitFloat(seed, i)
	if steps > 0 {
		u = (math.Floor(u*float64(steps)) + 0.5) / float64(steps)
	}
	return 1 + jitter*(2*u-1)
}

// profileBitsDiffer describes how got differs from want in type or in
// any float's bits, or returns "".
func profileBitsDiffer(got, want harvest.Profile) string {
	bits := func(vs ...float64) []uint64 {
		out := make([]uint64, len(vs))
		for k, v := range vs {
			out[k] = math.Float64bits(v)
		}
		return out
	}
	var g, w []uint64
	switch wp := want.(type) {
	case harvest.ConstantProfile:
		gp, ok := got.(harvest.ConstantProfile)
		if !ok {
			return fmt.Sprintf("got %T, want %T", got, want)
		}
		g, w = bits(gp.Watts), bits(wp.Watts)
	case harvest.SquareProfile:
		gp, ok := got.(harvest.SquareProfile)
		if !ok {
			return fmt.Sprintf("got %T, want %T", got, want)
		}
		g, w = bits(gp.PeakWatts, gp.Period, gp.Duty), bits(wp.PeakWatts, wp.Period, wp.Duty)
	case harvest.SineProfile:
		gp, ok := got.(harvest.SineProfile)
		if !ok {
			return fmt.Sprintf("got %T, want %T", got, want)
		}
		g, w = bits(gp.PeakWatts, gp.Period), bits(wp.PeakWatts, wp.Period)
	case *harvest.TraceProfile:
		gp, ok := got.(*harvest.TraceProfile)
		if !ok {
			return fmt.Sprintf("got %T, want %T", got, want)
		}
		if gp.Fingerprint() != wp.Fingerprint() || gp.Repeats() != wp.Repeats() || gp.Len() != wp.Len() {
			return fmt.Sprintf("trace fingerprint %x repeat %v len %d, want %x %v %d",
				gp.Fingerprint(), gp.Repeats(), gp.Len(), wp.Fingerprint(), wp.Repeats(), wp.Len())
		}
		g, w = traceBits(gp), traceBits(wp)
	default:
		return fmt.Sprintf("unexpected reference profile %T", want)
	}
	if !reflect.DeepEqual(g, w) {
		return fmt.Sprintf("bits %x, want %x", g, w)
	}
	return ""
}

// traceBits lists the bits of each breakpoint time in the first cycle
// and the power there, walked through NextChange, then the duration
// and the mean power.
func traceBits(p *harvest.TraceProfile) []uint64 {
	var out []uint64
	for t := 0.0; t < p.Duration(); t = p.NextChange(t) {
		out = append(out, math.Float64bits(t), math.Float64bits(p.PowerAt(t)))
	}
	return append(out, math.Float64bits(p.Duration()), math.Float64bits(p.MeanPower()))
}

// TestFleetSourceBinBudgetDocumentWide: the bin-profile budget is one
// count for the whole document, so a document of many specs with large
// jitter_steps holds at most binProfileBudget breakpoints of bin
// profiles, and the specs past it still give every device its exact
// profile.
func TestFleetSourceBinBudgetDocumentWide(t *testing.T) {
	dir := t.TempDir()
	if err := SaveModel(filepath.Join(dir, "m.gob"), testMNISTModel(t, 9)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tr.csv"), []byte("0,0.004\n0.05,0.006\n0.1,0.005\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	const specs, steps = 200, 4096
	devices := make([]string, specs)
	for k := range devices {
		devices[k] = `{}`
		if k%2 == 1 {
			devices[k] = `{ "profile": { "kind": "trace", "trace": "tr.csv", "repeat": true } }`
		}
	}
	doc := fmt.Sprintf(`{ "defaults": { "model": "m.gob", "engine": "sonic", "jitter": 0.3, "jitter_steps": %d }, "devices": [%s] }`,
		steps, strings.Join(devices, ","))
	path := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := LoadFleetSource(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	points, binned := 0, 0
	for _, spec := range src.specs {
		for _, p := range spec.profiles {
			points += profilePoints(p)
		}
		if spec.profiles != nil {
			binned++
		}
	}
	if points > binProfileBudget || binned == 0 || binned == specs {
		t.Fatalf("%d of %d specs hold %d bin-profile breakpoints, want some but not all within %d",
			binned, specs, points, binProfileBudget)
	}
	for i := 0; i < src.Len(); i++ {
		s, err := src.At(i)
		if err != nil {
			t.Fatal(err)
		}
		spec := &src.specs[i]
		want, err := BuildProfile(spec.prof.Kind,
			orDefault(spec.prof.PowerW, defaultPowerW),
			orDefault(spec.prof.Period, defaultPeriod),
			orDefault(spec.prof.Duty, defaultDuty),
			spec.trace, refJitterScale(1, i, spec.jitter, spec.jitterSteps))
		if err != nil {
			t.Fatal(err)
		}
		if msg := profileBitsDiffer(s.Setup.Profile, want); msg != "" {
			t.Fatalf("device %d (%s): %s", i, s.Name, msg)
		}
	}
}

// TestArtifactCacheConcurrentLoads: racing first requests for one
// bundle load it once, and every caller, hit or miss, gets that
// bundle.
func TestArtifactCacheConcurrentLoads(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.gob")
	if err := SaveModel(path, testMNISTModel(t, 9)); err != nil {
		t.Fatal(err)
	}
	cache := NewArtifactCache(0)
	got := make([]*modelBundle, 8)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 50 && errs[g] == nil; k++ {
				got[g], errs[g] = cache.bundle(newArtifactKey(path, 1))
			}
		}(g)
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if got[g] != got[0] {
			t.Fatal("racing loads returned distinct bundles")
		}
	}
	if cache.Len() != 1 || cache.Evictions() != 0 {
		t.Fatalf("len %d evictions %d, want one bundle loaded once", cache.Len(), cache.Evictions())
	}
}

// TestFleetSourceHandles: a device carries replay handles exactly when
// its profile is one of its spec's bin profiles, and the handles keep
// their promise over a resized fleet: equal trajectory handles mean
// equal engine, model, harvest config, profile, runner and input
// length, and equal prediction handles equal BCM discipline, model and
// input. Continuously jittered devices, and those of a trace spec
// whose bins exceed the profile budget, carry none.
func TestFleetSourceHandles(t *testing.T) {
	dir := t.TempDir()
	if err := SaveModel(filepath.Join(dir, "m.gob"), testMNISTModel(t, 9)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tr.csv"), []byte("0,0.004\n0.05,0.006\n0.1,0.005\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := `{
  "defaults": { "model": "m.gob", "engine": "sonic,ace+flex,ace", "jitter": 0.3, "jitter_steps": 4 },
  "devices": [
    { "name": "flat", "count": 7, "jitter": 0, "max_boots": 50 },
    { "name": "binned", "count": 40 },
    { "name": "pinned", "count": 9, "engine": "tails", "sample": 3 },
    { "name": "continuous", "count": 9, "jitter_steps": 0 },
    { "name": "over-budget", "count": 9, "jitter_steps": 30000,
      "profile": { "kind": "trace", "trace": "tr.csv", "repeat": true } }
  ]
}`
	path := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := LoadFleetSource(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	type class struct {
		engine  core.EngineKind
		model   [32]byte
		cfg     harvest.Config
		profile harvest.Profile
		runner  *intermittent.Runner
		inputs  int
	}
	type sample struct {
		discipline uint8
		model      [32]byte
		input      *fixed.Q15 // the bundle's shared input
	}
	trajs := map[uint32]class{}
	preds := map[uint32]sample{}
	src = src.Resize(3 * src.Len())
	for i := 0; i < src.Len(); i++ {
		s, err := src.At(i)
		if err != nil {
			t.Fatal(err)
		}
		base := i % src.natural
		binned := src.specs[sort.Search(len(src.specs), func(k int) bool { return src.cum[k+1] > base })].profiles != nil
		if binned != (s.TrajectoryHandle != 0) || binned != (s.PredictionHandle != 0) {
			t.Fatalf("device %d (%s): handles %d and %d, bin profile %v", i, s.Name, s.TrajectoryHandle, s.PredictionHandle, binned)
		}
		if !binned {
			continue
		}
		model := s.Model.ContentDigest()
		c := class{s.Engine, model, s.Setup.Config, s.Setup.Profile, s.Setup.Runner, len(s.Input)}
		if prev, ok := trajs[s.TrajectoryHandle]; ok && prev != c {
			t.Fatalf("device %d (%s): trajectory handle %d names %+v and %+v", i, s.Name, s.TrajectoryHandle, prev, c)
		}
		trajs[s.TrajectoryHandle] = c
		p := sample{memo.Discipline(s.Engine), model, &s.Input[0]}
		if prev, ok := preds[s.PredictionHandle]; ok && prev != p {
			t.Fatalf("device %d (%s): prediction handle %d names %+v and %+v", i, s.Name, s.PredictionHandle, prev, p)
		}
		preds[s.PredictionHandle] = p
	}
	// flat: 3 engines; binned: 3 engines x 4 bins; pinned: 4 bins.
	if len(trajs) != 3+12+4 {
		t.Errorf("%d trajectory handles, want %d", len(trajs), 3+12+4)
	}
}

// TestFleetSourceAtAllocs: a device with a bin profile costs At no
// allocation but its indexed name — none at all on a natural-size
// spec of count 1, whose name is the spec's.
func TestFleetSourceAtAllocs(t *testing.T) {
	src, err := LoadFleetSource(writeScenarioBundle(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	// Devices 2-4 are the bundle's count-1 specs without continuous
	// jitter; 0 and 1 build a jittered profile per device.
	for i := 2; i < src.Len(); i++ {
		if n := testing.AllocsPerRun(100, func() { src.At(i) }); n != 0 {
			t.Errorf("natural-size device %d: At allocates %v, want 0", i, n)
		}
	}
	big := src.Resize(1000)
	for _, i := range []int{2, 3, 4, 997, 998, 999} {
		if n := testing.AllocsPerRun(100, func() { big.At(i) }); n > 1 {
			t.Errorf("resized device %d: At allocates %v, want at most the name", i, n)
		}
	}
}

// TestArtifactCacheSharedAcrossSources: sources compiled from one
// file and seed over one cache share its bundle; another seed loads a
// bundle of its own.
func TestArtifactCacheSharedAcrossSources(t *testing.T) {
	path := writeScenarioBundle(t)
	sf, err := ParseScenarioFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cache := NewArtifactCache(0)
	compile := func(seed int64) *quant.Model {
		t.Helper()
		src, err := CompileFleetSource(sf, filepath.Dir(path), seed, cache)
		if err != nil {
			t.Fatal(err)
		}
		s, err := src.At(2)
		if err != nil {
			t.Fatal(err)
		}
		return s.Model
	}
	a, b := compile(1), compile(1)
	if a != b {
		t.Fatal("two sources of one file and seed loaded the model twice")
	}
	if cache.Len() != 1 {
		t.Fatalf("cache holds %d bundles after one file and seed, want 1", cache.Len())
	}
	if c := compile(2); c == a {
		t.Fatal("another seed shares the first seed's bundle")
	}
	if cache.Len() != 2 {
		t.Fatalf("cache holds %d bundles after two seeds, want 2", cache.Len())
	}
}
