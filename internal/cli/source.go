package cli

// This file compiles a scenario file into a lazy fleet.Source: every
// cross-device resource — model artifacts, datasets, converted test
// inputs, harvest traces — is loaded and validated once up front and
// then served from a bounded LRU, and individual fleet.Scenarios are
// built on demand. A million-device fleet costs O(cache capacity)
// memory to hold, not O(devices) and not O(distinct artifacts):
// cmd/ehfleet streams scenarios straight from the source into
// fleet.RunStream. Per-device randomness (the jitter draw) is keyed
// by (seed, global device index), so expansion is deterministic and
// order-free — device i is the same scenario whether the fleet is
// materialized, streamed, or resized.

import (
	"fmt"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"sync"

	"ehdl/internal/core"
	"ehdl/internal/dataset"
	"ehdl/internal/fixed"
	"ehdl/internal/fleet"
	"ehdl/internal/fleet/memo"
	"ehdl/internal/harvest"
	"ehdl/internal/intermittent"
	"ehdl/internal/quant"
)

// compiledSpec is one fully-resolved device spec: everything shared
// by its expanded devices. The model artifact is referenced by
// resolved path and fetched through the source's bounded store, so a
// fleet mixing hundreds of artifacts does not pin them all.
type compiledSpec struct {
	name        string
	count       int
	engines     []core.EngineKind // device i runs engines[i % len]
	cfg         harvest.Config
	jitter      float64
	jitterSteps int
	prof        ProfileSpec
	trace       *harvest.TraceProfile // preloaded for kind "trace"
	modelPath   string                // resolved artifact path (store key)
	sample      *int                  // explicit test-sample override
	runner      *intermittent.Runner  // boot-budget overrides (nil = defaults)
}

// FleetSource is a compiled scenario file: a lazy, concurrency-safe
// fleet.Source over the declared (or resized) device fleet.
type FleetSource struct {
	n       int // fleet size (== natural unless resized)
	natural int // devices the file declares
	seed    int64
	specs   []compiledSpec
	cum     []int // cum[k] = first natural index of spec k; len(specs)+1
	cache   *ArtifactCache
	memo    *MemoSpec // the file's "memo" block (nil when absent)
}

// LoadFleetSource parses and compiles the scenario file at path.
// Every model artifact, dataset and trace is loaded and validated
// here, once; the returned source builds scenarios on demand and is
// safe for concurrent At calls. seed drives the jitter draws and the
// dataset generators, so the same (file, seed) pair always describes
// an identical fleet.
func LoadFleetSource(path string, seed int64) (*FleetSource, error) {
	sf, err := ParseScenarioFile(path)
	if err != nil {
		return nil, err
	}
	src, err := CompileFleetSource(sf, filepath.Dir(path), seed, nil)
	if err != nil {
		return nil, fmt.Errorf("scenario file %s: %w", path, err)
	}
	return src, nil
}

// CompileFleetSource compiles an already-parsed scenario document
// into a fleet source. Relative model and trace paths resolve against
// baseDir. cache, when non-nil, is a shared ArtifactCache — the fleet
// service passes one process-wide cache so concurrent jobs naming the
// same artifacts load them once; nil gets a private cache, matching
// LoadFleetSource's one-shot CLI behaviour.
func CompileFleetSource(sf *ScenarioFile, baseDir string, seed int64, cache *ArtifactCache) (*FleetSource, error) {
	if cache == nil {
		cache = newArtifactCache()
	}
	c := &compiler{
		baseDir: baseDir,
		seed:    seed,
		cache:   cache,
		traces:  map[string]*harvest.TraceProfile{},
	}
	src := &FleetSource{seed: seed, cum: []int{0}, cache: cache, memo: sf.Memo}
	for di := range sf.Devices {
		spec, err := c.compile(&sf.Defaults, &sf.Devices[di], di)
		if err != nil {
			return nil, fmt.Errorf("device %d (%s): %w",
				di, specName(&sf.Devices[di], di), err)
		}
		src.specs = append(src.specs, spec)
		src.natural += spec.count
		src.cum = append(src.cum, src.natural)
	}
	src.n = src.natural
	return src, nil
}

// Len implements fleet.Source.
func (s *FleetSource) Len() int { return s.n }

// Memo returns the scenario file's "memo" block, nil when the file
// declares none. cmd/ehfleet resolves it against the -memo flags.
func (s *FleetSource) Memo() *MemoSpec { return s.memo }

// Resize returns a view of the source with exactly n devices: the
// declared fleet is truncated or cycled (device i maps to declared
// device i mod the natural size), with jitter and sample cycling
// keyed by the global index so every clone is a distinct device.
// Resized fleets name devices "spec/i" with the global index. n <= 0
// restores the natural size. The artifact cache is shared with the
// original source.
func (s *FleetSource) Resize(n int) *FleetSource {
	out := *s
	if n <= 0 {
		n = s.natural
	}
	out.n = n
	return &out
}

// At implements fleet.Source: it builds scenario i from the compiled
// specs. The model, dataset and converted inputs come from the
// bounded artifact store (shared across every device that uses them,
// reloaded deterministically if evicted); only the per-device profile
// is constructed here.
func (s *FleetSource) At(i int) (fleet.Scenario, error) {
	if i < 0 || i >= s.n {
		return fleet.Scenario{}, fmt.Errorf("device %d out of range (fleet has %d)", i, s.n)
	}
	base := i % s.natural
	k := sort.Search(len(s.specs), func(k int) bool { return s.cum[k+1] > base })
	spec := &s.specs[k]

	b, err := s.cache.bundle(spec.modelPath, s.seed)
	if err != nil {
		return fleet.Scenario{}, err
	}
	profile, err := s.buildProfile(spec, i)
	if err != nil {
		return fleet.Scenario{}, err
	}
	sampleIdx := i % len(b.inputs)
	if spec.sample != nil {
		sampleIdx = *spec.sample
	}
	name := spec.name
	switch {
	case s.n != s.natural:
		name = spec.name + "/" + strconv.Itoa(i)
	case spec.count > 1:
		name = spec.name + "/" + strconv.Itoa(base-s.cum[k])
	}
	return fleet.Scenario{
		Name:   name,
		Engine: spec.engines[i%len(spec.engines)],
		Model:  b.model,
		Input:  b.inputs[sampleIdx],
		Setup:  core.HarvestSetup{Config: spec.cfg, Profile: profile, Runner: spec.runner},
	}, nil
}

func (s *FleetSource) buildProfile(spec *compiledSpec, i int) (harvest.Profile, error) {
	scale := quantizedJitterScale(s.seed, i, spec.jitter, spec.jitterSteps)
	return BuildProfile(spec.prof.Kind,
		orDefault(spec.prof.PowerW, defaultPowerW),
		orDefault(spec.prof.Period, defaultPeriod),
		orDefault(spec.prof.Duty, defaultDuty),
		spec.trace, scale)
}

// quantizedJitterScale is the deterministic per-device harvest-power
// spread: a uniform draw in [1-jitter, 1+jitter] keyed by (seed,
// device index) alone, so any device of any fleet size can be built
// independently — no shared rng stream to replay. steps > 0 snaps the
// draw to the midpoints of steps equal-width bins over [0, 1) (steps
// <= 0 keeps the continuous draw). Quantization trades waveform
// variety for fleet-memo hit rate: a 10k-device spec with jitter_steps
// 32 has at most 32 distinct harvest fingerprints instead of 10k, so
// all but one device per bin replay from the Tier-1 cache while the
// fleet still spans the full ±jitter spread.
func quantizedJitterScale(seed int64, i int, jitter float64, steps int) float64 {
	if jitter == 0 {
		return 1
	}
	u := unitFloat(seed, i)
	if steps > 0 {
		u = (math.Floor(u*float64(steps)) + 0.5) / float64(steps)
	}
	return 1 + jitter*(2*u-1)
}

// unitFloat maps (seed, i) to a uniform float64 in [0, 1) via a
// splitmix64 finalizer.
func unitFloat(seed int64, i int) float64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// DefaultArtifactCacheCap bounds how many distinct model artifacts
// (with their datasets and converted inputs) a fleet source keeps
// loaded at once. 64 covers every bundled scenario many times over
// while capping memory for fleets that sweep hundreds of artifacts.
const DefaultArtifactCacheCap = 64

// artifactCacheCap is the live bound (a var so tests can shrink it to
// force eviction).
var artifactCacheCap = DefaultArtifactCacheCap

// modelBundle is everything a device spec derives from one model
// artifact: the model, its matching dataset, and the test inputs
// converted to Q15 — loaded together, evicted together.
type modelBundle struct {
	model  *quant.Model
	set    *dataset.Set
	inputs [][]fixed.Q15
}

// artifactKey identifies one loadable bundle: the resolved artifact
// path plus the dataset seed (two fleets with different seeds derive
// different test inputs from the same model file).
type artifactKey struct {
	path string
	seed int64
}

// ArtifactCache serves model bundles through a bounded LRU (the memo
// package's, doing double duty as the ROADMAP's model-store LRU),
// keyed by (resolved path, seed) so it can be shared across fleet
// sources — the fleet service keeps one for the whole process.
// Reloading an evicted bundle is deterministic — artifacts are
// immutable files and datasets are generated from the expansion seed
// — so eviction changes pointer identity, never content: memoization
// keys on the content digest and sees the same model either way.
type ArtifactCache struct {
	mu  sync.Mutex // also serializes loads: misses are rare after warm-up
	lru *memo.LRU[artifactKey, *modelBundle]
}

// NewArtifactCache returns a cache bounded to capacity bundles
// (capacity <= 0 uses DefaultArtifactCacheCap).
func NewArtifactCache(capacity int) *ArtifactCache {
	if capacity <= 0 {
		capacity = DefaultArtifactCacheCap
	}
	return &ArtifactCache{lru: memo.NewLRU[artifactKey, *modelBundle](capacity)}
}

// newArtifactCache builds the per-source private cache at the live
// (test-adjustable) bound.
func newArtifactCache() *ArtifactCache {
	return &ArtifactCache{lru: memo.NewLRU[artifactKey, *modelBundle](artifactCacheCap)}
}

// Len returns the number of loaded bundles (for service metrics).
func (a *ArtifactCache) Len() int { return a.lru.Len() }

// Evictions returns how many bundles were dropped to make room.
func (a *ArtifactCache) Evictions() uint64 { return a.lru.Evictions() }

// bundle returns the bundle for the resolved artifact path under
// seed, loading (or reloading, after eviction) on miss.
func (a *ArtifactCache) bundle(resolved string, seed int64) (*modelBundle, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	key := artifactKey{path: resolved, seed: seed}
	if b, ok := a.lru.Get(key); ok {
		return b, nil
	}
	m, err := LoadModel(resolved)
	if err != nil {
		return nil, err
	}
	set, err := DatasetFor(m, seed)
	if err != nil {
		return nil, err
	}
	inputs := make([][]fixed.Q15, len(set.Test))
	for i := range set.Test {
		inputs[i] = fixed.FromFloats(set.Test[i].Input)
	}
	b := &modelBundle{model: m, set: set, inputs: inputs}
	a.lru.Add(key, b)
	return b, nil
}

// compiler carries the shared state of one compilation. Model bundles
// go through the source's bounded cache; traces stay pinned here and
// on their specs (one trace per spec at most, so they are bounded by
// the file's spec count, not the fleet size).
type compiler struct {
	baseDir string
	seed    int64
	cache   *ArtifactCache
	traces  map[string]*harvest.TraceProfile
}

// compile resolves one device spec (with defaults) into its shared,
// validated form. Everything that can fail is checked here so that
// FleetSource.At cannot surprise a million-device run midway —
// including one load of the model bundle, which also warms the store.
func (c *compiler) compile(def, d *DeviceSpec, di int) (compiledSpec, error) {
	spec := compiledSpec{name: specName(d, di), count: 1}
	if cnt := pick(d.Count, def.Count); cnt != nil {
		spec.count = *cnt
	}
	if spec.count < 1 {
		return spec, fmt.Errorf("count must be >= 1, got %d", spec.count)
	}

	modelPath := d.Model
	if modelPath == "" {
		modelPath = def.Model
	}
	if modelPath == "" {
		return spec, fmt.Errorf("no model path (set it on the device or in defaults)")
	}
	spec.modelPath = resolvePath(c.baseDir, modelPath)
	bundle, err := c.cache.bundle(spec.modelPath, c.seed)
	if err != nil {
		return spec, err
	}

	engineName := d.Engine
	if engineName == "" {
		engineName = def.Engine
	}
	if engineName == "" {
		engineName = string(core.EngineACEFLEX)
	}
	if spec.engines, err = parseEngines(engineName); err != nil {
		return spec, err
	}

	spec.cfg = harvest.PaperConfig()
	if cp := pick(d.CapF, def.CapF); cp != nil {
		spec.cfg.CapacitanceF = *cp
	}
	if l := pick(d.LeakW, def.LeakW); l != nil {
		spec.cfg.LeakageW = *l
	}

	if j := pick(d.Jitter, def.Jitter); j != nil {
		spec.jitter = *j
	}
	if spec.jitter < 0 || spec.jitter >= 1 {
		return spec, fmt.Errorf("jitter must be in [0, 1), got %g", spec.jitter)
	}
	if js := pick(d.JitterSteps, def.JitterSteps); js != nil {
		spec.jitterSteps = *js
	}
	if spec.jitterSteps < 0 {
		return spec, fmt.Errorf("jitter_steps must be >= 0, got %d", spec.jitterSteps)
	}

	spec.prof = paperProfile
	if p := d.Profile; p != nil {
		spec.prof = *p
	} else if def.Profile != nil {
		spec.prof = *def.Profile
	}
	if spec.prof.Kind == "trace" {
		if spec.prof.Trace == "" {
			return spec, fmt.Errorf(`profile kind "trace" needs a "trace" CSV path`)
		}
		if spec.trace, err = c.trace(spec.prof.Trace, spec.prof.Repeat); err != nil {
			return spec, err
		}
	}
	// Validate the waveform parameters once, at the unjittered scale;
	// jitter scales are in (0, 2), which preserves validity.
	if _, err = BuildProfile(spec.prof.Kind,
		orDefault(spec.prof.PowerW, defaultPowerW),
		orDefault(spec.prof.Period, defaultPeriod),
		orDefault(spec.prof.Duty, defaultDuty),
		spec.trace, 1); err != nil {
		return spec, err
	}

	if s := pick(d.Sample, def.Sample); s != nil {
		if _, err := Sample(bundle.set, *s); err != nil {
			return spec, err
		}
		spec.sample = s
	}

	maxBoots := pick(d.MaxBoots, def.MaxBoots)
	stagLimit := pick(d.StagnationLimit, def.StagnationLimit)
	if maxBoots != nil && *maxBoots == 0 {
		return spec, fmt.Errorf("max_boots must be >= 1, got 0")
	}
	if stagLimit != nil && *stagLimit < 1 {
		return spec, fmt.Errorf("stagnation_limit must be >= 1, got %d", *stagLimit)
	}
	if maxBoots != nil || stagLimit != nil {
		spec.runner = &intermittent.Runner{}
		if maxBoots != nil {
			spec.runner.MaxBoots = *maxBoots
		}
		if stagLimit != nil {
			spec.runner.StagnationLimit = *stagLimit
		}
	}
	return spec, nil
}

// trace loads (once) the CSV trace the spec names.
func (c *compiler) trace(path string, repeat bool) (*harvest.TraceProfile, error) {
	resolved := resolvePath(c.baseDir, path)
	key := traceKey(resolved, repeat)
	tr, ok := c.traces[key]
	if !ok {
		var err error
		if tr, err = harvest.LoadTraceFile(resolved, repeat); err != nil {
			return nil, err
		}
		c.traces[key] = tr
	}
	return tr, nil
}
