// Package memo is the fleet's content-addressed inference memo: a
// bounded, concurrency-safe cache the fleet workers consult before
// simulating a device, so a million-device sweep over a few harvest
// classes turns into one real simulation per class plus a map lookup
// per device.
//
// A device's energy trajectory (boots, times, energy, verdict) is a
// function of its harvest setup alone, never of its input: the
// trajectory tests in internal/exec pin this for every engine. So a
// row is the trajectory of its class plus the prediction of its input,
// and the memo caches the two apart. Four kinds of entry share one
// bounded cache:
//
//   - A trajectory entry keys the outcome, less its prediction, on
//     (engine, model content digest, input length, harvest
//     fingerprint), where the harvest fingerprint covers the
//     capacitor config, the profile waveform with the per-device
//     jitter scale folded in, and any FLEX/runner overrides.
//   - A prediction entry keys the argmax of the host reference
//     executor on (BCM discipline, model digest, input digest): the
//     FFT executor for ACE and ACE+FLEX, the time-domain one for the
//     baselines. Lookup computes it on a miss. A replayed row that
//     completed takes this argmax; any other row predicts -1.
//   - The input-keyed entry keys the whole outcome on (engine, model
//     digest, input digest, harvest fingerprint). It holds the runs
//     whose CleanResumes flag is unset: ACE+FLEX can resume a layer
//     onto an input a later layer already overwrote, and then its
//     logits leave the reference. The flag is a property of the
//     trajectory, so a class is either all clean or all input-keyed.
//   - A compute entry keys the compute side alone on (engine, model
//     digest, input digest) and stores the single-charge run:
//     prediction, active time, and energy of an inference that
//     completed on its first boot. It is served only when that outcome
//     is provably harvest-independent — the engine never samples the
//     rail voltage (base, sonic, tails, ace; FLEX's checkpoint policy
//     reads the rail, so ace+flex is excluded) and the whole inference
//     fits the querying device's usable charge even if it harvested
//     nothing — in which case the device completes on boot 0 with
//     exactly the cached compute stream, whatever its waveform or
//     jitter.
//
// A probe costs a copy and one word-wise mix, and a hit one hash per
// cache read: the model digest is cached on the model, the harvest
// fingerprint mixes each 64-bit word of the harvest setup in one step,
// and the input digest comes from a small bounded cache keyed by the
// input slice's address and length (see digest.go). A cached input
// digest is served only when the probed words equal the entry's own
// copy byte for byte; any mismatch re-hashes. A replay therefore
// hashes each distinct input once, and a key never depends on callers
// keeping their inputs unchanged. A Key is 80 bytes of plain memory,
// so the cache hashes and compares it as one block, and a probe can
// live on the caller's stack (Probe.Reset), so a hit allocates
// nothing. The cache itself is bounded by CLOCK (second-chance)
// eviction (see lru.go): a hit is a lock-free load plus the entry's
// reference bit, so workers replaying in parallel do not serialize on
// it, and only a fill takes its mutex. Most replays of a long sweep
// pay none of this: a fleet worker records what each trajectory-tier
// hit returned (Probe.HitTrajectory) in a table indexed by the
// source's class handles, and replays later devices of that class and
// input from it, adding them to the counters with CountReplays. The
// probe path remains for each handle's first sighting in a stream,
// for input-keyed and compute hits, and for devices without handles.
//
// Everything served is bit-identical to the unmemoized pipeline:
// hits replay values produced by a real simulation of an equivalent
// device or by the reference executor the engines match, racing fills
// keep the first value, and an evicted entry simply re-simulates (and
// re-fills) deterministically. Only the hit/miss counters depend on
// scheduling.
package memo

import (
	"math"
	"sync/atomic"

	"ehdl/internal/core"
	"ehdl/internal/exec"
	"ehdl/internal/fixed"
	"ehdl/internal/flex"
	"ehdl/internal/harvest"
	"ehdl/internal/intermittent"
	"ehdl/internal/quant"
)

// DefaultCapacity bounds the memo when the caller does not choose a
// size. An outcome entry holds ~420 B of heap (its 80-byte key twice,
// in the ring slot and the index, the outcome, and the index's own
// node), so 64k entries is a ~27 MB ceiling. A scenario-grid
// fleet needs one trajectory entry per harvest class, one prediction
// per (discipline, model, input), and input-keyed entries only for its
// stale-resume classes (one per class and input): citywide, for one,
// settles near 600 entries.
const DefaultCapacity = 1 << 16

// The key tiers: the input-keyed outcome, the compute side, the
// trajectory and the reference prediction.
const (
	tierFull uint8 = iota + 1
	tierCompute
	tierTrajectory
	tierPrediction
)

// Key is the content address of one cache entry. It is 80 bytes of
// plain memory, with no string, pointer or padding, so the cache's
// map hashes and compares it as one block. Each tier sets the fields
// it keys on and leaves the rest zero: compute keys have no harvest
// fingerprint, trajectory keys no input digest, and prediction keys
// neither fingerprint nor engine. Code packs the tier, the engine
// (the BCM discipline, for a prediction key) and a trajectory key's
// input length; see keyCode.
type Key struct {
	Model   [32]byte
	Input   [32]byte
	Harvest uint64
	Code    uint64
}

// The layout of Key.Code: the tier in the top byte, the engine or
// discipline code in the next, and the input length in the low 48
// bits. A longer input than maxInputLen cannot be coded, so its device
// bypasses the memo.
const (
	codeTierShift   = 56
	codeEngineShift = 48
	maxInputLen     = 1<<codeEngineShift - 1
)

// keyCode packs a Key's Code. inputLen must lie in [0, maxInputLen].
func keyCode(tier, engine uint8, inputLen int) uint64 {
	return uint64(tier)<<codeTierShift | uint64(engine)<<codeEngineShift | uint64(inputLen)
}

// engines lists the engines a key can name: an engine's code is its
// index here plus one.
var engines = core.AllEngines()

// engineCode returns the key code of engine, and false for an engine
// outside core.AllEngines.
func engineCode(engine string) (uint8, bool) {
	for k, e := range engines {
		if string(e) == engine {
			return uint8(k + 1), true
		}
	}
	return 0, false
}

// The BCM disciplines, the engine codes of prediction keys: the
// time-domain arithmetic of the baselines and ACE's FFT pipeline.
const (
	disciplineTime uint8 = iota + 1
	disciplineFFT
)

// Outcome is a cached row: everything the fleet's aggregator and
// NDJSON sink consume, minus the per-device name.
type Outcome struct {
	Profile   string
	Completed bool
	Predicted int
	Boots     uint64
	ActiveSec float64
	WallSec   float64
	EnergymJ  float64
	Diagnosis string
	// Deprecated: always 0; bench/ still reads it (ROADMAP item 2)
	FastForwarded uint64
	// Err is the run's sentinel error value, shared by every replayed
	// row (errors are immutable; sinks only render Err.Error()).
	Err error
	// CleanResumes is exec.Report's flag. Set, the outcome is filed
	// under its trajectory and replays with the reference prediction;
	// unset (the zero value), it is filed under its input.
	CleanResumes bool
}

// compute is a cached Tier-2 entry: the harvest-independent
// single-charge inference of (engine, model, input).
type compute struct {
	Predicted int
	ActiveSec float64
	EnergymJ  float64
}

// Device describes one lookup: the scenario fields that address the
// cache plus the ones eligibility decisions read.
type Device struct {
	Engine string
	// VoltageOblivious marks engines that never sample the supply
	// rail (see core.VoltageOblivious) — the precondition for Tier 2.
	VoltageOblivious bool
	Model            *quant.Model
	Input            []fixed.Q15
	Config           harvest.Config
	Profile          harvest.Profile
	Flex             *flex.Config
	Runner           *intermittent.Runner
}

// Probe is a prepared lookup: the device plus its content digests and
// engine code.
type Probe struct {
	dev     Device
	model   [32]byte
	input   [32]byte
	harvest uint64
	engine  uint8
	hitTraj bool // the last Lookup hit the trajectory tier
}

// NewProbe builds the content keys for d in a new Probe. ok is false
// when the device cannot be addressed (see Reset).
func NewProbe(d Device) (*Probe, bool) {
	p := new(Probe)
	if !p.Reset(d) {
		return nil, false
	}
	return p, true
}

// Reset builds the content keys for d in place, so a caller can keep
// its probe on the stack. It reports false, leaving p unusable, when
// the device cannot be addressed: no model, no profile, an engine
// outside core.AllEngines (the key has no code for it), an input
// longer than a key can count, or a profile type the fingerprint does
// not know (a custom Profile implementation could carry state the
// fingerprint would miss). Such a device bypasses the memo entirely
// rather than risk a false hit.
func (p *Probe) Reset(d Device) bool {
	if d.Model == nil || d.Profile == nil || uint64(len(d.Input)) > maxInputLen {
		return false
	}
	engine, ok := engineCode(d.Engine)
	if !ok {
		return false
	}
	hfp, ok := harvestFingerprint(d.Config, d.Profile, d.Flex, d.Runner)
	if !ok {
		return false
	}
	*p = Probe{dev: d, model: d.Model.ContentDigest(), input: inputDigest(d.Input), harvest: hfp, engine: engine}
	return true
}

func (p *Probe) full() Key {
	return Key{Code: keyCode(tierFull, p.engine, 0), Model: p.model, Input: p.input, Harvest: p.harvest}
}

func (p *Probe) computK() Key {
	return Key{Code: keyCode(tierCompute, p.engine, 0), Model: p.model, Input: p.input}
}

func (p *Probe) trajectory() Key {
	return Key{Code: keyCode(tierTrajectory, p.engine, len(p.dev.Input)), Model: p.model, Harvest: p.harvest}
}

func (p *Probe) prediction() Key {
	return Key{Code: keyCode(tierPrediction, p.discipline(), 0), Model: p.model, Input: p.input}
}

// discipline returns the BCM arithmetic p's engine computes with.
func (p *Probe) discipline() uint8 { return Discipline(engines[p.engine-1]) }

// Discipline returns the BCM arithmetic engine computes with, and so
// the host reference executor its logits match: 2 for ACE's FFT
// pipeline, 1 for the baselines' time domain. Devices of equal
// discipline, model and input share a prediction entry.
func Discipline(engine core.EngineKind) uint8 {
	switch engine {
	case core.EngineACE, core.EngineACEFLEX:
		return disciplineFFT
	}
	return disciplineTime
}

// HitTrajectory reports whether the last Lookup of p replayed its
// class's trajectory entry: the outcome it returned, less its
// prediction, is then every device of the class's, and its prediction
// is the reference argmax of p's input.
func (p *Probe) HitTrajectory() bool { return p.hitTraj }

// HitKind labels how a lookup resolved.
type HitKind int

// Lookup results: a full-outcome replay, a compute-side replay, or a
// miss (simulate, then Fill).
const (
	Miss HitKind = iota
	HitFull
	HitCompute
)

// String returns the NDJSON row tag for the hit kind.
func (k HitKind) String() string {
	switch k {
	case HitFull:
		return "hit-full"
	case HitCompute:
		return "hit-compute"
	}
	return "miss"
}

// Stats is a snapshot of the memo's counters. The hit/miss split (and
// the tags rows carry) is scheduling-dependent — racing workers may
// both miss the same key before either fills it — but FullHits +
// ComputeHits + Misses always equals the devices that consulted the
// memo, and the rows themselves are bit-identical regardless.
// FullHits counts trajectory and input-keyed replays alike, with the
// table replays callers report through CountReplays; Fills
// counts entries inserted, reference predictions included.
type Stats struct {
	FullHits    uint64
	ComputeHits uint64
	Misses      uint64
	Fills       uint64
	Evictions   uint64
	Entries     int
	Capacity    int
}

// Hits returns the total replayed devices.
func (s Stats) Hits() uint64 { return s.FullHits + s.ComputeHits }

// Memo is the fleet-wide inference cache. Safe for concurrent use.
type Memo struct {
	lru *LRU[Key, any]

	fullHits, computeHits, misses, fills atomic.Uint64
}

// New returns a memo bounded to capacity entries across all tiers
// (<= 0 selects DefaultCapacity).
func New(capacity int) *Memo {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Memo{lru: NewLRU[Key, any](capacity)}
}

// eligibilityMargin guards the Tier-2 budget comparison: the cached
// energy total and the simulator's sequential per-op subtraction can
// differ in the last ulps, so a run is only declared single-charge
// when it clears the usable budget with one part in a thousand to
// spare. The cost is a few borderline devices simulating for real;
// the gain is that a served hit is bit-exact beyond any float-order
// doubt.
const eligibilityMargin = 0.999

// Lookup consults the cache for p's device and records on p whether
// the trajectory tier served it (see HitTrajectory). HitFull replays a whole row: its
// class's trajectory with the reference prediction of its input, or
// its input-keyed outcome. HitCompute synthesizes a boot-0 completion
// from the compute entry (the caller labels the profile); Miss means
// simulate and Fill.
func (m *Memo) Lookup(p *Probe) (Outcome, HitKind) {
	p.hitTraj = false
	if v, ok := m.lru.Get(p.trajectory()); ok {
		out := v.(Outcome)
		if out.Completed {
			out.Predicted = m.predict(p)
		}
		m.fullHits.Add(1)
		p.hitTraj = true
		return out, HitFull
	}
	if v, ok := m.lru.Get(p.full()); ok {
		m.fullHits.Add(1)
		return v.(Outcome), HitFull
	}
	if p.dev.VoltageOblivious {
		if v, ok := m.lru.Get(p.computK()); ok {
			c := v.(compute)
			if singleCharge(c, p.dev.Config) {
				m.computeHits.Add(1)
				return Outcome{
					Completed:    true,
					Predicted:    c.Predicted,
					ActiveSec:    c.ActiveSec,
					WallSec:      c.ActiveSec,
					EnergymJ:     c.EnergymJ,
					Diagnosis:    string(intermittent.DiagCompleted),
					CleanResumes: true, // boot 0 resumes nothing
				}, HitCompute
			}
		}
	}
	m.misses.Add(1)
	return Outcome{}, Miss
}

// predict returns the reference executor's argmax for p's input, from
// the cache or computed and cached.
func (m *Memo) predict(p *Probe) int {
	k := p.prediction()
	if v, ok := m.lru.Get(k); ok {
		return v.(int)
	}
	ref := quant.NewTimeExecutor
	if p.discipline() == disciplineFFT {
		ref = quant.NewExecutor
	}
	pred := exec.Argmax(ref(p.dev.Model).Forward(p.dev.Input))
	m.add(k, pred)
	return pred
}

// singleCharge reports whether the cached compute run provably fits
// one charge of cfg's capacitor even with zero harvest income: total
// compute energy plus the leakage burned over the active time stays
// under the usable ½C(VOn²−VOff²) budget (with the float guard
// margin). Harvested power is never negative, so the real run can
// only end richer — it completes on boot 0 with exactly the cached
// compute stream.
func singleCharge(c compute, cfg harvest.Config) bool {
	usable := 0.5 * cfg.CapacitanceF * (cfg.VOn*cfg.VOn - cfg.VOff*cfg.VOff)
	need := c.EnergymJ*1e-3 + cfg.LeakageW*c.ActiveSec
	return need <= eligibilityMargin*usable && !math.IsNaN(usable)
}

// Fill stores the simulated outcome of a missed probe: under its
// trajectory key, without the prediction, when out.CleanResumes is
// set, and under its input-keyed Tier-1 key otherwise; additionally
// under the Tier-2 key when the run is a voltage-oblivious boot-0
// completion (the harvest-independent compute profile of this
// engine/model/input). Racing fills keep the first value.
func (m *Memo) Fill(p *Probe, out Outcome) {
	if out.CleanResumes {
		traj := out
		traj.Predicted = -1
		m.add(p.trajectory(), traj)
	} else {
		m.add(p.full(), out)
	}
	if p.dev.VoltageOblivious && out.Completed && out.Boots == 0 && out.Err == nil {
		m.add(p.computK(), compute{
			Predicted: out.Predicted,
			ActiveSec: out.ActiveSec,
			EnergymJ:  out.EnergymJ,
		})
	}
}

// CountReplays adds n full hits that a caller served without a
// Lookup, from its own record of earlier trajectory-tier hits, so
// Stats keeps counting every device that the memo answered.
func (m *Memo) CountReplays(n uint64) {
	if n != 0 {
		m.fullHits.Add(n)
	}
}

func (m *Memo) add(k Key, v any) {
	if m.lru.Add(k, v) {
		m.fills.Add(1)
	}
}

// Stats snapshots the counters.
func (m *Memo) Stats() Stats {
	return Stats{
		FullHits:    m.fullHits.Load(),
		ComputeHits: m.computeHits.Load(),
		Misses:      m.misses.Load(),
		Fills:       m.fills.Load(),
		Evictions:   m.lru.Evictions(),
		Entries:     m.lru.Len(),
		Capacity:    m.lru.Capacity(),
	}
}
