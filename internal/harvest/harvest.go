// Package harvest models the energy-harvesting front end of the
// paper's testbed: an ambient source (emulated there by a SIGLENT
// SDG1032X function generator) charging a 100 µF capacitor that powers
// the MCU between the turn-on and brown-out voltage thresholds.
//
// The capacitor stores E = ½CV². The device boots when V reaches VOn
// and browns out when V falls below VOff, so the usable energy per
// charge cycle is ½C(VOn²−VOff²) — about 0.38 mJ for the paper's
// 100 µF, 3.3 V / 1.8 V configuration. Any inference needing more than
// that must either checkpoint or never complete: Fig. 7(b)'s "X"
// columns fall directly out of this arithmetic.
//
// The profile set is closed: constant, square, rectified sine and
// piecewise-linear trace, the four waveforms a scenario can name. Each
// has a closed-form energy integral, so off-time (recharge) is solved
// per profile segment instead of being integrated with a fixed
// timestep, and "the source is dead" is an analytic property of the
// profile (net energy per period at or below the leakage budget)
// rather than a wall-clock search horizon. The seed's fixed-step Euler
// integrator is kept only as RechargeEuler, the test oracle the
// closed forms are validated against.
//
// On-time draws are the simulator's hottest path (one per charged
// operation), so Draw does the least float work that gives the exact
// closed-form bits. NewCapacitor resolves a built-in profile into a
// draw form (form.go): its fixed factors, computed once, and for
// traces a segment hint. It also resolves the VOff/VMax energies. The
// phase advances by plain addition until it wraps. For square, sine
// and trace profiles a draw evaluates one cumulative energy, reusing
// the previous draw's end value as its start, and inside the period
// that cumulative skips the period reduction.
package harvest

import (
	"fmt"
	"math"
)

// Profile supplies the harvested power (in watts) as a function of
// absolute time, with a closed-form energy integral. The set is
// closed: NewCapacitor accepts ConstantProfile, SquareProfile,
// SineProfile and *TraceProfile and rejects anything else, so every
// capacitor runs the closed-form engine. The engine's contract, which
// the four built-ins keep:
//
//   - EnergyBetween is the exact integral of PowerAt, not a numerical
//     approximation.
//   - Power is monotone on every segment [t, NextChange(t)), so a
//     first-crossing search inside a segment is well posed.
//   - NextChange returns a time strictly greater than its argument,
//     and a profile either eventually returns +Inf (a final
//     constant-power tail) or has a positive ProfilePeriod.
type Profile interface {
	// PowerAt returns the instantaneous harvested power at time t
	// seconds.
	PowerAt(t float64) float64
	// EnergyBetween returns ∫ PowerAt(s) ds over [t0, t1] in joules,
	// t1 >= t0. It may span any number of segment boundaries.
	EnergyBetween(t0, t1 float64) float64
	// NextChange returns the earliest time u > t at which the profile
	// switches closed-form segment (square edge, sine quarter-period,
	// trace breakpoint), or +Inf when power is constant forever after.
	NextChange(t float64) float64
	// MeanPower returns the long-run average harvested power.
	MeanPower() float64
	// ProfilePeriod returns the exact repetition period in seconds, or
	// 0 when the profile is not periodic. A periodic profile lets the
	// engine skip whole periods at once and decide exhaustion from a
	// single period's energy budget.
	ProfilePeriod() float64
}

// ConstantProfile harvests a fixed power, the simplest bench setting.
type ConstantProfile struct {
	Watts float64
}

// NewConstantProfile returns a validated constant profile.
func NewConstantProfile(watts float64) (ConstantProfile, error) {
	p := ConstantProfile{Watts: watts}
	return p, p.Validate()
}

// Validate checks Watts is finite and >= 0. NewCapacitor calls it, so
// a malformed profile is a construction error instead of a simulation
// that waits forever for energy that never comes.
func (p ConstantProfile) Validate() error {
	if math.IsNaN(p.Watts) || math.IsInf(p.Watts, 0) || p.Watts < 0 {
		return fmt.Errorf("harvest: constant profile needs finite Watts >= 0, got %g", p.Watts)
	}
	return nil
}

// PowerAt returns the constant power.
func (p ConstantProfile) PowerAt(float64) float64 { return p.Watts }

// SquareProfile alternates between PeakWatts and zero with the given
// period and duty cycle — the function-generator waveform the paper's
// experiments use.
type SquareProfile struct {
	PeakWatts float64
	Period    float64 // seconds
	Duty      float64 // fraction of the period with power, in (0, 1]
}

// NewSquareProfile returns a validated square-wave profile.
func NewSquareProfile(peakWatts, period, duty float64) (SquareProfile, error) {
	p := SquareProfile{PeakWatts: peakWatts, Period: period, Duty: duty}
	return p, p.Validate()
}

// Validate checks Duty ∈ (0, 1], a finite Period > 0 and a finite
// peak power >= 0.
func (p SquareProfile) Validate() error {
	if math.IsNaN(p.PeakWatts) || math.IsInf(p.PeakWatts, 0) || p.PeakWatts < 0 {
		return fmt.Errorf("harvest: square profile needs finite PeakWatts >= 0, got %g", p.PeakWatts)
	}
	if !(p.Period > 0) || math.IsInf(p.Period, 0) {
		return fmt.Errorf("harvest: square profile needs finite Period > 0, got %g", p.Period)
	}
	if !(p.Duty > 0 && p.Duty <= 1) {
		return fmt.Errorf("harvest: square profile needs Duty in (0, 1], got %g", p.Duty)
	}
	return nil
}

// duty returns the duty cycle clamped to [0, 1] (unvalidated literals
// may carry anything).
func (p SquareProfile) duty() float64 {
	return math.Min(1, math.Max(0, p.Duty))
}

// PowerAt returns PeakWatts during the on-phase of each period.
func (p SquareProfile) PowerAt(t float64) float64 {
	if p.Period <= 0 {
		return p.PeakWatts
	}
	phase := math.Mod(t, p.Period) / p.Period
	if phase < p.Duty {
		return p.PeakWatts
	}
	return 0
}

// SineProfile is a rectified sinusoid, approximating RF or vibration
// harvesting.
type SineProfile struct {
	PeakWatts float64
	Period    float64
}

// NewSineProfile returns a validated rectified-sine profile.
func NewSineProfile(peakWatts, period float64) (SineProfile, error) {
	p := SineProfile{PeakWatts: peakWatts, Period: period}
	return p, p.Validate()
}

// Validate checks a finite Period > 0 and a finite peak power >= 0.
func (p SineProfile) Validate() error {
	if math.IsNaN(p.PeakWatts) || math.IsInf(p.PeakWatts, 0) || p.PeakWatts < 0 {
		return fmt.Errorf("harvest: sine profile needs finite PeakWatts >= 0, got %g", p.PeakWatts)
	}
	if !(p.Period > 0) || math.IsInf(p.Period, 0) {
		return fmt.Errorf("harvest: sine profile needs finite Period > 0, got %g", p.Period)
	}
	return nil
}

// PowerAt returns the rectified sine power at t.
func (p SineProfile) PowerAt(t float64) float64 {
	if p.Period <= 0 {
		return p.PeakWatts
	}
	return p.PeakWatts * math.Abs(math.Sin(2*math.Pi*t/p.Period))
}

// Config describes the storage front end.
type Config struct {
	CapacitanceF float64 // e.g. 100e-6 for the paper's 100 µF
	VOn          float64 // boot threshold, e.g. 3.3
	VOff         float64 // brown-out threshold, e.g. 1.8
	VMax         float64 // clamp (harvester regulator), e.g. 3.6
	// LeakageW is a constant parasitic drain (capacitor self-discharge
	// plus sleep current), subtracted from the harvested power at all
	// times. Zero — the paper's idealisation — by default. A source
	// whose average power cannot beat the leakage can never recharge.
	LeakageW float64
}

// PaperConfig returns the paper's experimental configuration: 100 µF,
// 3.3 V turn-on, 1.8 V brown-out, 3.6 V clamp, no leakage.
func PaperConfig() Config {
	return Config{CapacitanceF: 100e-6, VOn: 3.3, VOff: 1.8, VMax: 3.6}
}

// integrationMode selects the time basis the capacitor integrates the
// profile on. A profile with a positive ProfilePeriod is integrated on
// a phase accumulator in [0, period) and a constant one on a zero
// anchor,
// so the energy arithmetic of a boot cycle is independent of how much
// absolute time precedes it — steady cycles are bit-repeatable at any
// simulated age, which is what the intermittent runner's analytic
// fast-forward proves its fixed points on (and what keeps million-
// second horizons from losing float resolution). Aperiodic
// non-constant profiles (a hold-last trace) integrate on absolute time.
type integrationMode int

const (
	modeAbsolute integrationMode = iota
	modeConstant
	modePeriodic
)

// Capacitor is the energy store. It implements device.Supply.
// Starting full (at VOn) is the conventional t=0 state: the device
// boots the moment the experiment begins.
type Capacitor struct {
	cfg     Config
	profile Profile

	// Resolved once by NewCapacitor so a draw pays no profile dispatch
	// and no threshold arithmetic: the profile's draw form and the
	// stored energies at VOff and VMax.
	form   drawForm
	floorJ float64
	vmaxJ  float64
	// cumKey and cumVal memoize the last cumulative a draw evaluated:
	// the bits of its time and cumAt there. The cumulative is pure, so
	// a matching key is the exact value and needs no invalidation.
	cumKey uint64
	cumVal float64

	mode   integrationMode
	period float64 // profile period (modePeriodic only)
	phase  float64 // profile phase in [0, period) (modePeriodic only)

	energyJ float64 // current stored energy
	nowSec  float64 // absolute simulation time (active + off)

	harvestedJ    float64 // harvested energy folded at each recharge
	cycleHarvestJ float64 // harvested energy of the cycle in progress
	lastCycleJ    float64 // harvested energy of the last full cycle
}

// NewCapacitor returns a capacitor charged to VOn at t=0 under the
// given profile, which must be one of the four built-ins and pass its
// Validate.
func NewCapacitor(cfg Config, profile Profile) (*Capacitor, error) {
	if !(cfg.CapacitanceF > 0) || math.IsInf(cfg.CapacitanceF, 1) {
		return nil, fmt.Errorf("harvest: capacitance must be finite and positive, got %g", cfg.CapacitanceF)
	}
	// The ordering rejects NaN, so a finite VMax makes all three finite.
	if !(cfg.VMax >= cfg.VOn && cfg.VOn > cfg.VOff && cfg.VOff > 0) || math.IsInf(cfg.VMax, 1) {
		return nil, fmt.Errorf("harvest: need finite VMax >= VOn > VOff > 0, got %+v", cfg)
	}
	if cfg.LeakageW < 0 || math.IsNaN(cfg.LeakageW) || math.IsInf(cfg.LeakageW, 0) {
		return nil, fmt.Errorf("harvest: leakage must be finite and >= 0, got %g", cfg.LeakageW)
	}
	form, err := resolveForm(profile)
	if err != nil {
		return nil, err
	}
	c := &Capacitor{
		cfg:     cfg,
		profile: profile,
		form:    form,
		energyJ: 0.5 * cfg.CapacitanceF * cfg.VOn * cfg.VOn,
	}
	c.floorJ = c.energyAt(cfg.VOff)
	c.vmaxJ = c.energyAt(cfg.VMax)
	if c.form.kind >= formSquare {
		c.cumKey, c.cumVal = math.Float64bits(0), c.cumAt(0)
	}
	switch period := profile.ProfilePeriod(); {
	case period > 0:
		c.mode = modePeriodic
		c.period = period
	case math.IsInf(profile.NextChange(0), 1):
		c.mode = modeConstant
	}
	return c, nil
}

func (c *Capacitor) energyAt(v float64) float64 {
	return 0.5 * c.cfg.CapacitanceF * v * v
}

// Voltage returns the current capacitor voltage.
func (c *Capacitor) Voltage() float64 {
	return math.Sqrt(2 * c.energyJ / c.cfg.CapacitanceF)
}

// Now returns the absolute simulation time in seconds. After
// SkipSteadyCycles it is advanced by the caller-supplied per-cycle
// wall time, so it stays a diagnostic clock, not a bit-exact one.
func (c *Capacitor) Now() float64 { return c.nowSec }

// HarvestedJ returns the lifetime harvested energy in joules (gross:
// energy wasted to the VMax clamp or lost to leakage is included).
func (c *Capacitor) HarvestedJ() float64 { return c.harvestedJ + c.cycleHarvestJ }

// CycleHarvestJ returns the gross energy harvested over the most
// recent full boot cycle (discharge plus the recharge that ended it) —
// the per-cycle delta SkipSteadyCycles replays.
func (c *Capacitor) CycleHarvestJ() float64 { return c.lastCycleJ }

// CycleToken captures the supply state that determines how a boot
// cycle evolves: the stored-energy bits and the profile-phase bits.
// Two boots starting from equal tokens under a phase-anchored profile
// see bit-identical supply dynamics, so a repeated token plus a
// repeated boot ledger record is an exact periodicity proof. ok is
// false for absolute-time profiles (no phase anchor, no proof).
type CycleToken struct {
	EnergyBits uint64
	PhaseBits  uint64
}

// CycleToken returns the current supply token; see the type comment.
func (c *Capacitor) CycleToken() (CycleToken, bool) {
	if c.mode == modeAbsolute {
		return CycleToken{}, false
	}
	return CycleToken{
		EnergyBits: math.Float64bits(c.energyJ),
		PhaseBits:  math.Float64bits(c.phase),
	}, true
}

// SkipSteadyCycles fast-forwards the supply across k boot cycles that
// each repeat the last observed cycle exactly: stored energy and phase
// are already at their cycle fixed point (a steady cycle starts and
// ends full at the same phase), the harvest meter replays the
// per-cycle delta cycleJ fold by fold (bit-identical to k real
// cycles), and the diagnostic clock advances by k·wallSec.
func (c *Capacitor) SkipSteadyCycles(k uint64, wallSec, cycleJ float64) {
	for i := uint64(0); i < k; i++ {
		c.harvestedJ += cycleJ
	}
	c.nowSec += float64(k) * wallSec
}

// EnergyJ returns the currently stored energy in joules.
func (c *Capacitor) EnergyJ() float64 { return c.energyJ }

// Draw implements device.Supply: consume nJ nanojoules over dt seconds
// while harvesting in parallel. Returns false when the voltage falls
// below VOff, leaving the store at the brown-out level (the charge
// below VOff is unusable but still present).
//
//ehdl:hotpath
func (c *Capacitor) Draw(nJ float64, dt float64) bool {
	c.integrateHarvest(dt)
	c.nowSec += dt
	need := nJ * 1e-9
	if c.energyJ-need < c.floorJ {
		// Operation could not complete: clamp at the floor; the
		// device browns out.
		c.energyJ = c.floorJ
		return false
	}
	c.energyJ -= need
	return true
}

// integrateHarvest accrues harvested energy over dt seconds of device
// activity in closed form, anchored on the phase accumulator for
// periodic profiles, on zero for constant ones (so the arithmetic does
// not depend on absolute simulated age) and on absolute time for a
// hold-last trace. A window that
// stays inside the period advances the phase by plain addition, which
// is what math.Mod returns for 0 <= x < period.
//
//ehdl:hotpath
func (c *Capacitor) integrateHarvest(dt float64) {
	if dt <= 0 {
		return
	}
	var gross float64
	switch c.mode {
	case modePeriodic:
		t1 := c.phase + dt
		gross = c.energyBetween(c.phase, t1)
		if t1 < c.period {
			c.phase = t1
		} else {
			c.phase = math.Mod(t1, c.period)
		}
	case modeConstant:
		gross = float64(c.form.a * dt) // Watts·(dt−0), the same bits
	default:
		gross = c.energyBetween(c.nowSec, c.nowSec+dt)
	}
	c.energyJ += gross - c.cfg.LeakageW*dt
	if c.energyJ < 0 {
		c.energyJ = 0
	}
	if c.energyJ > c.vmaxJ {
		c.energyJ = c.vmaxJ
	}
	c.cycleHarvestJ += gross
}

// energyBetween is the profile's EnergyBetween(t0, t1) with the same
// bits, from the cumulative draw form. It evaluates only cumAt(t1)
// when t0 is the previous call's t1 — every draw in sequence between
// recharges and phase wraps — and remembers t1 for the next draw. (A
// constant profile integrates in modeConstant and never gets here.)
//
//ehdl:hotpath
func (c *Capacitor) energyBetween(t0, t1 float64) float64 {
	c0 := c.cumVal
	if math.Float64bits(t0) != c.cumKey {
		c0 = c.cumAt(t0)
	}
	c1 := c.cumAt(t1)
	c.cumKey, c.cumVal = math.Float64bits(t1), c1
	return c1 - c0
}

// UsableEnergyJ returns the energy budget of one full charge cycle,
// ½C(VOn²−VOff²).
func (c *Capacitor) UsableEnergyJ() float64 {
	return c.energyAt(c.cfg.VOn) - c.energyAt(c.cfg.VOff)
}

// BootsToComplete is the Fig. 7(b) arithmetic in closed form: the
// number of power-failure restarts a workload needing totalJ joules
// takes when every failed boot delivers the full usable budget usableJ
// (⌈total/usable⌉ charges, minus the first). It returns 0 when the
// work fits one charge and is meaningful only for checkpointing
// programs whose progress survives outages.
func BootsToComplete(totalJ, usableJ float64) uint64 {
	if usableJ <= 0 || totalJ <= usableJ {
		return 0
	}
	return uint64(math.Ceil(totalJ/usableJ)) - 1
}

// BootsToComplete applies the closed form to this capacitor's usable
// budget.
func (c *Capacitor) BootsToComplete(totalJ float64) uint64 {
	return BootsToComplete(totalJ, c.UsableEnergyJ())
}

// SteadyOffSeconds returns the closed-form mean recharge time of one
// full VOff→VOn cycle — usable budget over the profile's long-run net
// power — and false when the mean power cannot beat the leakage (the
// store never recharges).
func (c *Capacitor) SteadyOffSeconds() (float64, bool) {
	net := c.profile.MeanPower() - c.cfg.LeakageW
	if net <= 0 {
		return 0, false
	}
	return c.UsableEnergyJ() / net, true
}
