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
// Off-time (recharge) simulation is event-driven: every built-in
// profile implements Analytic, so charge and discharge are solved in
// closed form per profile segment instead of being integrated with a
// fixed timestep, and "the source is dead" is an analytic property of
// the profile (net energy per period at or below the leakage budget)
// rather than a wall-clock search horizon. The seed's fixed-step Euler
// integrator is retained as RechargeEuler, the oracle the analytic
// engine is validated against.
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
// absolute time. Implementations must be deterministic. Profiles that
// also implement Analytic get the event-driven engine in Draw and
// Recharge; plain Profiles fall back to fixed-step integration.
type Profile interface {
	// PowerAt returns the instantaneous harvested power at time t
	// seconds.
	PowerAt(t float64) float64
}

// Validator is implemented by profiles that can check their own
// parameters. NewCapacitor rejects profiles whose Validate fails, so a
// malformed profile (zero duty cycle, negative power, zero period) is
// an immediate construction error instead of a simulation that spins
// forever waiting for energy that never comes.
type Validator interface {
	Validate() error
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

// Validate implements Validator.
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

// Validate implements Validator: Duty ∈ (0, 1], Period > 0 and
// non-negative peak power.
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

// Validate implements Validator.
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
// profile on. Periodic analytic profiles are integrated on a phase
// accumulator in [0, period) and constant profiles on a zero anchor,
// so the energy arithmetic of a boot cycle is independent of how much
// absolute time precedes it — steady cycles are bit-repeatable at any
// simulated age, which is what the intermittent runner's analytic
// fast-forward proves its fixed points on (and what keeps million-
// second horizons from losing float resolution). Profiles without a
// closed form, and aperiodic non-constant ones (a hold-last trace),
// integrate on absolute time as before.
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

	// Resolved once by NewCapacitor so a draw pays no type assertion,
	// no profile dispatch and no threshold arithmetic: the profile's
	// Analytic view (nil for plain Profiles), its draw form, and the
	// stored energies at VOff and VMax.
	analytic Analytic
	form     drawForm
	floorJ   float64
	vmaxJ    float64
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
// given profile. Profiles implementing Validator are validated here.
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
	if profile == nil {
		return nil, fmt.Errorf("harvest: profile must not be nil")
	}
	if v, ok := profile.(Validator); ok {
		if err := v.Validate(); err != nil {
			return nil, err
		}
	}
	c := &Capacitor{
		cfg:     cfg,
		profile: profile,
		energyJ: 0.5 * cfg.CapacitanceF * cfg.VOn * cfg.VOn,
	}
	c.floorJ = c.energyAt(cfg.VOff)
	c.vmaxJ = c.energyAt(cfg.VMax)
	if ap, ok := profile.(Analytic); ok {
		c.analytic = ap
		c.form = resolveForm(profile)
		if c.form.kind >= formSquare {
			c.cumKey, c.cumVal = math.Float64bits(0), c.cumAt(0)
		}
		switch pp, periodic := ap.(Periodic); {
		case periodic && pp.ProfilePeriod() > 0:
			c.mode = modePeriodic
			c.period = pp.ProfilePeriod()
		case math.IsInf(ap.NextChange(0), 1):
			c.mode = modeConstant
		}
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

// Recharge implements device.Supply: advance off-time until the
// capacitor reaches VOn again. For Analytic profiles (all built-ins)
// the off-time is solved in closed form per profile segment and the
// return of false is an analytic verdict — the profile's net power can
// never lift the store to VOn — with no search horizon. Plain Profiles
// fall back to the fixed-step integrator with the seed's 3600 s
// horizon, which can misreport a slow-but-charging custom source as
// dead; implement Analytic to avoid that.
func (c *Capacitor) Recharge() (float64, bool) {
	if c.analytic != nil {
		return c.rechargeAnalytic(c.analytic)
	}
	return c.RechargeEuler(eulerStep, eulerHorizon)
}

// integrateHarvest accrues harvested energy over dt seconds of device
// activity: exactly (closed form) for Analytic profiles — anchored on
// the phase accumulator for periodic profiles and on zero for constant
// ones, so the arithmetic does not depend on absolute simulated age —
// in a single power-at-window-start step otherwise. A window that
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
		if c.form.kind == formConstant {
			gross = float64(c.form.a * dt) // Watts·(dt−0), the same bits
		} else {
			gross = c.analytic.EnergyBetween(0, dt)
		}
	default:
		if c.analytic != nil {
			gross = c.energyBetween(c.nowSec, c.nowSec+dt)
		} else {
			gross = c.profile.PowerAt(c.nowSec) * dt
		}
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
// bits, from the draw form. For cumulative forms it evaluates only
// cumAt(t1) when t0 is the previous call's t1 — every draw in sequence
// between recharges and phase wraps — and remembers t1 for the next
// draw. (A constant profile integrates in modeConstant and never gets
// here.)
//
//ehdl:hotpath
func (c *Capacitor) energyBetween(t0, t1 float64) float64 {
	if c.form.kind < formSquare {
		return c.analytic.EnergyBetween(t0, t1)
	}
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
// store never recharges) or the profile has no analytic mean.
func (c *Capacitor) SteadyOffSeconds() (float64, bool) {
	if c.analytic == nil {
		return 0, false
	}
	net := c.analytic.MeanPower() - c.cfg.LeakageW
	if net <= 0 {
		return 0, false
	}
	return c.UsableEnergyJ() / net, true
}
