// The event-driven energy engine: charge and discharge are solved in
// closed form per profile segment, so a recharge that spans hours of
// simulated off-time costs O(profile segments) — in practice O(1) —
// instead of O(time / 100 µs) Euler steps, and exhaustion ("the source
// is dead") is an analytic property of the profile instead of a search
// horizon.

package harvest

import "math"

// maxRechargeSegments bounds the engine's segment walk. The walk
// normally terminates in a handful of segments (period skipping covers
// long recharges). A source whose margin over the leakage is too thin
// for the walk to reach VOn within the bound (1e-7 W on a 1 mW square
// wave, say) is reported dead, and like every dead verdict that leaves
// the capacitor untouched.
const maxRechargeSegments = 1 << 20

// ---------------------------------------------------------------------
// The built-in profiles' closed forms.

// EnergyBetween implements Profile.
func (p ConstantProfile) EnergyBetween(t0, t1 float64) float64 { return p.Watts * (t1 - t0) }

// NextChange implements Profile: constant forever.
func (p ConstantProfile) NextChange(float64) float64 { return math.Inf(1) }

// MeanPower implements Profile.
func (p ConstantProfile) MeanPower() float64 { return p.Watts }

// ProfilePeriod implements Profile (aperiodic).
func (p ConstantProfile) ProfilePeriod() float64 { return 0 }

// cumEnergy returns ∫ PowerAt over [0, t].
func (p SquareProfile) cumEnergy(t float64) float64 {
	if p.Period <= 0 {
		return p.PeakWatts * t
	}
	d := p.duty()
	n := math.Floor(t / p.Period)
	r := t - n*p.Period
	return p.PeakWatts * (n*d*p.Period + math.Min(r, d*p.Period))
}

// EnergyBetween implements Profile.
func (p SquareProfile) EnergyBetween(t0, t1 float64) float64 {
	return p.cumEnergy(t1) - p.cumEnergy(t0)
}

// NextChange implements Profile: the next on→off or off→on edge.
func (p SquareProfile) NextChange(t float64) float64 {
	if p.Period <= 0 {
		return math.Inf(1)
	}
	d := p.duty()
	n := math.Floor(t / p.Period)
	for k := 0.0; k < 3; k++ {
		base := (n + k) * p.Period
		if c := base + d*p.Period; c > t {
			return c
		}
		if c := base + p.Period; c > t {
			return c
		}
	}
	return t + p.Period
}

// MeanPower implements Profile.
func (p SquareProfile) MeanPower() float64 {
	if p.Period <= 0 {
		return p.PeakWatts
	}
	return p.PeakWatts * p.duty()
}

// ProfilePeriod implements Profile.
func (p SquareProfile) ProfilePeriod() float64 {
	if p.Period <= 0 {
		return 0
	}
	return p.Period
}

// cumEnergy returns ∫ PowerAt over [0, t]: the rectified sine has
// half-period H = Period/2, each contributing 2·Pk·H/π.
func (p SineProfile) cumEnergy(t float64) float64 {
	if p.Period <= 0 {
		return p.PeakWatts * t
	}
	h := p.Period / 2
	n := math.Floor(t / h)
	r := t - n*h
	return p.PeakWatts * h / math.Pi * (2*n + 1 - math.Cos(math.Pi*r/h))
}

// EnergyBetween implements Profile.
func (p SineProfile) EnergyBetween(t0, t1 float64) float64 {
	return p.cumEnergy(t1) - p.cumEnergy(t0)
}

// NextChange implements Profile: quarter-period boundaries (the
// rectified sine is monotone between consecutive peaks and zeros).
func (p SineProfile) NextChange(t float64) float64 {
	if p.Period <= 0 {
		return math.Inf(1)
	}
	q := p.Period / 4
	k := math.Floor(t / q)
	if c := (k + 1) * q; c > t {
		return c
	}
	return (k + 2) * q
}

// MeanPower implements Profile: 2·Pk/π.
func (p SineProfile) MeanPower() float64 {
	if p.Period <= 0 {
		return p.PeakWatts
	}
	return 2 * p.PeakWatts / math.Pi
}

// ProfilePeriod implements Profile: |sin| repeats every half period.
func (p SineProfile) ProfilePeriod() float64 {
	if p.Period <= 0 {
		return 0
	}
	return p.Period / 2
}

// ---------------------------------------------------------------------
// The engine.

// rechargeAnchor returns the time basis the analytic engine solves
// on: the phase accumulator for periodic profiles, zero for constant
// ones, absolute time otherwise (see integrationMode).
func (c *Capacitor) rechargeAnchor() float64 {
	switch c.mode {
	case modePeriodic:
		return c.phase
	case modeConstant:
		return 0
	default:
		return c.nowSec
	}
}

// finishCycle commits a successful recharge that ended at anchor time
// t after harvesting gross joules during the off-time: the store is
// full, the clock advances by the off-time, the phase wraps, and the
// boot cycle's harvest (discharge plus recharge) folds into the
// lifetime meter as one per-cycle delta.
func (c *Capacitor) finishCycle(off, t, gross, target float64) {
	c.nowSec += off
	if c.mode == modePeriodic {
		c.phase = math.Mod(t, c.period)
	}
	c.energyJ = target
	cycle := c.cycleHarvestJ + gross
	c.harvestedJ += cycle
	c.lastCycleJ = cycle
	c.cycleHarvestJ = 0
}

// Recharge implements device.Supply: advance off-time until the store
// reaches VOn, walking profile segments and solving each in closed
// form. On a dead source it returns false WITHOUT mutating the
// capacitor: exhaustion is a verdict about the profile — its net power
// can never lift the store to VOn — not a span of simulated time, and
// there is no wall-clock search horizon.
func (c *Capacitor) Recharge() (float64, bool) {
	p := c.profile
	target := c.energyAt(c.cfg.VOn)
	leak := c.cfg.LeakageW
	if c.energyJ >= target {
		c.finishCycle(0, c.rechargeAnchor(), 0, c.energyJ)
		return 0, true
	}
	t0 := c.rechargeAnchor()
	t, e := t0, c.energyJ
	var harvested float64

	period := c.period
	var netPerPeriod, grossPerPeriod float64
	if period > 0 {
		grossPerPeriod = p.EnergyBetween(t, t+period)
		netPerPeriod = grossPerPeriod - leak*period
	}
	// canCharge: a periodic source whose net energy per period is
	// positive always reaches VOn eventually. Otherwise the store can
	// only cross VOn on an intra-period excursion; the anchor check
	// below detects when excursions have stopped growing — the
	// analytic replacement for the seed's 3600 s horizon.
	canCharge := period <= 0 || netPerPeriod > 0
	anchorNext := t0 + period
	anchorE := e

	for iter := 0; iter < maxRechargeSegments; iter++ {
		// Skip whole periods when no target crossing or zero-floor
		// contact can occur inside them: the per-period energy is a
		// closed form, so a recharge spanning thousands of power
		// cycles costs the same as one spanning two.
		if canCharge && period > 0 && e >= leak*period {
			if k := math.Floor((target - e - grossPerPeriod) / netPerPeriod); k >= 1 {
				e += k * netPerPeriod
				harvested += k * grossPerPeriod
				t += k * period
			}
		}
		u := p.NextChange(t)
		if math.IsInf(u, 1) {
			// Final constant-power tail: dead or a one-step solve.
			net := p.PowerAt(t) - leak
			if net <= 0 {
				return t - t0, false
			}
			dt := (target - e) / net
			harvested += p.PowerAt(t) * dt
			t += dt
			c.finishCycle(t-t0, t, harvested, target)
			return t - t0, true
		}
		if u <= t {
			// NextChange cannot advance at this float resolution: no
			// closed-form step is left to take.
			return t - t0, false
		}
		segEnd := u
		if !canCharge && anchorNext > t && anchorNext < segEnd {
			segEnd = anchorNext // sample e exactly at period anchors
		}
		dt, eEnd, gross, crossed := rechargeSegment(p, t, segEnd, e, target, leak)
		harvested += gross
		t += dt
		e = eEnd
		if crossed {
			c.finishCycle(t-t0, t, harvested, target)
			return t - t0, true
		}
		if !canCharge && t >= anchorNext {
			if e <= anchorE {
				// One full period brought no net gain at this energy
				// level, and per-period dynamics are monotone in the
				// starting energy: the store can never reach VOn.
				return t - t0, false
			}
			anchorE = e
			anchorNext += period
		}
	}
	return t - t0, false
}

// rechargeSegment advances the store across the segment [t, u), on
// which profile power is monotone, with net power p(s)−leak and a
// floor at zero stored energy. It returns the time advanced, the end
// energy, the gross harvested energy, and whether the target was
// reached (in which case the time advanced stops at the crossing).
func rechargeSegment(p Profile, t, u, e, target, leak float64) (float64, float64, float64, bool) {
	dur := u - t
	if dur <= 0 {
		return 0, e, 0, false
	}
	if leak == 0 {
		// Net power is the profile power: non-negative, cumulative
		// energy monotone, no floor contact.
		gross := p.EnergyBetween(t, u)
		if e+gross < target {
			return dur, e + gross, gross, false
		}
		dt := solveCrossing(p, t, dur, e, target, 0)
		return dt, target, p.EnergyBetween(t, t+dt), true
	}
	// With leakage the net power can change sign once on a
	// monotone-power segment; split there so each piece has a
	// monotone cumulative.
	bounds := [3]float64{t, u, u}
	pieces := 1
	n0 := p.PowerAt(t) - leak
	n1 := p.PowerAt(u-dur*1e-9) - leak
	if (n0 < 0) != (n1 < 0) {
		bounds[1] = powerCrossing(p, t, u, leak)
		pieces = 2
	}
	var gross float64
	cur := e
	for i := 0; i < pieces; i++ {
		a, b := bounds[i], bounds[i+1]
		if b <= a {
			continue
		}
		pg := p.EnergyBetween(a, b)
		netE := pg - leak*(b-a)
		if mid := p.PowerAt(a+(b-a)/2) - leak; mid >= 0 {
			// Rising cumulative: the target can be crossed here.
			if cur+netE >= target {
				dt := solveCrossing(p, a, b-a, cur, target, leak)
				gross += p.EnergyBetween(a, a+dt)
				return a + dt - t, target, gross, true
			}
			cur += netE
		} else {
			// Falling cumulative: floor at zero, no crossing.
			cur = math.Max(0, cur+netE)
		}
		gross += pg
	}
	return dur, cur, gross, false
}

// solveCrossing returns the smallest dt in (0, hi] at which
// e + ∫[t,t+dt] p − leak·dt reaches target, by bisection; the
// expression must be monotone non-decreasing on the interval and reach
// target within it.
func solveCrossing(p Profile, t, hi, e, target, leak float64) float64 {
	lo := 0.0
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if mid <= lo || mid >= hi {
			break
		}
		if e+p.EnergyBetween(t, t+mid)-leak*mid >= target {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}

// powerCrossing returns the time in [t, u] at which the monotone
// profile power crosses the leakage level, by bisection.
func powerCrossing(p Profile, t, u, leak float64) float64 {
	rising := p.PowerAt(t) < leak
	lo, hi := t, u
	for i := 0; i < 200; i++ {
		mid := 0.5 * (lo + hi)
		if mid <= lo || mid >= hi {
			break
		}
		above := p.PowerAt(mid) >= leak
		if above == rising {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi
}
