package memo

import (
	"math"

	"ehdl/internal/flex"
	"ehdl/internal/harvest"
	"ehdl/internal/intermittent"
)

// harvestFingerprint condenses everything outside the compute stream
// that shapes an intermittent run — capacitor config, harvest
// waveform (with any per-device jitter already folded into its power
// parameters), FLEX policy, and runner limits — into one 64-bit value
// for the trajectory and Tier-1 keys. Two devices with equal
// fingerprints (and equal engine, model and input length) run the
// same trajectory. Floats enter as their bits, so +0 and −0 differ
// and a NaN is as stable as any other value. The value lives only in
// the process's memo and is never persisted.
//
// ok is false for any profile outside the capacitor's closed set (the
// value profiles and *TraceProfile): harvest.NewCapacitor rejects it,
// so its device is a setup error, and keying it — a pointer like its
// value, say — would false-hit an equal device's completed row. A
// false hit is the one failure mode the memo must never have,
// so such profiles bypass memoization entirely.
func harvestFingerprint(cfg harvest.Config, p harvest.Profile, fx *flex.Config, r *intermittent.Runner) (uint64, bool) {
	h := fingerprint(fingerprintSeed)
	h.float(cfg.CapacitanceF)
	h.float(cfg.VOn)
	h.float(cfg.VOff)
	h.float(cfg.VMax)
	h.float(cfg.LeakageW)

	switch pp := p.(type) {
	case harvest.ConstantProfile:
		h.word(1)
		h.float(pp.Watts)
	case harvest.SquareProfile:
		h.word(2)
		h.float(pp.PeakWatts)
		h.float(pp.Period)
		h.float(pp.Duty)
	case harvest.SineProfile:
		h.word(3)
		h.float(pp.PeakWatts)
		h.float(pp.Period)
	case *harvest.TraceProfile:
		if pp == nil {
			return 0, false
		}
		h.word(4)
		h.word(pp.Fingerprint())
	default:
		return 0, false
	}

	if fx == nil {
		h.word(0)
	} else {
		h.word(1)
		h.float(fx.VWarn)
		h.word(uint64(fx.SampleStride))
	}
	if r == nil {
		h.word(0)
	} else {
		h.word(1)
		h.word(r.MaxBoots)
		h.word(uint64(r.StagnationLimit))
		if r.NoFastForward {
			h.word(1)
		} else {
			h.word(0)
		}
		h.word(uint64(r.LedgerDepth))
	}
	return uint64(h), true
}

// fingerprint mixes a stream of 64-bit words one word per step: xor
// the word in, multiply by an odd constant, xor-shift. Each step is a
// bijection of the state, so two streams of equal length that differ
// in a single word always end in different states.
type fingerprint uint64

const (
	fingerprintSeed = 0x6a09e667f3bcc909 // the fractional bits of √2
	fingerprintMul  = 0x9e3779b97f4a7c15 // 2⁶⁴/φ, odd
)

func (h *fingerprint) word(v uint64) {
	x := (uint64(*h) ^ v) * fingerprintMul
	*h = fingerprint(x ^ x>>32)
}

func (h *fingerprint) float(v float64) { h.word(math.Float64bits(v)) }
