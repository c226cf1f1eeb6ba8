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
// parameters), FLEX policy, and runner limits — into one 64-bit
// FNV-1a value for the trajectory and Tier-1 keys. Two devices with
// equal fingerprints (and equal engine, model and input length) run
// the same trajectory.
//
// ok is false for any profile outside the capacitor's closed set (the
// value profiles and *TraceProfile): harvest.NewCapacitor rejects it,
// so its device is a setup error, and keying it — a pointer like its
// value, say — would false-hit an equal device's completed row. A
// false hit is the one failure mode the memo must never have,
// so such profiles bypass memoization entirely.
func harvestFingerprint(cfg harvest.Config, p harvest.Profile, fx *flex.Config, r *intermittent.Runner) (uint64, bool) {
	h := fnv64a(fnvOffset64)
	u := h.word
	f := func(v float64) { u(math.Float64bits(v)) }
	b := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}

	f(cfg.CapacitanceF)
	f(cfg.VOn)
	f(cfg.VOff)
	f(cfg.VMax)
	f(cfg.LeakageW)

	switch pp := p.(type) {
	case harvest.ConstantProfile:
		u(1)
		f(pp.Watts)
	case harvest.SquareProfile:
		u(2)
		f(pp.PeakWatts)
		f(pp.Period)
		f(pp.Duty)
	case harvest.SineProfile:
		u(3)
		f(pp.PeakWatts)
		f(pp.Period)
	case *harvest.TraceProfile:
		if pp == nil {
			return 0, false
		}
		u(4)
		u(pp.Fingerprint())
	default:
		return 0, false
	}

	if fx == nil {
		u(0)
	} else {
		u(1)
		f(fx.VWarn)
		u(uint64(fx.SampleStride))
	}
	if r == nil {
		u(0)
	} else {
		u(1)
		u(r.MaxBoots)
		u(uint64(r.StagnationLimit))
		b(r.NoFastForward)
		u(uint64(r.LedgerDepth))
	}
	return uint64(h), true
}

// fnv64a is FNV-1a over 64 bits (hash/fnv's New64a) as a value, so
// the fingerprint allocates nothing.
type fnv64a uint64

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// word hashes v as its 8 little-endian bytes.
func (h *fnv64a) word(v uint64) {
	for k := 0; k < 64; k += 8 {
		*h ^= fnv64a(byte(v >> k))
		*h *= fnvPrime64
	}
}
