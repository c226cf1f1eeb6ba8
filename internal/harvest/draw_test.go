package harvest

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// referenceCapacitor keeps the straightforward per-draw arithmetic the
// optimized Capacitor.Draw must reproduce bit for bit: a full
// EnergyBetween(t0, t1) per draw through the Profile interface,
// math.Mod on every phase advance, and energyAt for every threshold. It drives the
// state of its own Capacitor, so Recharge and the accessors are shared.
type referenceCapacitor struct{ c *Capacitor }

func (r referenceCapacitor) Draw(nJ float64, dt float64) bool {
	c := r.c
	r.integrateHarvest(dt)
	c.nowSec += dt
	need := nJ * 1e-9
	floor := c.energyAt(c.cfg.VOff)
	if c.energyJ-need < floor {
		c.energyJ = floor
		return false
	}
	c.energyJ -= need
	return true
}

func (r referenceCapacitor) integrateHarvest(dt float64) {
	c := r.c
	if dt <= 0 {
		return
	}
	var gross float64
	switch c.mode {
	case modePeriodic:
		gross = c.profile.EnergyBetween(c.phase, c.phase+dt)
		c.phase = math.Mod(c.phase+dt, c.period)
	case modeConstant:
		gross = c.profile.EnergyBetween(0, dt)
	default:
		gross = c.profile.EnergyBetween(c.nowSec, c.nowSec+dt)
	}
	c.energyJ += gross - c.cfg.LeakageW*dt
	if c.energyJ < 0 {
		c.energyJ = 0
	}
	if vmax := c.energyAt(c.cfg.VMax); c.energyJ > vmax {
		c.energyJ = vmax
	}
	c.cycleHarvestJ += gross
}

func (r referenceCapacitor) Recharge() (float64, bool) { return r.c.Recharge() }

// drawProfiles are the profiles the exactness oracle covers, indexed
// by the fuzz target's selector byte (so entries are replaced in
// place, never reordered). Beyond one of each kind they cover a sine
// slower than most draw windows, the square's duty extremes, power-of-two periods (t/period
// exact), a two-point trace (one segment, so every lookup hits) and
// peaks scaled the way a jittered scenario scales them.
func drawProfiles(t *testing.T) []struct {
	name string
	p    Profile
} {
	twoPoint, err := NewTraceProfile([]float64{0, 0.05}, []float64{2e-3, 6e-3}, true)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		p    Profile
	}{
		{"const", ConstantProfile{Watts: 5e-3}},
		{"square", SquareProfile{PeakWatts: 5e-3, Period: 0.1, Duty: 0.5}},
		{"sine", SineProfile{PeakWatts: 5e-3, Period: 0.1}},
		{"trace-repeat", mustTrace(t, true)},
		{"trace-hold", mustTrace(t, false)},
		{"sine-slow", SineProfile{PeakWatts: 5e-3, Period: 3}},
		{"square-duty1", SquareProfile{PeakWatts: 5e-3, Period: 0.1, Duty: 1}},
		{"square-tiny-duty", SquareProfile{PeakWatts: 5e-3, Period: 0.1, Duty: 1e-6}},
		{"square-pow2", SquareProfile{PeakWatts: 5e-3, Period: 0.125, Duty: 0.25}},
		{"sine-pow2", SineProfile{PeakWatts: 6e-3, Period: 0.25}},
		{"trace-two-point", twoPoint},
		{"square-jitter", SquareProfile{PeakWatts: 5e-3 * jitterScale(0.25, 0.7, 32), Period: 0.1, Duty: 0.5}},
		{"sine-jitter", SineProfile{PeakWatts: 6e-3 * jitterScale(0.2, 0.3, 32), Period: 0.2}},
	}
}

// jitterScale is a scenario's per-device power factor for the uniform
// draw u, snapped to one of steps bins as the scenario source does.
func jitterScale(jitter, u float64, steps int) float64 {
	u = (math.Floor(u*float64(steps)) + 0.5) / float64(steps)
	return 1 + jitter*(2*u-1)
}

// drawOp is one supply call: a recharge, or a draw of nJ over dt.
type drawOp struct {
	recharge bool
	nJ, dt   float64
}

// decodeDrawOp maps four bytes to an op covering the regimes that
// matter: single-cycle charges (dt of a few hundred ns), long windows
// that wrap the phase, zero-length windows, brown-out-sized draws and
// recharges.
func decodeDrawOp(b [4]byte) drawOp {
	if b[0]%16 == 0 {
		return drawOp{recharge: true}
	}
	n := float64(binary.LittleEndian.Uint16(b[2:]))
	op := drawOp{nJ: float64(b[1]) * 5, dt: n / 16e6}
	if b[0]&2 != 0 {
		op.nJ = float64(b[1]) * 2000
	}
	if b[0]&4 != 0 {
		op.dt = n * 1e-5
	}
	return op
}

// checkDrawSequence runs ops through an optimized capacitor and a
// reference one built alike and requires bit-equal returns and state
// after every call.
func checkDrawSequence(t *testing.T, cfg Config, p Profile, ops []drawOp) {
	t.Helper()
	got, err := NewCapacitor(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := NewCapacitor(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceCapacitor{rc}
	bits := math.Float64bits
	for i, op := range ops {
		if op.recharge {
			gOff, gOK := got.Recharge()
			wOff, wOK := want.Recharge()
			if bits(gOff) != bits(wOff) || gOK != wOK {
				t.Fatalf("op %d Recharge: got (%v, %v), reference (%v, %v)", i, gOff, gOK, wOff, wOK)
			}
		} else if g, w := got.Draw(op.nJ, op.dt), want.Draw(op.nJ, op.dt); g != w {
			t.Fatalf("op %d Draw(%v, %v): got %v, reference %v", i, op.nJ, op.dt, g, w)
		}
		gTok, gOK := got.CycleToken()
		wTok, wOK := rc.CycleToken()
		switch {
		case bits(got.EnergyJ()) != bits(rc.EnergyJ()):
			t.Fatalf("op %d %+v: EnergyJ %v, reference %v", i, op, got.EnergyJ(), rc.EnergyJ())
		case gTok != wTok || gOK != wOK:
			t.Fatalf("op %d %+v: CycleToken %+v/%v, reference %+v/%v", i, op, gTok, gOK, wTok, wOK)
		case bits(got.Now()) != bits(rc.Now()):
			t.Fatalf("op %d %+v: Now %v, reference %v", i, op, got.Now(), rc.Now())
		case bits(got.HarvestedJ()) != bits(rc.HarvestedJ()):
			t.Fatalf("op %d %+v: HarvestedJ %v, reference %v", i, op, got.HarvestedJ(), rc.HarvestedJ())
		case bits(got.CycleHarvestJ()) != bits(rc.CycleHarvestJ()):
			t.Fatalf("op %d %+v: CycleHarvestJ %v, reference %v", i, op, got.CycleHarvestJ(), rc.CycleHarvestJ())
		}
	}
}

// TestDrawMatchesReference pins the optimized draw path to the
// reference arithmetic over long random Draw/Recharge sequences, with
// and without leakage.
func TestDrawMatchesReference(t *testing.T) {
	leaky := PaperConfig()
	leaky.LeakageW = 1e-3
	for _, cfg := range []struct {
		name string
		c    Config
	}{{"paper", PaperConfig()}, {"leaky", leaky}} {
		for _, pr := range drawProfiles(t) {
			t.Run(cfg.name+"/"+pr.name, func(t *testing.T) {
				// Windows ending exactly on the period take the wrap
				// branch, the edge of the plain-addition fast path.
				var ops []drawOp
				if p := pr.p.ProfilePeriod(); p > 0 {
					ops = append(ops, drawOp{nJ: 1, dt: p / 2}, drawOp{nJ: 1, dt: p / 2}, drawOp{nJ: 1, dt: p})
				}
				rng := rand.New(rand.NewSource(1))
				for range 20000 {
					var b [4]byte
					rng.Read(b[:])
					ops = append(ops, decodeDrawOp(b))
				}
				checkDrawSequence(t, cfg.c, pr.p, ops)
			})
		}
	}
}

// FuzzCapacitorDraw drives fuzzer-chosen Draw/Recharge sequences (four
// bytes per op, see decodeDrawOp) through the optimized and reference
// capacitors under every covered profile.
func FuzzCapacitorDraw(f *testing.F) {
	f.Add(uint8(1), false, []byte{1, 10, 0x40, 0, 5, 10, 0xff, 0xff, 0, 0, 0, 0, 3, 200, 1, 0})
	f.Add(uint8(3), true, []byte{7, 255, 0xff, 0x7f, 1, 1, 1, 0, 0, 0, 0, 0, 5, 0, 0x10, 0x27})
	f.Add(uint8(4), false, []byte{5, 1, 0xff, 0xff, 5, 1, 0xff, 0xff, 16, 0, 0, 0, 1, 3, 0, 1})
	f.Fuzz(func(t *testing.T, profile uint8, leak bool, data []byte) {
		profiles := drawProfiles(t)
		cfg := PaperConfig()
		if leak {
			cfg.LeakageW = 1e-3
		}
		ops := make([]drawOp, 0, len(data)/4)
		for i := 0; i+4 <= len(data); i += 4 {
			ops = append(ops, decodeDrawOp([4]byte(data[i:i+4])))
		}
		checkDrawSequence(t, cfg, profiles[int(profile)%len(profiles)].p, ops)
	})
}
