package harvest

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// mustTrace builds the test trace: ramp up over 1 s, plateau for 2 s,
// ramp down over 1 s (mean 3 mW when repeating).
func mustTrace(t *testing.T, repeat bool) *TraceProfile {
	t.Helper()
	p, err := NewTraceProfile([]float64{0, 1, 3, 4}, []float64{0, 4e-3, 4e-3, 0}, repeat)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// analyticProfiles enumerates every built-in profile as (name,
// profile) pairs for table tests.
func analyticProfiles(t *testing.T) map[string]Profile {
	t.Helper()
	return map[string]Profile{
		"const":        ConstantProfile{Watts: 5e-3},
		"square":       SquareProfile{PeakWatts: 5e-3, Period: 0.1, Duty: 0.5},
		"square-slow":  SquareProfile{PeakWatts: 2e-3, Period: 1, Duty: 0.01},
		"sine":         SineProfile{PeakWatts: 5e-3, Period: 0.1},
		"trace-repeat": mustTrace(t, true),
		"trace-hold":   mustTrace(t, false),
	}
}

// numEnergy is the brute-force Riemann reference for EnergyBetween.
func numEnergy(p Profile, t0, t1 float64, n int) float64 {
	h := (t1 - t0) / float64(n)
	var sum float64
	for i := 0; i < n; i++ {
		sum += p.PowerAt(t0+(float64(i)+0.5)*h) * h
	}
	return sum
}

func TestEnergyBetweenMatchesNumericIntegral(t *testing.T) {
	for name, p := range analyticProfiles(t) {
		for _, iv := range [][2]float64{{0, 0.23}, {0.017, 1.9}, {3.3, 9.71}, {0.05, 0.05}} {
			got := p.EnergyBetween(iv[0], iv[1])
			n := 400000
			want := numEnergy(p, iv[0], iv[1], n)
			// Midpoint sampling mislocates discontinuities by up to
			// one sub-step each.
			tol := 5e-3 * (iv[1] - iv[0]) / float64(n) * 8
			if tol < 1e-15 {
				tol = 1e-15
			}
			if math.Abs(got-want) > tol {
				t.Errorf("%s: EnergyBetween(%g,%g) = %v, numeric %v", name, iv[0], iv[1], got, want)
			}
		}
	}
}

func TestNextChangeAdvancesAndPowerMonotone(t *testing.T) {
	for name, p := range analyticProfiles(t) {
		tt := 0.013
		for i := 0; i < 60; i++ {
			u := p.NextChange(tt)
			if math.IsInf(u, 1) {
				if p.ProfilePeriod() > 0 {
					t.Errorf("%s: periodic profile returned +Inf NextChange", name)
				}
				break
			}
			if u <= tt {
				t.Fatalf("%s: NextChange(%v) = %v did not advance", name, tt, u)
			}
			// Power must be monotone on [tt, u).
			span := u - tt
			prev := p.PowerAt(tt)
			dir := 0.0
			for k := 1; k <= 16; k++ {
				cur := p.PowerAt(tt + span*float64(k)/16.0*(1-1e-12))
				d := cur - prev
				if d*dir < 0 && math.Abs(d) > 1e-15 {
					t.Fatalf("%s: power not monotone on [%v,%v)", name, tt, u)
				}
				if math.Abs(d) > 1e-15 {
					dir = d
				}
				prev = cur
			}
			tt = u
		}
	}
}

func TestMeanPower(t *testing.T) {
	cases := []struct {
		p    Profile
		want float64
	}{
		{ConstantProfile{Watts: 2e-3}, 2e-3},
		{SquareProfile{PeakWatts: 4e-3, Period: 1, Duty: 0.25}, 1e-3},
		{SineProfile{PeakWatts: 3e-3, Period: 0.5}, 2 * 3e-3 / math.Pi},
		{mustTrace(t, true), 3e-3},
		{mustTrace(t, false), 0},
	}
	for i, c := range cases {
		if got := c.p.MeanPower(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: MeanPower = %v, want %v", i, got, c.want)
		}
	}
}

// drainAt advances the capacitor to absolute time at and browns it
// out, leaving the store at the VOff floor.
func drainAt(t *testing.T, c *Capacitor, at float64) {
	t.Helper()
	if at > c.Now() {
		c.Draw(0, at-c.Now())
	}
	if c.Draw(c.energyAt(c.cfg.VMax)*1e9*2, 1e-3) {
		t.Fatal("overdraw did not brown out")
	}
}

// TestAnalyticRechargeMatchesEulerOracle is the tentpole's validation:
// the closed-form off-times must agree with the retained fixed-step
// integrator within 0.1% for every profile, from several brown-out
// phases.
func TestAnalyticRechargeMatchesEulerOracle(t *testing.T) {
	for name, p := range analyticProfiles(t) {
		for _, at := range []float64{0.004, 0.071, 1.33, 2.6} {
			ca := mustCap(t, PaperConfig(), p)
			ce := mustCap(t, PaperConfig(), p)
			drainAt(t, ca, at)
			drainAt(t, ce, at)

			offA, okA := ca.Recharge()
			if !okA {
				t.Fatalf("%s@%g: analytic recharge reported dead", name, at)
			}
			step := offA / 5e4
			offE, okE := ce.RechargeEuler(step, offA*2+10)
			if !okE {
				t.Fatalf("%s@%g: euler oracle hit horizon", name, at)
			}
			if rel := math.Abs(offA-offE) / offE; rel > 1e-3 {
				t.Errorf("%s@%g: analytic off %v vs euler %v (rel %v)", name, at, offA, offE, rel)
			}
			if v := ca.Voltage(); math.Abs(v-3.3) > 1e-9 {
				t.Errorf("%s@%g: post-recharge voltage %v", name, at, v)
			}
		}
	}
}

// TestAnalyticRechargeWithLeakageMatchesEuler repeats the oracle
// comparison with a parasitic drain, exercising the net-power
// sign-change and zero-floor paths.
func TestAnalyticRechargeWithLeakageMatchesEuler(t *testing.T) {
	cfg := PaperConfig()
	cfg.LeakageW = 0.4e-3
	profiles := map[string]Profile{
		"const":  ConstantProfile{Watts: 5e-3},
		"square": SquareProfile{PeakWatts: 5e-3, Period: 0.1, Duty: 0.5},
		// Long dark phase: the store floors at zero before recovering.
		"square-floor": SquareProfile{PeakWatts: 2e-3, Period: 10, Duty: 0.5},
		"sine":         SineProfile{PeakWatts: 5e-3, Period: 0.1},
		"trace":        mustTrace(t, true),
	}
	for name, p := range profiles {
		ca := mustCap(t, cfg, p)
		ce := mustCap(t, cfg, p)
		drainAt(t, ca, 0.02)
		drainAt(t, ce, 0.02)
		offA, okA := ca.Recharge()
		if !okA {
			t.Fatalf("%s: analytic recharge reported dead", name)
		}
		offE, okE := ce.RechargeEuler(offA/2e5, offA*2+10)
		if !okE {
			t.Fatalf("%s: euler oracle hit horizon", name)
		}
		if rel := math.Abs(offA-offE) / offE; rel > 1e-3 {
			t.Errorf("%s: leaky analytic off %v vs euler %v (rel %v)", name, offA, offE, rel)
		}
	}
}

// TestSlowSquareRechargeIsNotDead is the horizon-bug regression test:
// a 2-hour-period square wave browned out early in its off-phase needs
// ~88 minutes of waiting — the seed's 3600 s horizon misreported that
// as a dead source; the analytic engine must wait it out.
func TestSlowSquareRechargeIsNotDead(t *testing.T) {
	p := SquareProfile{PeakWatts: 5e-3, Period: 7200, Duty: 0.25}
	c := mustCap(t, PaperConfig(), p)
	drainAt(t, c, 1900) // off-phase starts at t=1800, next on-phase at t=7200
	wait := 7200 - c.Now()
	if wait <= 3600 {
		t.Fatalf("test setup: wait %v does not exceed the old horizon", wait)
	}
	want := wait + c.UsableEnergyJ()/5e-3
	off, ok := c.Recharge()
	if !ok {
		t.Fatal("slow-but-charging source misreported as dead")
	}
	if math.Abs(off-want)/want > 1e-9 {
		t.Errorf("off = %v, want %v", off, want)
	}
	if v := c.Voltage(); math.Abs(v-3.3) > 1e-9 {
		t.Errorf("post-recharge voltage %v", v)
	}
}

// TestEulerOracleStillHasHorizonBug documents the seed behaviour the
// analytic engine replaces: the same slow square wave hits the oracle's
// horizon and is misclassified.
func TestEulerOracleStillHasHorizonBug(t *testing.T) {
	p := SquareProfile{PeakWatts: 5e-3, Period: 7200, Duty: 0.25}
	c := mustCap(t, PaperConfig(), p)
	drainAt(t, c, 1900)
	if _, ok := c.RechargeEuler(1e-4, 3600); ok {
		t.Fatal("euler oracle unexpectedly survived its horizon")
	}
}

// TestDeadSourceVerdicts exercises the analytic exhaustion decision.
func TestDeadSourceVerdicts(t *testing.T) {
	t.Run("zero-constant", func(t *testing.T) {
		c := mustCap(t, PaperConfig(), ConstantProfile{})
		drainAt(t, c, 0.001)
		if _, ok := c.Recharge(); ok {
			t.Fatal("zero source recharged")
		}
	})
	t.Run("leakage-beats-mean", func(t *testing.T) {
		cfg := PaperConfig()
		cfg.LeakageW = 2.6e-3 // square mean is 2.5 mW
		c := mustCap(t, cfg, SquareProfile{PeakWatts: 5e-3, Period: 0.1, Duty: 0.5})
		drainAt(t, c, 0.001)
		if _, ok := c.Recharge(); ok {
			t.Fatal("source below leakage recharged")
		}
	})
	t.Run("intra-period-crossing-beats-negative-mean", func(t *testing.T) {
		// Net energy per period is negative, but the on-phase excursion
		// alone covers the small VOff→VOn deficit: must NOT be dead.
		cfg := Config{CapacitanceF: 100e-6, VOn: 1.9, VOff: 1.8, VMax: 3.6, LeakageW: 2.6e-3}
		c, err := NewCapacitor(cfg, SquareProfile{PeakWatts: 5e-3, Period: 0.1, Duty: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		c.Draw(c.energyAt(cfg.VMax)*1e9*2, 1e-3) // brown out
		if _, ok := c.Recharge(); !ok {
			t.Fatal("intra-period crossing misreported as dead")
		}
		if v := c.Voltage(); math.Abs(v-1.9) > 1e-9 {
			t.Errorf("voltage %v, want 1.9", v)
		}
	})
	t.Run("trace-gone-dark", func(t *testing.T) {
		// A hold-last trace that decays to zero: alive while the trace
		// still has light, dead once past it — a verdict mean power
		// alone cannot make.
		p, err := NewTraceProfile([]float64{0, 1, 2}, []float64{5e-3, 5e-3, 0}, false)
		if err != nil {
			t.Fatal(err)
		}
		bright := mustCap(t, PaperConfig(), p)
		drainAt(t, bright, 0.1)
		if _, ok := bright.Recharge(); !ok {
			t.Fatal("recharge inside the bright region reported dead")
		}
		dark := mustCap(t, PaperConfig(), p)
		drainAt(t, dark, 5)
		if _, ok := dark.Recharge(); ok {
			t.Fatal("recharge after the trace went dark succeeded")
		}
	})
}

// TestEnergyConservation is the tentpole's property test: across any
// Draw/Recharge sequence, harvested − consumed = Δstored (leak-free
// config, draws sized to stay clear of the VMax clamp; brown-out
// clamping is accounted explicitly).
func TestEnergyConservation(t *testing.T) {
	for name, p := range analyticProfiles(t) {
		c := mustCap(t, PaperConfig(), p)
		floor := c.energyAt(1.8)
		// Invariant: EnergyJ == base + HarvestedJ − consumed.
		base := c.EnergyJ()
		var consumed float64
		for i := 0; i < 4000; i++ {
			// Draws outweigh the worst-case per-step harvest (6.5 µJ)
			// so the store never climbs toward the VMax clamp.
			drawNJ := 8000 + float64(i%7)*950 // 8–13.7 µJ
			dt := 1e-4 + float64(i%5)*3e-4
			if c.EnergyJ()-floor > drawNJ*1e-9*2 {
				if !c.Draw(drawNJ, dt) {
					t.Fatalf("%s: draw with headroom failed at step %d", name, i)
				}
				consumed += drawNJ * 1e-9
			} else {
				// Brown out: the failing draw clamps the store at the
				// VOff floor; whatever it held beyond that (plus the
				// in-window harvest) was consumed by the aborted op.
				eBefore := c.EnergyJ()
				hBefore := c.HarvestedJ()
				if c.Draw(1e12, 1e-4) {
					t.Fatalf("%s: 1 kJ draw succeeded", name)
				}
				consumed += eBefore + (c.HarvestedJ() - hBefore) - c.EnergyJ()
				if _, ok := c.Recharge(); !ok {
					if name == "trace-hold" {
						break // the trace legitimately went dark
					}
					t.Fatalf("%s: recharge reported dead at step %d", name, i)
				}
			}
			got := c.EnergyJ()
			want := base + c.HarvestedJ() - consumed
			if math.Abs(got-want) > 1e-12 {
				t.Fatalf("%s: conservation broken at step %d: stored %v, want %v (drift %v)",
					name, i, got, want, got-want)
			}
		}
	}
}

func TestProfileValidation(t *testing.T) {
	invalid := []interface {
		Profile
		Validate() error
	}{
		SquareProfile{PeakWatts: 1e-3, Period: 0.1, Duty: 0},
		SquareProfile{PeakWatts: 1e-3, Period: 0.1, Duty: 1.5},
		SquareProfile{PeakWatts: 1e-3, Period: 0, Duty: 0.5},
		SquareProfile{PeakWatts: -1, Period: 0.1, Duty: 0.5},
		SineProfile{PeakWatts: 1e-3, Period: 0},
		SineProfile{PeakWatts: math.NaN(), Period: 1},
		ConstantProfile{Watts: -2},
		ConstantProfile{Watts: math.Inf(1)},
	}
	for i, v := range invalid {
		if err := v.Validate(); err == nil {
			t.Errorf("case %d (%+v): invalid profile accepted", i, v)
		}
	}
	// Outside the closed set: nil, a nil or unbuilt trace, and pointers
	// to otherwise valid value profiles. Each is an error naming its
	// type, not a panic.
	foreign := []Profile{
		nil,
		(*TraceProfile)(nil),
		&TraceProfile{},
		&SquareProfile{PeakWatts: 5e-3, Period: 0.1, Duty: 0.5},
		&SineProfile{PeakWatts: 5e-3, Period: 0.1},
		&ConstantProfile{Watts: 5e-3},
	}
	rejected := make([]Profile, 0, len(invalid)+len(foreign))
	for _, v := range invalid {
		rejected = append(rejected, v)
	}
	rejected = append(rejected, foreign...)
	for i, p := range rejected {
		_, err := NewCapacitor(PaperConfig(), p)
		if err == nil {
			t.Errorf("case %d (%T %+v): NewCapacitor accepted invalid profile", i, p, p)
			continue
		}
		if i >= len(invalid) && !strings.Contains(err.Error(), fmt.Sprintf("%T", p)) {
			t.Errorf("case %d: error %q does not name type %T", i, err, p)
		}
	}
	if _, err := NewSquareProfile(5e-3, 0.1, 0.5); err != nil {
		t.Errorf("valid square rejected: %v", err)
	}
	if _, err := NewSineProfile(5e-3, 0.1); err != nil {
		t.Errorf("valid sine rejected: %v", err)
	}
	if _, err := NewConstantProfile(5e-3); err != nil {
		t.Errorf("valid constant rejected: %v", err)
	}
	cfg := PaperConfig()
	cfg.LeakageW = -1
	if _, err := NewCapacitor(cfg, ConstantProfile{1e-3}); err == nil {
		t.Error("negative leakage accepted")
	}
}

// TestNearBalancedRecharge holds a source whose mean power beats the
// leakage by a hair. At 1e-7 W of margin the segment walk reaches its
// bound: the verdict is dead and the capacitor is untouched, like
// every other dead verdict. At 1e-6 W the source charges after about
// 266,000 s; the off-time, store and clock bits are pinned.
func TestNearBalancedRecharge(t *testing.T) {
	drained := func(leak float64) *Capacitor {
		cfg := PaperConfig()
		cfg.LeakageW = leak
		c := mustCap(t, cfg, SquareProfile{PeakWatts: 1e-3, Period: 1, Duty: 0.5})
		drainAt(t, c, 0)
		return c
	}
	bits := math.Float64bits

	c := drained(4.9999995e-4)
	e0, now0, h0 := c.EnergyJ(), c.Now(), c.HarvestedJ()
	tok0, _ := c.CycleToken()
	if _, ok := c.Recharge(); ok {
		t.Fatal("1e-7 W margin: recharge succeeded, want the segment bound's dead verdict")
	}
	if tok, _ := c.CycleToken(); bits(c.EnergyJ()) != bits(e0) || bits(c.Now()) != bits(now0) ||
		bits(c.HarvestedJ()) != bits(h0) || tok != tok0 {
		t.Errorf("dead verdict mutated the capacitor: EnergyJ %v→%v, Now %v→%v, HarvestedJ %v→%v, token %+v→%+v",
			e0, c.EnergyJ(), now0, c.Now(), h0, c.HarvestedJ(), tok0, tok)
	}

	c = drained(4.999995e-4)
	off, ok := c.Recharge()
	if !ok {
		t.Fatal("1e-6 W margin: recharge reported dead")
	}
	for _, f := range []struct {
		name string
		got  float64
		want uint64
	}{
		{"off", off, 0x41103c41fef9b9a6},
		{"EnergyJ", c.EnergyJ(), 0x3f41d798d8a979e1},
		{"Now", c.Now(), 0x41103c41ffffde83},
	} {
		if bits(f.got) != f.want {
			t.Errorf("%s = %v (%#x), want %v (%#x)", f.name, f.got, bits(f.got), math.Float64frombits(f.want), f.want)
		}
	}
}

func TestTraceProfileShape(t *testing.T) {
	rep := mustTrace(t, true)
	hold := mustTrace(t, false)
	cases := []struct {
		p    Profile
		t    float64
		want float64
	}{
		{rep, 0, 0}, {rep, 0.5, 2e-3}, {rep, 1, 4e-3}, {rep, 2, 4e-3},
		{rep, 3.5, 2e-3}, {rep, 4.5, 2e-3}, {rep, 9, 4e-3},
		{hold, 3.5, 2e-3}, {hold, 4, 0}, {hold, 100, 0},
	}
	for i, c := range cases {
		if got := c.p.PowerAt(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("case %d: PowerAt(%g) = %v, want %v", i, c.t, got, c.want)
		}
	}
	if got := rep.NextChange(0.2); got != 1 {
		t.Errorf("NextChange(0.2) = %v, want 1", got)
	}
	if got := rep.NextChange(1); got != 3 {
		t.Errorf("NextChange(1) = %v, want 3", got)
	}
	if got := rep.NextChange(4.2); got != 5 {
		t.Errorf("NextChange(4.2) = %v, want 5", got)
	}
	if got := hold.NextChange(4.2); !math.IsInf(got, 1) {
		t.Errorf("hold NextChange(4.2) = %v, want +Inf", got)
	}
	if got := rep.Duration(); got != 4 {
		t.Errorf("Duration = %v", got)
	}
}

func TestLoadTraceCSV(t *testing.T) {
	src := `
# solar morning, 1-second resolution
0, 0
1, 4e-3

3,4e-3
4, 0
`
	p, err := LoadTraceCSV(strings.NewReader(src), true)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.PowerAt(2); math.Abs(got-4e-3) > 1e-12 {
		t.Errorf("PowerAt(2) = %v", got)
	}
	if got := p.MeanPower(); math.Abs(got-3e-3) > 1e-12 {
		t.Errorf("MeanPower = %v", got)
	}
	bad := []string{
		"0,1e-3",                     // single point
		"0,1e-3\n0.5,2e-3\n0.5,3e-3", // non-increasing
		"1,1e-3\n2,2e-3",             // does not start at 0
		"0,-1\n1,0",                  // negative power
		"0,1e-3\n1",                  // malformed line
		"0,abc\n1,0",                 // bad number
	}
	for i, s := range bad {
		if _, err := LoadTraceCSV(strings.NewReader(s), false); err == nil {
			t.Errorf("bad trace %d accepted", i)
		}
	}
}

// TestRechargeHarvestAccounting: a recharge must add exactly the
// VOff→VOn deficit to the store, and the harvest meter must grow by at
// least that much (gross ≥ net).
func TestRechargeHarvestAccounting(t *testing.T) {
	for name, p := range analyticProfiles(t) {
		c := mustCap(t, PaperConfig(), p)
		drainAt(t, c, 0.02)
		h0 := c.HarvestedJ()
		e0 := c.EnergyJ()
		if _, ok := c.Recharge(); !ok {
			t.Fatalf("%s: recharge dead", name)
		}
		deficit := c.EnergyJ() - e0
		want := c.UsableEnergyJ()
		if math.Abs(deficit-want)/want > 1e-9 {
			t.Errorf("%s: recharge added %v J, want %v J", name, deficit, want)
		}
		if harvested := c.HarvestedJ() - h0; harvested < deficit*(1-1e-9) {
			t.Errorf("%s: harvested %v J < stored %v J", name, harvested, deficit)
		}
	}
}
