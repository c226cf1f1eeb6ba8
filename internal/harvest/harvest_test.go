package harvest

import (
	"math"
	"testing"
)

func mustCap(t *testing.T, cfg Config, p Profile) *Capacitor {
	t.Helper()
	c, err := NewCapacitor(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewCapacitorValidation(t *testing.T) {
	bad := []Config{
		{CapacitanceF: 0, VOn: 3.3, VOff: 1.8, VMax: 3.6},
		{CapacitanceF: 1e-4, VOn: 1.0, VOff: 1.8, VMax: 3.6}, // VOn < VOff
		{CapacitanceF: 1e-4, VOn: 3.3, VOff: 0, VMax: 3.6},
		{CapacitanceF: 1e-4, VOn: 3.7, VOff: 1.8, VMax: 3.6}, // VOn > VMax
		// Non-finite values: a NaN store never browns out.
		{CapacitanceF: math.NaN(), VOn: 3.3, VOff: 1.8, VMax: 3.6},
		{CapacitanceF: math.Inf(1), VOn: 3.3, VOff: 1.8, VMax: 3.6},
		{CapacitanceF: math.Inf(-1), VOn: 3.3, VOff: 1.8, VMax: 3.6},
		{CapacitanceF: 1e-4, VOn: math.NaN(), VOff: 1.8, VMax: 3.6},
		{CapacitanceF: 1e-4, VOn: math.Inf(1), VOff: 1.8, VMax: math.Inf(1)},
		{CapacitanceF: 1e-4, VOn: 3.3, VOff: math.NaN(), VMax: 3.6},
		{CapacitanceF: 1e-4, VOn: 3.3, VOff: math.Inf(-1), VMax: 3.6},
		{CapacitanceF: 1e-4, VOn: 3.3, VOff: 1.8, VMax: math.NaN()},
		{CapacitanceF: 1e-4, VOn: 3.3, VOff: 1.8, VMax: math.Inf(1)},
	}
	for _, cfg := range bad {
		if _, err := NewCapacitor(cfg, ConstantProfile{1e-3}); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func TestStartsAtVOn(t *testing.T) {
	c := mustCap(t, PaperConfig(), ConstantProfile{0})
	if v := c.Voltage(); math.Abs(v-3.3) > 1e-9 {
		t.Errorf("initial voltage = %v, want 3.3", v)
	}
}

func TestUsableEnergyMatchesFormula(t *testing.T) {
	c := mustCap(t, PaperConfig(), ConstantProfile{0})
	want := 0.5 * 100e-6 * (3.3*3.3 - 1.8*1.8)
	if got := c.UsableEnergyJ(); math.Abs(got-want) > 1e-12 {
		t.Errorf("usable = %v J, want %v J", got, want)
	}
	// Sanity: the paper's budget is ~0.38 mJ.
	if want < 0.3e-3 || want > 0.5e-3 {
		t.Errorf("paper budget out of expected band: %v", want)
	}
}

func TestDrawDepletesAndBrownsOut(t *testing.T) {
	c := mustCap(t, PaperConfig(), ConstantProfile{0})
	usable := c.UsableEnergyJ() * 1e9 // nJ
	if !c.Draw(usable/2, 1e-3) {
		t.Fatal("half the budget should succeed")
	}
	if c.Draw(usable, 1e-3) {
		t.Fatal("overdraw should brown out")
	}
	// After brownout the voltage sits at VOff.
	if v := c.Voltage(); math.Abs(v-1.8) > 1e-6 {
		t.Errorf("post-brownout voltage = %v, want 1.8", v)
	}
}

func TestVoltageNeverBelowVOffAfterBrownout(t *testing.T) {
	c := mustCap(t, PaperConfig(), ConstantProfile{0})
	for i := 0; i < 100; i++ {
		c.Draw(1e6, 1e-5) // keep overdrawing
	}
	if v := c.Voltage(); v < 1.8-1e-9 {
		t.Errorf("voltage %v fell below VOff", v)
	}
}

func TestRechargeReachesVOn(t *testing.T) {
	c := mustCap(t, PaperConfig(), ConstantProfile{5e-3}) // 5 mW
	c.Draw(c.UsableEnergyJ()*1e9*2, 1e-3)                 // force brownout
	off, ok := c.Recharge()
	if !ok {
		t.Fatal("recharge failed with 5 mW source")
	}
	if off <= 0 {
		t.Error("recharge took no time")
	}
	if v := c.Voltage(); v < 3.3-1e-3 {
		t.Errorf("post-recharge voltage = %v", v)
	}
	// Expected time ~ usable/power = 0.3825 mJ / 5 mW = 76.5 ms.
	want := c.UsableEnergyJ() / 5e-3
	if off < want*0.9 || off > want*1.3 {
		t.Errorf("recharge time %v s, expected about %v s", off, want)
	}
}

func TestRechargeFailsWithDeadSource(t *testing.T) {
	c := mustCap(t, PaperConfig(), ConstantProfile{0})
	c.Draw(c.UsableEnergyJ()*1e9*2, 1e-3)
	if _, ok := c.Recharge(); ok {
		t.Error("recharge succeeded with zero-power source")
	}
}

func TestHarvestDuringDraw(t *testing.T) {
	// With harvesting power exceeding the draw rate, voltage holds.
	c := mustCap(t, PaperConfig(), ConstantProfile{10e-3})
	v0 := c.Voltage()
	// Draw 1 µJ over 1 ms while harvesting 10 µJ in that window.
	if !c.Draw(1e3, 1e-3) {
		t.Fatal("draw failed")
	}
	if c.Voltage() < v0-1e-3 {
		t.Errorf("voltage dropped despite net-positive harvest: %v -> %v", v0, c.Voltage())
	}
}

func TestVMaxClamp(t *testing.T) {
	c := mustCap(t, PaperConfig(), ConstantProfile{1.0}) // huge source
	c.Draw(0, 10)                                        // 10 J harvested, must clamp
	if v := c.Voltage(); v > 3.6+1e-9 {
		t.Errorf("voltage %v exceeded VMax", v)
	}
}

func TestSquareProfile(t *testing.T) {
	p := SquareProfile{PeakWatts: 2e-3, Period: 1.0, Duty: 0.25}
	if got := p.PowerAt(0.1); got != 2e-3 {
		t.Errorf("on-phase power = %v", got)
	}
	if got := p.PowerAt(0.5); got != 0 {
		t.Errorf("off-phase power = %v", got)
	}
	if got := p.PowerAt(1.1); got != 2e-3 {
		t.Errorf("second period on-phase power = %v", got)
	}
	// Degenerate period behaves as constant.
	if got := (SquareProfile{PeakWatts: 1e-3}).PowerAt(5); got != 1e-3 {
		t.Errorf("zero-period square = %v", got)
	}
}

func TestSineProfile(t *testing.T) {
	p := SineProfile{PeakWatts: 1e-3, Period: 1.0}
	if got := p.PowerAt(0.25); math.Abs(got-1e-3) > 1e-12 {
		t.Errorf("peak = %v", got)
	}
	if got := p.PowerAt(0.5); math.Abs(got) > 1e-10 {
		t.Errorf("zero crossing = %v", got)
	}
	if got := p.PowerAt(0.75); got < 0 {
		t.Errorf("rectified sine went negative: %v", got)
	}
}

func TestHarvestedAccounting(t *testing.T) {
	c := mustCap(t, PaperConfig(), ConstantProfile{1e-3})
	c.Draw(100, 1e-3)
	want := 1e-3 * 1e-3
	if got := c.HarvestedJ(); math.Abs(got-want) > 1e-12 {
		t.Errorf("harvested = %v, want %v", got, want)
	}
}

func TestTimeAdvances(t *testing.T) {
	c := mustCap(t, PaperConfig(), ConstantProfile{1e-3})
	c.Draw(10, 2e-3)
	if got := c.Now(); math.Abs(got-2e-3) > 1e-12 {
		t.Errorf("Now = %v, want 2e-3", got)
	}
	c.Draw(c.UsableEnergyJ()*1e9*2, 1e-3) // brownout
	before := c.Now()
	c.Recharge()
	if c.Now() <= before {
		t.Error("Recharge did not advance time")
	}
}
