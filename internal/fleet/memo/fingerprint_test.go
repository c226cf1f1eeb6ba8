package memo

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"ehdl/internal/flex"
	"ehdl/internal/harvest"
	"ehdl/internal/intermittent"
)

// harvestSetup is one argument list of harvestFingerprint.
type harvestSetup struct {
	cfg     harvest.Config
	profile harvest.Profile
	fx      *flex.Config
	r       *intermittent.Runner
}

// flipBits are the bits every float field is flipped in: the sign, the
// top exponent bit and the lowest mantissa bit.
var flipBits = []uint{63, 62, 0}

// flips returns copies of v, a struct, with one bit flipped in one
// field each: every float field in flipBits, every integer field in
// its lowest and highest bit, every bool negated.
func flips[T any](v T) map[string]T {
	out := map[string]T{}
	rv := reflect.ValueOf(v)
	for i := 0; i < rv.NumField(); i++ {
		name := rv.Type().Field(i).Name
		flip := func(label string, set func(f reflect.Value)) {
			c := reflect.New(rv.Type()).Elem()
			c.Set(rv)
			set(c.Field(i))
			out[name+" "+label] = c.Interface().(T)
		}
		switch f := rv.Field(i); f.Kind() {
		case reflect.Float64:
			for _, b := range flipBits {
				flip(fmt.Sprintf("bit %d", b), func(f reflect.Value) {
					f.SetFloat(math.Float64frombits(math.Float64bits(f.Float()) ^ 1<<b))
				})
			}
		case reflect.Int:
			for _, b := range []uint{0, 62, 63} {
				flip(fmt.Sprintf("bit %d", b), func(f reflect.Value) { f.SetInt(f.Int() ^ int64(uint64(1)<<b)) })
			}
		case reflect.Uint64:
			for _, b := range []uint{0, 62, 63} {
				flip(fmt.Sprintf("bit %d", b), func(f reflect.Value) { f.SetUint(f.Uint() ^ 1<<b) })
			}
		case reflect.Bool:
			flip("negated", func(f reflect.Value) { f.SetBool(!f.Bool()) })
		default:
			panic("flips: unhandled field kind " + f.Kind().String())
		}
	}
	return out
}

func trace(t *testing.T, times, watts []float64) *harvest.TraceProfile {
	t.Helper()
	tr, err := harvest.NewTraceProfile(times, watts, true)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestFingerprintBitFlips: the harvest fingerprint tells apart every
// setup that differs in one bit of one field — of the capacitor
// config, each profile kind, FLEX and the runner — as well as ±0, a
// nil versus a zero-valued FLEX or runner override, and the same
// numbers under different profile kinds. Every variant below must get
// its own fingerprint.
func TestFingerprintBitFlips(t *testing.T) {
	const w, period, duty = 5e-3, 0.1, 0.5
	times, watts := []float64{0, period, 2 * period}, []float64{w, 0, w}
	profiles := map[string]harvest.Profile{
		"const":         harvest.ConstantProfile{Watts: w},
		"const 0":       harvest.ConstantProfile{},
		"const -0":      harvest.ConstantProfile{Watts: math.Copysign(0, -1)},
		"square":        harvest.SquareProfile{PeakWatts: w, Period: period, Duty: duty},
		"square peak":   harvest.SquareProfile{PeakWatts: w},
		"sine":          harvest.SineProfile{PeakWatts: w, Period: period},
		"sine peak":     harvest.SineProfile{PeakWatts: w},
		"trace":         trace(t, times, watts),
		"trace watts":   trace(t, times[:2], []float64{w, period}),
		"trace no loop": func() harvest.Profile { tr, _ := harvest.NewTraceProfile(times, watts, false); return tr }(),
	}
	for label, p := range flips(harvest.ConstantProfile{Watts: w}) {
		profiles["const "+label] = p
	}
	for label, p := range flips(harvest.SquareProfile{PeakWatts: w, Period: period, Duty: duty}) {
		profiles["square "+label] = p
	}
	for label, p := range flips(harvest.SineProfile{PeakWatts: w, Period: period}) {
		profiles["sine "+label] = p
	}
	// A trace's points enter through its content fingerprint; flips the
	// trace constructor rejects (negative power, say) are not setups.
	for i := range times {
		for _, b := range flipBits {
			ts, ws := append([]float64(nil), times...), append([]float64(nil), watts...)
			ws[i] = math.Float64frombits(math.Float64bits(ws[i]) ^ 1<<b)
			if tr, err := harvest.NewTraceProfile(ts, ws, true); err == nil {
				profiles[fmt.Sprintf("trace watts[%d] bit %d", i, b)] = tr
			}
			ts, ws = append([]float64(nil), times...), append([]float64(nil), watts...)
			ts[i] = math.Float64frombits(math.Float64bits(ts[i]) ^ 1<<b)
			if tr, err := harvest.NewTraceProfile(ts, ws, true); err == nil {
				profiles[fmt.Sprintf("trace times[%d] bit %d", i, b)] = tr
			}
		}
	}

	fx := flex.DefaultConfig()
	r := intermittent.Runner{MaxBoots: 7, StagnationLimit: 8, LedgerDepth: 16}
	base := harvestSetup{cfg: harvest.PaperConfig(), profile: profiles["square"]}
	setups := map[string]harvestSetup{}
	for name, p := range profiles {
		s := base
		s.profile = p
		setups["profile "+name] = s
	}
	for label, c := range flips(base.cfg) {
		s := base
		s.cfg = c
		setups["config "+label] = s
	}
	overrides := map[string]harvestSetup{
		"flex zero":   {fx: &flex.Config{}},
		"flex":        {fx: &fx},
		"runner zero": {r: &intermittent.Runner{}},
		"runner":      {r: &r},
		"both zero":   {fx: &flex.Config{}, r: &intermittent.Runner{}},
		"both":        {fx: &fx, r: &r},
	}
	for label, f := range flips(fx) {
		overrides["flex "+label] = harvestSetup{fx: &f}
	}
	for label, rr := range flips(r) {
		overrides["runner "+label] = harvestSetup{r: &rr}
	}
	for name, o := range overrides {
		s := base
		s.fx, s.r = o.fx, o.r
		setups[name] = s
	}

	seen := map[uint64]string{}
	for name, s := range setups {
		h, ok := harvestFingerprint(s.cfg, s.profile, s.fx, s.r)
		if !ok {
			t.Fatalf("%s: fingerprint refused the setup", name)
		}
		if prev, dup := seen[h]; dup {
			t.Errorf("%q and %q share fingerprint %#x", prev, name, h)
		}
		seen[h] = name
	}
	if len(setups) < 70 {
		t.Fatalf("only %d variants: a generator above produced none", len(setups))
	}
}
