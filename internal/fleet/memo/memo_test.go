package memo

import (
	"fmt"
	"sync"
	"testing"

	"ehdl/internal/exec"
	"ehdl/internal/exec/exectest"
	"ehdl/internal/fixed"
	"ehdl/internal/flex"
	"ehdl/internal/harvest"
	"ehdl/internal/intermittent"
	"ehdl/internal/quant"
)

func TestLRUBasics(t *testing.T) {
	l := NewLRU[string, int](2)
	if !l.Add("a", 1) || !l.Add("b", 2) {
		t.Fatal("fresh inserts rejected")
	}
	if l.Add("a", 99) {
		t.Fatal("duplicate insert accepted (first-writer-wins broken)")
	}
	if v, ok := l.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %v %v, want 1 (first value kept)", v, ok)
	}
	// "a" was just used, so adding "c" must evict "b".
	l.Add("c", 3)
	if _, ok := l.Get("b"); ok {
		t.Fatal("recency ignored: b survived, a should have")
	}
	if _, ok := l.Get("a"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if l.Len() != 2 || l.Evictions() != 1 {
		t.Fatalf("len %d evictions %d, want 2 and 1", l.Len(), l.Evictions())
	}
	if NewLRU[int, int](0).Capacity() != 1 {
		t.Fatal("capacity not clamped to 1")
	}
}

func TestLRUConcurrent(t *testing.T) {
	l := NewLRU[int, int](64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Add(i%100, g)
				l.Get(i % 100)
			}
		}(g)
	}
	wg.Wait()
	if l.Len() > 64 {
		t.Fatalf("len %d exceeds capacity", l.Len())
	}
}

// memoModel builds a distinct, digestible model (no need for a valid
// inference graph — the memo only hashes content).
func memoModel(name string) *quant.Model {
	return &quant.Model{Name: name, InShape: [3]int{1, 1, 4}, NumClasses: 2}
}

// dev is a baseline Tier-1-addressable device for key tests.
func dev() Device {
	return Device{
		Engine:           "sonic",
		VoltageOblivious: true,
		Model:            memoModel("m"),
		Input:            []fixed.Q15{1, 2, 3},
		Config:           harvest.PaperConfig(),
		Profile:          harvest.SquareProfile{PeakWatts: 5e-3, Period: 0.1, Duty: 0.5},
	}
}

func probe(t *testing.T, d Device) *Probe {
	t.Helper()
	p, ok := NewProbe(d)
	if !ok {
		t.Fatal("probe rejected an addressable device")
	}
	return p
}

func TestProbeRejectsUnaddressable(t *testing.T) {
	rejected := map[string]func(*Device){
		"nil model":   func(d *Device) { d.Model = nil },
		"nil profile": func(d *Device) { d.Profile = nil },
		// The capacitor rejects a pointer profile: keying it risks a false hit.
		"pointer profile": func(d *Device) {
			d.Profile = &harvest.SquareProfile{PeakWatts: 5e-3, Period: 0.1, Duty: 0.5}
		},
		"nil trace": func(d *Device) { d.Profile = (*harvest.TraceProfile)(nil) },
		// An engine outside core.AllEngines has no key code.
		"empty engine":    func(d *Device) { d.Engine = "" },
		"unknown engine":  func(d *Device) { d.Engine = "warp" },
		"engine case":     func(d *Device) { d.Engine = "ACE" },
		"engine trailing": func(d *Device) { d.Engine = "ace+flex " },
	}
	for name, mut := range rejected {
		d := dev()
		mut(&d)
		if _, ok := NewProbe(d); ok {
			t.Errorf("NewProbe accepted a device with a %s", name)
		}
		var p Probe
		if p.Reset(d) {
			t.Errorf("Reset accepted a device with a %s", name)
		}
	}
	var p Probe
	want := probe(t, dev())
	if !p.Reset(dev()) || p.full() != want.full() || p.trajectory() != want.trajectory() || p.prediction() != want.prediction() {
		t.Error("Reset and NewProbe build different keys")
	}
}

// TestFingerprintSensitivity: every field outside the compute stream
// must move the Tier-1 key; equal devices must share it.
func TestFingerprintSensitivity(t *testing.T) {
	base := probe(t, dev()).full()
	if probe(t, dev()).full() != base {
		t.Fatal("equal devices got different Tier-1 keys")
	}
	mutations := []struct {
		name string
		mut  func(*Device)
	}{
		{"engine", func(d *Device) { d.Engine = "tails" }},
		{"model", func(d *Device) { d.Model = memoModel("other") }},
		{"input", func(d *Device) { d.Input = []fixed.Q15{9} }},
		{"capacitance", func(d *Device) { d.Config.CapacitanceF = 220e-6 }},
		{"v-on", func(d *Device) { d.Config.VOn = 3.2 }},
		{"leakage", func(d *Device) { d.Config.LeakageW = 1e-6 }},
		{"profile power", func(d *Device) {
			d.Profile = harvest.SquareProfile{PeakWatts: 6e-3, Period: 0.1, Duty: 0.5}
		}},
		{"profile kind", func(d *Device) {
			d.Profile = harvest.SineProfile{PeakWatts: 5e-3, Period: 0.1}
		}},
		{"flex", func(d *Device) { d.Flex = &flex.Config{VWarn: 2.2, SampleStride: 4} }},
		{"runner", func(d *Device) { d.Runner = &intermittent.Runner{MaxBoots: 7} }},
	}
	for _, tc := range mutations {
		d := dev()
		tc.mut(&d)
		if probe(t, d).full() == base {
			t.Errorf("%s change did not move the Tier-1 key", tc.name)
		}
	}
}

// TestTraceFingerprint: content-addressed, not pointer-addressed —
// equal traces share keys, scaled traces do not.
func TestTraceFingerprint(t *testing.T) {
	mk := func() *harvest.TraceProfile {
		tr, err := harvest.NewTraceProfile([]float64{0, 1, 2}, []float64{1e-3, 2e-3, 1e-3}, true)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	a, b := mk(), mk()
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("equal traces fingerprint differently")
	}
	if a.Fingerprint() != a.Fingerprint() {
		t.Error("fingerprint not stable")
	}
	scaled, err := a.Scale(1.5)
	if err != nil {
		t.Fatal(err)
	}
	if scaled.Fingerprint() == a.Fingerprint() {
		t.Error("scaled trace shares the original's fingerprint")
	}
	da, db := dev(), dev()
	da.Profile, db.Profile = a, b
	if probe(t, da).full() != probe(t, db).full() {
		t.Error("devices on equal traces got different Tier-1 keys")
	}
}

func fullOutcome() Outcome {
	return Outcome{
		Profile:   "square",
		Completed: true,
		Predicted: 2,
		Boots:     3,
		ActiveSec: 0.01,
		WallSec:   0.25,
		EnergymJ:  0.012,
		Diagnosis: "completed",
	}
}

func TestTier1RoundTrip(t *testing.T) {
	m := New(16)
	p := probe(t, dev())
	if _, kind := m.Lookup(p); kind != Miss {
		t.Fatal("empty memo returned a hit")
	}
	want := fullOutcome()
	m.Fill(p, want)
	got, kind := m.Lookup(probe(t, dev()))
	if kind != HitFull {
		t.Fatalf("lookup = %v, want HitFull", kind)
	}
	if got != want {
		t.Fatalf("replayed outcome differs:\n%+v\nvs\n%+v", got, want)
	}
	s := m.Stats()
	if s.FullHits != 1 || s.Misses != 1 {
		t.Fatalf("stats %+v, want 1 full hit, 1 miss", s)
	}
}

// TestTrajectoryReplay: a clean outcome replays for every input of its
// class with that input's reference prediction, in the engine's BCM
// discipline; a stale one replays only for its own input. On the BCM
// golden model, input seed 58 has FFT argmax 3 and time-domain argmax
// 2, so a replay in the wrong discipline shows.
func TestTrajectoryReplay(t *testing.T) {
	m := exectest.Model(t, exectest.BCMArch(), 11)
	filled, probed := exectest.RandInput(64, 1), exectest.RandInput(64, 58)
	fft := exec.Argmax(quant.NewExecutor(m).Forward(probed))
	timeDomain := exec.Argmax(quant.NewTimeExecutor(m).Forward(probed))
	if fft == timeDomain {
		t.Fatalf("both disciplines predict %d; the input no longer tells them apart", fft)
	}
	device := func(engine string, in []fixed.Q15) Device {
		d := dev()
		d.Engine, d.Model, d.Input = engine, m, in
		return d
	}
	clean := fullOutcome()
	clean.Predicted = 99 // never replayed: the prediction comes from the reference
	clean.CleanResumes = true
	for engine, want := range map[string]int{"ace+flex": fft, "ace": fft, "tails": timeDomain} {
		mm := New(16)
		mm.Fill(probe(t, device(engine, filled)), clean)
		got, kind := mm.Lookup(probe(t, device(engine, probed)))
		if kind != HitFull || got.Predicted != want {
			t.Errorf("%s: lookup %v predicted %d, want HitFull predicting %d", engine, kind, got.Predicted, want)
		}
		got.Predicted = clean.Predicted
		if got != clean {
			t.Errorf("%s: replayed %+v, filled %+v", engine, got, clean)
		}
		if _, kind := mm.Lookup(probe(t, device(engine, probed[:63]))); kind != Miss {
			t.Errorf("%s: an input of another length hit the trajectory (%v)", engine, kind)
		}
	}

	mm := New(16)
	dnf := Outcome{Diagnosis: "frozen-progress", Predicted: -1, Boots: 9, CleanResumes: true}
	mm.Fill(probe(t, device("sonic", filled)), dnf)
	if got, kind := mm.Lookup(probe(t, device("sonic", probed))); kind != HitFull || got != dnf {
		t.Errorf("DNF replay = %v %+v, want HitFull %+v", kind, got, dnf)
	}

	mm = New(16)
	stale := fullOutcome()
	mm.Fill(probe(t, device("ace+flex", filled)), stale)
	if _, kind := mm.Lookup(probe(t, device("ace+flex", probed))); kind != Miss {
		t.Errorf("a stale-resume outcome replayed for another input (%v)", kind)
	}
	if got, kind := mm.Lookup(probe(t, device("ace+flex", filled))); kind != HitFull || got != stale {
		t.Errorf("stale outcome for its own input = %v %+v, want HitFull %+v", kind, got, stale)
	}
}

// TestTier2ComputeHit: a boot-0 completion of a voltage-oblivious
// engine must serve devices on other waveforms — when, and only when,
// the run provably fits their single charge.
func TestTier2ComputeHit(t *testing.T) {
	m := New(16)
	p := probe(t, dev())
	// tinyRun fits easily: ~12 µJ + leakage 0 vs ~0.38 mJ usable.
	tiny := Outcome{Completed: true, Predicted: 1, ActiveSec: 0.003, EnergymJ: 0.012, Diagnosis: "completed"}
	m.Fill(p, tiny)

	other := dev()
	other.Profile = harvest.SineProfile{PeakWatts: 4e-3, Period: 0.2} // different waveform: Tier 1 misses
	got, kind := m.Lookup(probe(t, other))
	if kind != HitCompute {
		t.Fatalf("lookup = %v, want HitCompute", kind)
	}
	want := Outcome{
		Completed: true, Predicted: 1,
		ActiveSec: tiny.ActiveSec, WallSec: tiny.ActiveSec, EnergymJ: tiny.EnergymJ,
		Diagnosis: string(intermittent.DiagCompleted), CleanResumes: true,
	}
	if got != want {
		t.Fatalf("synthesized outcome:\n%+v\nwant\n%+v", got, want)
	}

	// A device whose capacitor cannot hold the whole run must simulate.
	starved := other
	starved.Config.CapacitanceF = 2e-6 // usable ~7.6 µJ < 12 µJ needed
	if _, kind := m.Lookup(probe(t, starved)); kind != Miss {
		t.Fatal("compute hit served beyond the single-charge budget")
	}

	// Leakage burned over the active time counts against the budget.
	leaky := other
	leaky.Config.LeakageW = 1 // 3 ms at 1 W dwarfs the usable charge
	if _, kind := m.Lookup(probe(t, leaky)); kind != Miss {
		t.Fatal("compute hit ignored leakage")
	}
}

// TestTier2Exclusions: multi-boot runs, errored runs and
// voltage-aware engines must never populate or serve Tier 2.
func TestTier2Exclusions(t *testing.T) {
	lookupOther := func(m *Memo, base Device) HitKind {
		other := base
		other.Profile = harvest.SineProfile{PeakWatts: 4e-3, Period: 0.2}
		_, kind := m.Lookup(probe(t, other))
		return kind
	}

	m := New(16)
	multi := fullOutcome() // Boots: 3 — harvest-dependent
	m.Fill(probe(t, dev()), multi)
	if kind := lookupOther(m, dev()); kind != Miss {
		t.Fatalf("multi-boot outcome leaked into Tier 2 (%v)", kind)
	}

	m = New(16)
	bad := Outcome{Completed: true, ActiveSec: 0.003, EnergymJ: 0.012, Err: fmt.Errorf("dnf")}
	m.Fill(probe(t, dev()), bad)
	if kind := lookupOther(m, dev()); kind != Miss {
		t.Fatalf("errored outcome leaked into Tier 2 (%v)", kind)
	}

	m = New(16)
	fx := dev()
	fx.Engine = "ace+flex"
	fx.VoltageOblivious = false
	m.Fill(probe(t, fx), Outcome{Completed: true, ActiveSec: 0.003, EnergymJ: 0.012})
	if kind := lookupOther(m, fx); kind != Miss {
		t.Fatalf("voltage-aware engine served a compute hit (%v)", kind)
	}
}

// TestFirstWriterWins: a racing second fill must not replace the
// outcome readers may already have replayed.
func TestFirstWriterWins(t *testing.T) {
	m := New(16)
	p := probe(t, dev())
	first := fullOutcome()
	second := fullOutcome()
	second.Predicted = 9
	m.Fill(p, first)
	m.Fill(p, second)
	got, kind := m.Lookup(p)
	if kind != HitFull || got != first {
		t.Fatalf("second fill replaced the first: %+v", got)
	}
}

// TestEvictionRefill: an evicted key misses, refills, and replays the
// same outcome — the LRU only trades host time, never results.
func TestEvictionRefill(t *testing.T) {
	m := New(1)
	a := probe(t, dev())
	b := dev()
	b.Input = []fixed.Q15{7, 7}
	m.Fill(a, fullOutcome())
	m.Fill(probe(t, b), Outcome{Completed: true, Predicted: 0})
	if _, kind := m.Lookup(a); kind != Miss {
		t.Fatal("evicted key still hit")
	}
	m.Fill(a, fullOutcome())
	got, kind := m.Lookup(a)
	if kind != HitFull || got != fullOutcome() {
		t.Fatalf("refilled outcome differs: %+v", got)
	}
	if s := m.Stats(); s.Evictions == 0 {
		t.Fatal("evictions not counted")
	}
}

func TestMemoConcurrent(t *testing.T) {
	m := New(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d := dev()
				d.Input = []fixed.Q15{fixed.Q15(i % 32)}
				p := probe(t, d)
				if _, kind := m.Lookup(p); kind == Miss {
					m.Fill(p, fullOutcome())
				}
			}
		}(g)
	}
	wg.Wait()
	s := m.Stats()
	if s.Hits()+s.Misses != 8*200 {
		t.Fatalf("hits %d + misses %d != lookups %d", s.Hits(), s.Misses, 8*200)
	}
}

func TestHitKindString(t *testing.T) {
	for kind, want := range map[HitKind]string{Miss: "miss", HitFull: "hit-full", HitCompute: "hit-compute"} {
		if kind.String() != want {
			t.Errorf("%d.String() = %q, want %q", kind, kind.String(), want)
		}
	}
}

// TestLookupReportsTier: after a Lookup, the probe reports a
// trajectory-tier hit as such, and an input-keyed hit, a compute hit
// or a miss as not, so a caller records only class outcomes.
func TestLookupReportsTier(t *testing.T) {
	m := New(16)
	clean := dev()
	m.Fill(probe(t, clean), Outcome{Completed: true, Boots: 2, Diagnosis: "completed", CleanResumes: true})
	stale := dev()
	stale.Config.CapacitanceF *= 2
	m.Fill(probe(t, stale), Outcome{Completed: true, Predicted: 1, Boots: 3, Diagnosis: "completed"})
	tiny := dev()
	tiny.Config.CapacitanceF *= 4
	m.Fill(probe(t, tiny), Outcome{Completed: true, Predicted: 1, ActiveSec: 0.003, EnergymJ: 0.012, Diagnosis: "completed"})
	other := tiny
	other.Profile = harvest.SineProfile{PeakWatts: 4e-3, Period: 0.2}
	fresh := dev()
	fresh.Input = []fixed.Q15{4, 5, 6}
	fresh.Config.LeakageW = 1e-6
	for _, c := range []struct {
		name string
		d    Device
		kind HitKind
		traj bool
	}{
		{"trajectory", clean, HitFull, true},
		{"input-keyed", stale, HitFull, false},
		{"compute", other, HitCompute, false},
		{"miss", fresh, Miss, false},
	} {
		p := probe(t, c.d)
		if _, kind := m.Lookup(p); kind != c.kind || p.HitTrajectory() != c.traj {
			t.Errorf("%s: lookup %v, trajectory tier %v; want %v, %v", c.name, kind, p.HitTrajectory(), c.kind, c.traj)
		}
	}
}
