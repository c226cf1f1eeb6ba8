package exec_test

import (
	"testing"

	"ehdl/internal/device"
	"ehdl/internal/exec"
	"ehdl/internal/exec/exectest"
	"ehdl/internal/fixed"
	"ehdl/internal/intermittent"
	"ehdl/internal/nn"
	"ehdl/internal/quant"
)

// faultSupply browns out at an exact charged-operation index and
// recharges instantly — single-fault injection at every possible cut
// point. The rail voltage sags below typical VWarn settings for
// warnWindow draws before the failure, so on-demand checkpointing
// engines commit exactly as they would on a draining capacitor; the
// failure can then land INSIDE a checkpoint, which is precisely the
// torn-commit scenario that once produced a double-accumulation bug
// in FLEX (old control word + new accumulator).
type faultSupply struct {
	n          int
	failAt     int
	warnWindow int
}

func (s *faultSupply) Draw(nJ, dt float64) bool {
	s.n++
	return s.n != s.failAt
}

func (s *faultSupply) Voltage() float64 {
	if s.failAt > s.n && s.failAt-s.n <= s.warnWindow {
		return 2.0
	}
	return 3.3
}

func (s *faultSupply) Recharge() (float64, bool) { return 1e-3, true }

func bcmOnlyArch() *nn.Arch {
	return &nn.Arch{
		Name: "bcm-only", InShape: [3]int{1, 1, 36}, NumClasses: 4,
		Specs: []nn.LayerSpec{
			{Kind: "bcm", In: 36, Out: 16, K: 8},
		},
	}
}

// runFaultSweep executes one engine under a single injected fault at
// every possible draw index and checks bit-exactness against want.
func runFaultSweep(t *testing.T, f engineFactory, m *quant.Model, in, want []fixed.Q15) {
	t.Helper()
	// Count the clean run's draws.
	probe := &faultSupply{failAt: -1, warnWindow: 40}
	d := device.New(device.DefaultCosts(), probe)
	store, err := exec.NewModelStore(d, m)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := f.make(d, store, in)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Boot(d); err != nil {
		t.Fatal(err)
	}
	total := probe.n

	for fail := 1; fail <= total; fail++ {
		supply := &faultSupply{failAt: fail, warnWindow: 40}
		d := device.New(device.DefaultCosts(), supply)
		store, err := exec.NewModelStore(d, m)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := f.make(d, store, in)
		if err != nil {
			t.Fatal(err)
		}
		rep := exec.RunIntermittent(d, eng, &intermittent.Runner{})
		if !rep.Intermittent.Completed {
			t.Fatalf("%s failAt=%d: did not complete: %+v", f.name, fail, rep.Intermittent)
		}
		for i := range want {
			if rep.Logits[i] != want[i] {
				t.Fatalf("%s failAt=%d: logit %d = %d, want %d",
					f.name, fail, i, rep.Logits[i], want[i])
			}
		}
	}
}

// TestExhaustiveFaultInjectionBCMOnly sweeps a fault across every
// charged operation of a pure BCM layer — the FLEX stage machine's
// home turf.
func TestExhaustiveFaultInjectionBCMOnly(t *testing.T) {
	m := exectest.Model(t, bcmOnlyArch(), 11)
	in := exectest.RandInput(36, 7)
	for _, f := range factories(t) {
		if f.name == "base" || f.name == "ace" {
			continue // no intermittent support
		}
		want := refFor(f, m).Forward(in)
		runFaultSweep(t, f, m, in, want)
	}
}

// TestExhaustiveFaultInjectionFullModel sweeps a fault across every
// charged operation of the full conv/pool/relu/bcm/dense stack for
// every checkpointing engine. On the archs these sweeps cover
// (exectest.BCMArch here, bcmOnlyArch above), no cut point — including
// inside a checkpoint commit — changes a single output bit. That does
// not hold for every model: on exectest.DenseArch(), which no sweep
// here runs, ACE+FLEX finishes with wrong logits at 20–23 of its 873
// single-fault cut points (its clobbered-input resume, ROADMAP item 1).
func TestExhaustiveFaultInjectionFullModel(t *testing.T) {
	if testing.Short() {
		t.Skip("fault sweep is thorough but slow")
	}
	m := exectest.Model(t, exectest.BCMArch(), 11)
	in := exectest.RandInput(64, 7)
	for _, f := range factories(t) {
		if f.name == "base" || f.name == "ace" {
			continue
		}
		want := refFor(f, m).Forward(in)
		runFaultSweep(t, f, m, in, want)
	}
}
