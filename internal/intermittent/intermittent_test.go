package intermittent

import (
	"errors"
	"testing"

	"ehdl/internal/device"
	"ehdl/internal/harvest"
)

// chunkProgram simulates a checkpointing workload: it must execute
// totalChunks chunks, each costing chunkOps CPU ops, and persists its
// position in an NVWord after each chunk.
type chunkProgram struct {
	pos         device.NVWord
	totalChunks uint64
	chunkOps    int
}

func (p *chunkProgram) Boot(d *device.Device) error {
	for {
		i := p.pos.Read(d, device.CatRestore)
		if i >= p.totalChunks {
			return nil
		}
		d.CPUOps(p.chunkOps)
		p.pos.Write(d, device.CatCheckpoint, i+1)
	}
}

func (p *chunkProgram) Progress() uint64 { return p.pos.Peek() }

// volatileProgram is BASE-like: all progress is in a local variable,
// lost on every boot.
type volatileProgram struct {
	totalOps int
}

func (p *volatileProgram) Boot(d *device.Device) error {
	for i := 0; i < p.totalOps; i += 100 {
		d.CPUOps(100)
	}
	return nil
}

func (p *volatileProgram) Progress() uint64 { return 0 }

func paperCap(t *testing.T, watts float64) *harvest.Capacitor {
	t.Helper()
	c, err := harvest.NewCapacitor(harvest.PaperConfig(), harvest.ConstantProfile{Watts: watts})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCompletesWithoutFailureOnContinuous(t *testing.T) {
	d := device.New(device.DefaultCosts(), device.Continuous{})
	p := &chunkProgram{totalChunks: 100, chunkOps: 1000}
	res := (&Runner{}).Run(d, p)
	if !res.Completed || res.Err != nil {
		t.Fatalf("result = %+v", res)
	}
	if res.Boots != 0 {
		t.Errorf("boots = %d, want 0", res.Boots)
	}
}

func TestCheckpointedProgramSurvivesOutages(t *testing.T) {
	// Budget per charge ≈ 0.38 mJ; each chunk costs 100k ops ≈ 36 µJ,
	// so ~10 chunks per charge; 100 chunks needs ~9 reboots.
	cap := paperCap(t, 5e-3)
	d := device.New(device.DefaultCosts(), cap)
	p := &chunkProgram{totalChunks: 100, chunkOps: 100000}
	res := (&Runner{}).Run(d, p)
	if !res.Completed {
		t.Fatalf("did not complete: %+v", res)
	}
	if res.Boots == 0 {
		t.Error("expected at least one power failure")
	}
	if p.pos.Peek() != 100 {
		t.Errorf("final position = %d, want 100", p.pos.Peek())
	}
}

func TestVolatileProgramStagnates(t *testing.T) {
	// One inference needs ~3.6 mJ; the capacitor holds ~0.38 mJ: DNF.
	cap := paperCap(t, 5e-3)
	d := device.New(device.DefaultCosts(), cap)
	p := &volatileProgram{totalOps: 10_000_000}
	res := (&Runner{}).Run(d, p)
	if res.Completed {
		t.Fatal("volatile program cannot complete on this budget")
	}
	if !errors.Is(res.Err, ErrStagnant) {
		t.Fatalf("err = %v, want ErrStagnant", res.Err)
	}
	// Stagnation should be detected quickly (default limit 8).
	if res.Boots > 10 {
		t.Errorf("took %d boots to detect stagnation", res.Boots)
	}
}

func TestVolatileProgramFitsInOneCharge(t *testing.T) {
	// A small enough workload completes within the first charge.
	cap := paperCap(t, 5e-3)
	d := device.New(device.DefaultCosts(), cap)
	p := &volatileProgram{totalOps: 10_000} // ~3.6 µJ
	res := (&Runner{}).Run(d, p)
	if !res.Completed {
		t.Fatalf("small volatile program should finish: %+v", res)
	}
}

func TestExhaustedSupply(t *testing.T) {
	cap := paperCap(t, 0) // dead source
	d := device.New(device.DefaultCosts(), cap)
	p := &chunkProgram{totalChunks: 1000, chunkOps: 100000}
	res := (&Runner{}).Run(d, p)
	if res.Completed {
		t.Fatal("cannot complete with dead source")
	}
	if !errors.Is(res.Err, ErrExhausted) {
		t.Fatalf("err = %v, want ErrExhausted", res.Err)
	}
}

func TestBootLimit(t *testing.T) {
	cap := paperCap(t, 5e-3)
	d := device.New(device.DefaultCosts(), cap)
	// No ProgressReporter stagnation (chunk program does progress),
	// but boot limit of 3 cuts a long run short.
	p := &chunkProgram{totalChunks: 100000, chunkOps: 100000}
	res := (&Runner{MaxBoots: 3}).Run(d, p)
	if res.Completed {
		t.Fatal("should have hit boot limit")
	}
	if !errors.Is(res.Err, ErrBootLimit) {
		t.Fatalf("err = %v, want ErrBootLimit", res.Err)
	}
}

// regressingProgram violates the monotonic progress invariant.
type regressingProgram struct {
	val  uint64
	down bool
}

func (p *regressingProgram) Boot(d *device.Device) error {
	if p.down {
		p.val = 0
	} else {
		p.val = 5
		p.down = true
	}
	for {
		d.CPUOps(1000) // burn until failure
	}
}

func (p *regressingProgram) Progress() uint64 { return p.val }

func TestProgressRegressionIsTypedDNF(t *testing.T) {
	// A broken engine whose progress counter moves backwards must
	// yield a DNF result, not crash the (potentially million-device)
	// sweep that contains it.
	cap := paperCap(t, 5e-3)
	d := device.New(device.DefaultCosts(), cap)
	res := (&Runner{}).Run(d, &regressingProgram{})
	if res.Completed {
		t.Fatal("regressing program marked completed")
	}
	if !errors.Is(res.Err, ErrProgressRegressed) {
		t.Fatalf("err = %v, want ErrProgressRegressed", res.Err)
	}
	if res.Diagnosis.Kind != DiagProgressRegressed {
		t.Errorf("diagnosis = %+v, want kind %s", res.Diagnosis, DiagProgressRegressed)
	}
}

// buggyProgram panics with a non-PowerFailure value.
type buggyProgram struct{}

func (buggyProgram) Boot(*device.Device) error { panic("index out of range") }

func TestNonPowerFailurePanicsPropagate(t *testing.T) {
	d := device.New(device.DefaultCosts(), device.Continuous{})
	defer func() {
		if r := recover(); r != "index out of range" {
			t.Errorf("recovered %v, want original panic", r)
		}
	}()
	(&Runner{}).Run(d, buggyProgram{})
}

// errorProgram returns a regular error from Boot.
type errorProgram struct{}

func (errorProgram) Boot(*device.Device) error { return errors.New("bad input") }

func TestProgramErrorReturned(t *testing.T) {
	d := device.New(device.DefaultCosts(), device.Continuous{})
	res := (&Runner{}).Run(d, errorProgram{})
	if res.Completed {
		t.Error("errored program marked completed")
	}
	if res.Err == nil || res.Err.Error() != "bad input" {
		t.Errorf("err = %v", res.Err)
	}
}

// silentVolatileProgram is BASE-like but does NOT implement
// ProgressReporter: the runner can only watch its discharges.
type silentVolatileProgram struct {
	totalOps int
}

func (p *silentVolatileProgram) Boot(d *device.Device) error {
	for i := 0; i < p.totalOps; i += 100 {
		d.CPUOps(100)
	}
	return nil
}

// silentChunkProgram checkpoints through FRAM but reports nothing.
type silentChunkProgram struct {
	pos         device.NVWord
	totalChunks uint64
	chunkOps    int
}

func (p *silentChunkProgram) Boot(d *device.Device) error {
	for {
		i := p.pos.Read(d, device.CatRestore)
		if i >= p.totalChunks {
			return nil
		}
		d.CPUOps(p.chunkOps)
		p.pos.Write(d, device.CatCheckpoint, i+1)
	}
}

func TestNonReporterStagnationDetected(t *testing.T) {
	// The package doc promises DNF detection for BASE-style programs;
	// without a ProgressReporter the runner must still catch the
	// repeated identical full-capacitor discharges well before the
	// 10000-boot safety net.
	cap := paperCap(t, 5e-3)
	d := device.New(device.DefaultCosts(), cap)
	p := &silentVolatileProgram{totalOps: 10_000_000}
	res := (&Runner{}).Run(d, p)
	if res.Completed {
		t.Fatal("silent volatile program cannot complete on this budget")
	}
	if !errors.Is(res.Err, ErrStagnant) {
		t.Fatalf("err = %v, want ErrStagnant", res.Err)
	}
	if res.Boots > 10 {
		t.Errorf("took %d boots to detect reporterless stagnation", res.Boots)
	}
}

func TestNonReporterCheckpointerCompletes(t *testing.T) {
	// A silent checkpointing program that needs fewer boots than
	// StagnationLimit must not be misdetected.
	cap := paperCap(t, 5e-3)
	d := device.New(device.DefaultCosts(), cap)
	p := &silentChunkProgram{totalChunks: 12, chunkOps: 100000}
	res := (&Runner{}).Run(d, p)
	if !res.Completed {
		t.Fatalf("silent checkpointer did not complete: %+v", res)
	}
	if p.pos.Peek() != 12 {
		t.Errorf("final position = %d, want 12", p.pos.Peek())
	}
}

func TestWastedWorkBounded(t *testing.T) {
	// With per-chunk commits, re-executed work per outage is at most
	// one chunk: total charged ops <= chunks*chunkOps + boots*(chunkOps+overhead).
	cap := paperCap(t, 5e-3)
	d := device.New(device.DefaultCosts(), cap)
	p := &chunkProgram{totalChunks: 50, chunkOps: 200000}
	res := (&Runner{}).Run(d, p)
	if !res.Completed {
		t.Fatalf("did not complete: %+v", res)
	}
	s := d.Stats()
	usefulOps := float64(50 * 200000)
	chargedCPU := s.Energy[device.CatCPU] / device.DefaultCosts().CPUCyclenJ
	maxWaste := float64(res.Boots+1) * 200000
	if chargedCPU > usefulOps+maxWaste {
		t.Errorf("charged %v op-cycles, useful %v, allowed waste %v",
			chargedCPU, usefulOps, maxWaste)
	}
}

// ------------------------------------------------------------------
// Ledger and diagnosis coverage.

// TestReporterlessCheckpointerManyBootsCompletes is the regression
// test for the documented misdetection of the old cycle-fingerprint
// heuristic: a reporterless checkpointing program with a fixed
// per-boot cost needing far more than StagnationLimit boots must
// complete — its advancing persistent-write log is the exact evidence
// of progress the fingerprint could not see.
func TestReporterlessCheckpointerManyBootsCompletes(t *testing.T) {
	cap := paperCap(t, 5e-3)
	d := device.New(device.DefaultCosts(), cap)
	// ~10 chunks per 0.38 mJ charge → ~25 boots, >> StagnationLimit 8.
	p := &silentChunkProgram{totalChunks: 250, chunkOps: 100000}
	res := (&Runner{}).Run(d, p)
	if !res.Completed {
		t.Fatalf("reporterless checkpointer misdetected: %+v (diagnosis %s)", res, res.Diagnosis)
	}
	if res.Boots <= 8 {
		t.Fatalf("boots = %d, want > StagnationLimit to exercise the fix", res.Boots)
	}
	if p.pos.Peek() != 250 {
		t.Errorf("final position = %d, want 250", p.pos.Peek())
	}
}

func TestDiagnosisKinds(t *testing.T) {
	mk := func(watts float64) *device.Device {
		return device.New(device.DefaultCosts(), paperCap(t, watts))
	}
	t.Run("completed", func(t *testing.T) {
		res := (&Runner{}).Run(mk(5e-3), &chunkProgram{totalChunks: 100, chunkOps: 100000})
		if res.Diagnosis.Kind != DiagCompleted {
			t.Fatalf("diagnosis = %s", res.Diagnosis)
		}
	})
	t.Run("frozen-progress", func(t *testing.T) {
		res := (&Runner{}).Run(mk(5e-3), &volatileProgram{totalOps: 10_000_000})
		if res.Diagnosis.Kind != DiagFrozenProgress {
			t.Fatalf("diagnosis = %s", res.Diagnosis)
		}
		if res.Diagnosis.Window < 8 {
			t.Errorf("window = %d, want >= StagnationLimit", res.Diagnosis.Window)
		}
	})
	t.Run("no-persistent-writes", func(t *testing.T) {
		res := (&Runner{}).Run(mk(5e-3), &silentVolatileProgram{totalOps: 10_000_000})
		if res.Diagnosis.Kind != DiagNoPersistentWrites {
			t.Fatalf("diagnosis = %s", res.Diagnosis)
		}
	})
	t.Run("exhausted", func(t *testing.T) {
		res := (&Runner{}).Run(mk(0), &chunkProgram{totalChunks: 1000, chunkOps: 100000})
		if res.Diagnosis.Kind != DiagExhausted {
			t.Fatalf("diagnosis = %s", res.Diagnosis)
		}
	})
	t.Run("boot-limit", func(t *testing.T) {
		res := (&Runner{MaxBoots: 3}).Run(mk(5e-3), &chunkProgram{totalChunks: 100000, chunkOps: 100000})
		if res.Diagnosis.Kind != DiagBootLimit {
			t.Fatalf("diagnosis = %s", res.Diagnosis)
		}
	})
}

// identicalRecommitProgram re-writes the same persistent value every
// boot without progressing — the exact "identical writes" stagnation
// case (e.g. a checkpointer whose single chunk never fits the budget).
type identicalRecommitProgram struct {
	pos device.NVWord
}

func (p *identicalRecommitProgram) Boot(d *device.Device) error {
	for {
		p.pos.Write(d, device.CatCheckpoint, 7)
		d.CPUOps(10000)
	}
}

func TestIdenticalWritesStagnationDetected(t *testing.T) {
	cap := paperCap(t, 5e-3)
	d := device.New(device.DefaultCosts(), cap)
	res := (&Runner{}).Run(d, &identicalRecommitProgram{})
	if res.Completed {
		t.Fatal("cannot complete")
	}
	if !errors.Is(res.Err, ErrStagnant) {
		t.Fatalf("err = %v, want ErrStagnant", res.Err)
	}
	if res.Diagnosis.Kind != DiagIdenticalWrites {
		t.Fatalf("diagnosis = %s, want %s", res.Diagnosis, DiagIdenticalWrites)
	}
	if res.Boots > 12 {
		t.Errorf("took %d boots", res.Boots)
	}
}

func TestLedgerBoundedAndChronological(t *testing.T) {
	cap := paperCap(t, 5e-3)
	d := device.New(device.DefaultCosts(), cap)
	res := (&Runner{LedgerDepth: 6}).Run(d,
		&chunkProgram{totalChunks: 200, chunkOps: 100000})
	if !res.Completed {
		t.Fatalf("did not complete: %+v", res)
	}
	if len(res.Ledger) != 6 {
		t.Fatalf("ledger holds %d records, want depth 6", len(res.Ledger))
	}
	for i, rec := range res.Ledger {
		if i > 0 && rec.Boot != res.Ledger[i-1].Boot+1 {
			t.Errorf("ledger not chronological: boot %d after %d", rec.Boot, res.Ledger[i-1].Boot)
		}
		if rec.Cycles == 0 {
			t.Errorf("record %d charged no cycles", i)
		}
	}
	last := res.Ledger[len(res.Ledger)-1]
	if last.Failed {
		t.Error("final record of a completed run marked failed")
	}
	if last.Boot != res.Boots {
		t.Errorf("final record boot %d, want %d", last.Boot, res.Boots)
	}
	// Failed records carry the recharge; the final one does not.
	for _, rec := range res.Ledger[:len(res.Ledger)-1] {
		if !rec.Failed || rec.OffSec <= 0 {
			t.Errorf("mid-run record %+v lacks recharge accounting", rec)
		}
	}
}

// TestLongHorizonSteadyCycles runs a thousand-boot weak-ambient
// completion boot by boot. On a constant profile, once warmed up,
// every failed boot and its recharge repeat bit for bit however late
// in the run they come: the ledger's steady records match in work,
// recharge, harvest and supply token. The boot count stays within the
// closed form of harvest.BootsToComplete, which charges every boot the
// full usable budget and ignores the energy harvested while the
// program runs.
func TestLongHorizonSteadyCycles(t *testing.T) {
	c, err := harvest.NewCapacitor(harvest.PaperConfig(), harvest.ConstantProfile{Watts: 5e-4})
	if err != nil {
		t.Fatal(err)
	}
	d := device.New(device.DefaultCosts(), c)
	p := &chunkProgram{totalChunks: 300000, chunkOps: 1000}
	res := (&Runner{MaxBoots: 100000, LedgerDepth: 8}).Run(d, p)
	if !res.Completed || p.pos.Peek() != p.totalChunks {
		t.Fatalf("did not complete: %+v (position %d)", res, p.pos.Peek())
	}
	if res.Boots < 1000 {
		t.Fatalf("boots = %d: workload too small to be long-horizon", res.Boots)
	}
	if bound := c.BootsToComplete(d.Stats().TotalEnergynJ * 1e-9); res.Boots > bound {
		t.Errorf("boots = %d, closed form allows at most %d", res.Boots, bound)
	}
	steady := res.Ledger[:len(res.Ledger)-1]
	for _, rec := range steady[1:] {
		ref := steady[0]
		if !rec.HasToken || rec.Token != ref.Token || rec.Cycles != ref.Cycles ||
			!sameEnergy(rec.EnergynJ, ref.EnergynJ) || rec.Delta != ref.Delta ||
			rec.OffSec != ref.OffSec || rec.CycleHarvestJ != ref.CycleHarvestJ {
			t.Fatalf("boot %d left the steady cycle:\n got %+v\nwant %+v", rec.Boot, rec, ref)
		}
	}
}
