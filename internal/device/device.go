// Package device simulates the target microcontroller: an
// MSP430FR5994-class machine with a 16 MHz CPU, an 8 KB volatile SRAM,
// a 256 KB nonvolatile FRAM, a DMA engine and TI's Low-Energy
// Accelerator. Computation is performed natively in Go; the simulator
// accounts the *cost* of each operation in cycles and nanojoules, and
// mediates every joule through a power supply so that energy-harvesting
// brownouts interrupt execution exactly where the budget runs out.
//
// The charging discipline is: a runtime calls a charge method (CPUOp,
// LEAFFT, FRAMWrite, ...) immediately BEFORE applying the state change
// the charge pays for. If the supply cannot deliver, the charge call
// panics with PowerFailure before the mutation happens, so each charged
// chunk is atomic with respect to power loss — the granularity at which
// intermittent-computing systems reason about forward progress.
package device

import (
	"fmt"

	"ehdl/internal/fixed"
)

// PowerFailure is the panic value raised when the supply browns out
// mid-operation. The intermittent runner recovers it; nothing else
// should.
type PowerFailure struct{}

func (PowerFailure) String() string { return "power failure" }

// Supply mediates energy delivery. Implementations: harvest.Capacitor
// (intermittent) and Continuous (bench supply).
type Supply interface {
	// Draw removes nJ nanojoules over dt seconds of device activity,
	// harvesting in parallel if applicable. It reports false when the
	// stored energy fell below the brownout threshold, in which case
	// the draw did not complete.
	Draw(nJ float64, dt float64) bool
	// Voltage returns the current supply voltage, for FLEX's monitor.
	Voltage() float64
	// Recharge simulates device-off time until the supply can power a
	// boot again. It returns the off-time in seconds and false if the
	// supply can never recover (e.g. harvesting stopped). A false
	// return must be a verdict about the source, not a search-budget
	// artifact: harvest.Capacitor decides it analytically from the
	// profile's per-period energy versus its leakage.
	Recharge() (offTime float64, ok bool)
}

// Continuous is a bench power supply: infinite energy at a fixed
// voltage. The zero value is ready to use.
type Continuous struct{}

// Draw always succeeds.
func (Continuous) Draw(nJ, dt float64) bool { return true }

// Voltage reports a full rail.
func (Continuous) Voltage() float64 { return 3.3 }

// Recharge is instantaneous (and never needed).
func (Continuous) Recharge() (float64, bool) { return 0, true }

// Device is the simulated MCU. Not safe for concurrent use: the target
// is a single-core microcontroller and the simulation is synchronous.
//
// Accounting is grouped by boot: charges accumulate in per-boot
// counters that fold into the lifetime totals at each Reboot (and are
// summed on the fly by Stats). The grouping is what makes the
// intermittent runner's boot ledger exact: two boots executing the
// same op sequence produce bit-identical per-boot deltas regardless of
// how much history precedes them.
type Device struct {
	Costs  Costs
	supply Supply

	// Lifetime totals of sealed (completed) boots; the in-progress
	// boot lives in the boot* accumulators below until Reboot folds it.
	cycles   uint64
	energy   [NumCategories]float64 // nJ per category
	nvWrites uint64

	// Current-boot accumulators, reset at every Reboot.
	bootCycles     uint64
	bootEnergy     [NumCategories]float64
	bootNVWrites   uint64
	bootNVHash     uint64
	bootFRAMWrites uint64

	// Previous boot's write-log length, and the current boot's running
	// hash sampled at exactly that length — the prefix mark that lets
	// the runner tell re-execution (same positions and values, longer
	// or shorter truncation) from fresh persistent state. The previous
	// boot's final hash lives in the runner's own BootRecord ring.
	prevNVWrites uint64
	markNVHash   uint64

	offSeconds     float64 // accumulated recharge time
	lastOffSeconds float64 // off-time of the most recent Reboot
	boots          uint64  // number of reboots after power failures

	sramUsed  int
	sramZones []func() // wipers for volatile allocations
	framUsed  int
}

// New returns a Device with the given cost table powered by supply.
func New(costs Costs, supply Supply) *Device {
	return &Device{Costs: costs, supply: supply, bootNVHash: fnvOffset64, markNVHash: fnvOffset64}
}

// Consume charges cycles and nJ to category cat, drawing from the
// supply. It panics with PowerFailure when the supply browns out.
// Runtimes normally use the higher-level charge helpers in charges.go.
//
//ehdl:hotpath
func (d *Device) Consume(cat Category, cycles uint64, nJ float64) {
	dt := float64(cycles) / d.Costs.ClockHz
	if !d.supply.Draw(nJ, dt) {
		panic(PowerFailure{})
	}
	d.bootCycles += cycles
	d.bootEnergy[cat] += nJ
}

// Supply returns the power supply the device draws from — the
// intermittent runner reads harvest.Capacitor's cycle token and
// per-cycle harvest from it for the boot ledger.
func (d *Device) Supply() Supply { return d.supply }

// FNV-1a parameters for the persistent-write ledger hash.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// noteNVWord folds one committed 64-bit nonvolatile write into the
// current boot's write-log signature. The NV types in nv.go call it
// (and noteNVWords) after the charge succeeded and the mutation
// applied, so the signature covers exactly the writes that survived.
// NVWord control words carry no stable address, so only the value is
// hashed; buffer writes go through noteNVWords, which also folds the
// target position.
func (d *Device) noteNVWord(v uint64) {
	h := d.bootNVHash
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= fnvPrime64
		v >>= 8
	}
	d.bootNVHash = h
	d.bootNVWrites++
	if d.bootNVWrites == d.prevNVWrites {
		d.markNVHash = h
	}
}

// noteNVWords folds a committed chunk of Q15 nonvolatile buffer writes
// into the current boot's write-log signature: each word contributes
// its buffer position AND its value, so positional progress (a
// constant sentinel committed to an advancing slot) changes the
// signature just like a changing value does.
func (d *Device) noteNVWords(offset int, vals []fixed.Q15) {
	h := d.bootNVHash
	n := d.bootNVWrites
	for i, q := range vals {
		p := uint64(uint32(offset + i))
		for b := 0; b < 4; b++ {
			h ^= p & 0xff
			h *= fnvPrime64
			p >>= 8
		}
		v := uint64(uint16(q))
		h ^= v & 0xff
		h *= fnvPrime64
		h ^= v >> 8
		h *= fnvPrime64
		n++
		if n == d.prevNVWrites {
			d.markNVHash = h
		}
	}
	d.bootNVHash = h
	d.bootNVWrites = n
}

// BootStats is the accounting of the current boot alone: active
// cycles, per-category energy, and the persistent-write ledger (count
// and FNV-1a signature of every committed NV write, in program order).
// Per-boot deltas are accumulated from zero each boot, so two boots
// executing the same charged op sequence report bit-identical
// BootStats — the exactness the intermittent runner's DNF verdicts
// are built on.
type BootStats struct {
	Cycles   uint64
	Energy   [NumCategories]float64 // nJ
	NVWrites uint64
	NVHash   uint64
	// FRAMWriteWords counts every word charged to an FRAM write (CPU or
	// DMA driven) this boot — a superset of NVWrites that also covers
	// runtimes charging writes directly against Raw buffers, so "zero
	// persistent writes" is exact for every charge path.
	FRAMWriteWords uint64
	// NVHashAtPrevLen is this boot's running write-log hash sampled at
	// exactly the previous boot's write count. When this boot wrote at
	// least as many words, comparing it against the previous boot's
	// final NVHash tells re-execution of the same values (equal) from
	// fresh persistent state (different), independent of where either
	// boot's budget truncated the log.
	NVHashAtPrevLen uint64
}

// BootStats returns the in-progress boot's accounting. The
// intermittent runner snapshots it after each boot, before Reboot
// resets the accumulators.
func (d *Device) BootStats() BootStats {
	return BootStats{
		Cycles:          d.bootCycles,
		Energy:          d.bootEnergy,
		NVWrites:        d.bootNVWrites,
		NVHash:          d.bootNVHash,
		FRAMWriteWords:  d.bootFRAMWrites,
		NVHashAtPrevLen: d.markNVHash,
	}
}

// sealBoot folds the current boot's accumulators into the lifetime
// totals and resets them for the next boot.
func (d *Device) sealBoot() {
	d.cycles += d.bootCycles
	for c := range d.energy {
		d.energy[c] += d.bootEnergy[c]
	}
	d.nvWrites += d.bootNVWrites
	d.prevNVWrites = d.bootNVWrites
	d.markNVHash = fnvOffset64 // hash at length 0; crossings overwrite
	d.bootCycles = 0
	d.bootEnergy = [NumCategories]float64{}
	d.bootNVWrites = 0
	d.bootNVHash = fnvOffset64
	d.bootFRAMWrites = 0
}

// LastOffSeconds returns the recharge time of the most recent Reboot —
// the per-cycle off-time the intermittent runner records in its boot
// ledger.
func (d *Device) LastOffSeconds() float64 { return d.lastOffSeconds }

// Voltage samples the supply rail WITHOUT charging the ADC cost; use
// MonitorSample for a charged sample.
func (d *Device) Voltage() float64 { return d.supply.Voltage() }

// Reboot simulates a power-failure restart: recharge the supply, seal
// the finished boot's accounting, wipe every SRAM allocation, and
// count the boot. It returns false when the supply can never recover.
func (d *Device) Reboot() bool {
	off, ok := d.supply.Recharge()
	if !ok {
		return false
	}
	d.sealBoot()
	d.offSeconds += off
	d.lastOffSeconds = off
	d.boots++
	for _, wipe := range d.sramZones {
		wipe()
	}
	return true
}

// AllocSRAM registers a volatile allocation of n elements of wordBytes
// bytes each, returning an error when the 8 KB SRAM would overflow.
// The returned register function is called by the allocator below.
func (d *Device) reserveSRAM(bytes int, wipe func()) error {
	if d.sramUsed+bytes > d.Costs.SRAMBytes {
		return fmt.Errorf("device: SRAM overflow: %d B used, %d B requested, %d B capacity",
			d.sramUsed, bytes, d.Costs.SRAMBytes)
	}
	d.sramUsed += bytes
	d.sramZones = append(d.sramZones, wipe)
	return nil
}

// ReserveFRAM accounts a persistent allocation of the given size
// (model weights, checkpoint areas). It returns an error when the
// 256 KB FRAM would overflow — RAD's architecture search uses this as
// its hard constraint.
func (d *Device) ReserveFRAM(bytes int) error {
	if d.framUsed+bytes > d.Costs.FRAMBytes {
		return fmt.Errorf("device: FRAM overflow: %d B used, %d B requested, %d B capacity",
			d.framUsed, bytes, d.Costs.FRAMBytes)
	}
	d.framUsed += bytes
	return nil
}

// SRAMUsed returns the bytes of SRAM currently reserved.
func (d *Device) SRAMUsed() int { return d.sramUsed }

// FRAMUsed returns the bytes of FRAM currently reserved.
func (d *Device) FRAMUsed() int { return d.framUsed }

// Stats is a snapshot of the device's accounting.
type Stats struct {
	ActiveCycles  uint64
	ActiveSeconds float64
	OffSeconds    float64
	WallSeconds   float64
	Boots         uint64
	Energy        [NumCategories]float64 // nJ
	TotalEnergynJ float64
	// NVWrites counts every committed nonvolatile word write (the
	// persistent-write ledger the intermittent runner's DNF verdicts
	// read per boot).
	NVWrites uint64
}

// Stats returns the current accounting snapshot: sealed boots plus the
// in-progress boot's accumulators.
func (d *Device) Stats() Stats {
	s := Stats{
		ActiveCycles: d.cycles + d.bootCycles,
		OffSeconds:   d.offSeconds,
		Boots:        d.boots,
		NVWrites:     d.nvWrites + d.bootNVWrites,
	}
	s.ActiveSeconds = float64(s.ActiveCycles) / d.Costs.ClockHz
	for c := range s.Energy {
		s.Energy[c] = d.energy[c] + d.bootEnergy[c]
	}
	s.WallSeconds = s.ActiveSeconds + s.OffSeconds
	for _, e := range s.Energy {
		s.TotalEnergynJ += e
	}
	return s
}

// EnergymJ returns the total consumed energy in millijoules.
func (s Stats) EnergymJ() float64 { return s.TotalEnergynJ * 1e-6 }
