// Package intermittent drives a program across power failures: it
// boots the program, catches the device.PowerFailure panic when the
// capacitor browns out, recharges (wiping SRAM, keeping FRAM), and
// boots again — the life of a batteryless sensor node.
//
// Programs must be written intermittent-style: Boot is the reset
// vector, called afresh after every outage, and any progress that
// should survive must already be in FRAM. A program without persistent
// progress (BASE, plain ACE) simply restarts from scratch each boot;
// if one inference needs more energy than a full capacitor holds, it
// can never complete — the runner detects the stagnation and reports
// a DNF, reproducing the "X" entries of Fig. 7(b).
//
// # The boot ledger
//
// The runner keeps a bounded ring of BootRecord entries — one per
// boot, carrying the boot's active cycles, per-category energy draw,
// reported progress delta, and the persistent-write ledger (count and
// order-sensitive signature of every committed FRAM write — buffer
// positions and values both, so positional progress counts —
// maintained by the device). DNF verdicts are decided on that ledger,
// not on guesswork:
//
//   - A failed boot that committed zero persistent writes provably
//     made no progress: everything volatile died with the outage.
//   - A failed boot whose persistent-write log is identical to the
//     previous failed boot's re-committed exactly the same state: the
//     program is re-executing the same work.
//   - A ProgressReporter whose counter froze is stagnant only when the
//     write ledger agrees (zero writes, or a write log that merely
//     re-commits the previous boot's positions and values) — a program
//     persisting fresh state through the device NV types is never
//     declared stuck, whatever its counter says. State written through
//     raw buffers with bare FRAM charges is visible to the ledger only
//     as a word count (the NV types are the documented home for
//     persistent progress — see the exec package's engine discipline),
//     so a frozen-counter program persisting exclusively that way is
//     judged by its counter, like the seed runner judged everything.
//
// StagnationLimit consecutive boots of such evidence yield ErrStagnant
// with a typed Diagnosis naming which verdict fired and on how much
// evidence. A reporterless checkpointing program with a regular
// per-boot cost — the case the old active-cycle fingerprint heuristic
// misdetected — advances its write log every boot and therefore runs
// to completion, however many boots it needs.
//
// # Analytic fast-forward
//
// On a phase-anchored harvest supply (harvest.Capacitor under a
// periodic or constant profile: anything but a hold-last trace), a
// steady run reaches an
// exact fixed point: the supply token (stored-energy and profile-phase
// bits) repeats at boot start and the ledger records become
// bit-identical. Once the runner observes two consecutive identical
// boot cycles at a repeated token, it can jump: device stats, supply
// meters and the program's persistent progress advance by k boots in
// one step (per-boot deltas replayed fold by fold, so the totals are
// bit-identical to simulating every boot), then simulation resumes for
// the final boots. Programs opt in to completion jumps by implementing
// Skippable. Thousand-boot slow-harvest runs cost a handful of simulated
// boots (see BenchmarkIntermittentFastForward).
package intermittent

import (
	"errors"
	"fmt"

	"ehdl/internal/device"
	"ehdl/internal/harvest"
)

// Program is an intermittent workload.
type Program interface {
	// Boot runs the program from power-on to completion or panic.
	// It is invoked again after every power failure.
	Boot(d *device.Device) error
}

// ProgressReporter lets the runner observe forward progress (any
// monotonically non-decreasing counter, e.g. FLEX's commit sequence).
// Programs that implement it get progress-aware stagnation verdicts
// and become eligible for the analytic fast-forward via Skippable.
type ProgressReporter interface {
	Progress() uint64
}

// Skippable marks a checkpointing program whose steady-state boots are
// homogeneous: between warm-up and the final boots, every boot
// performs the same charged work and advances the progress counter by
// the same delta, and the persistent state after k such boots depends
// only on the progress value. The runner never trusts the contract
// blindly — it first proves the homogeneity on the ledger (two
// consecutive bit-identical boot cycles at a repeated supply token)
// and re-checks the reported progress after every jump.
type Skippable interface {
	ProgressReporter
	// ProgressTarget returns the progress value at which Boot returns
	// instead of browning out.
	ProgressTarget() uint64
	// SkipBoots applies k boots of delta progress each directly to the
	// persistent state, uncharged, leaving the program exactly where
	// boot-by-boot execution would have (the runner replays the
	// charges on the device's ledger).
	SkipBoots(k, delta uint64)
}

// ErrStagnant is wrapped in Result.Err when the boot ledger proved
// StagnationLimit consecutive boots of zero persistent progress; the
// Diagnosis says which verdict fired.
var ErrStagnant = errors.New("intermittent: no forward progress across boots")

// ErrExhausted is wrapped in Result.Err when the supply could not
// recharge (harvesting source dead).
var ErrExhausted = errors.New("intermittent: supply cannot recharge")

// ErrBootLimit is wrapped in Result.Err when MaxBoots was reached.
var ErrBootLimit = errors.New("intermittent: boot limit reached")

// ErrProgressRegressed is wrapped in Result.Err when a
// ProgressReporter's counter moved backwards — a broken engine. The
// run is reported as a DNF row instead of panicking, so one buggy
// engine cannot crash a fleet sweep.
var ErrProgressRegressed = errors.New("intermittent: progress moved backwards")

// BootRecord is one boot ledger entry: what a single boot charged,
// wrote and reported, plus the recharge that followed it. Per-boot
// numbers come from device.BootStats, accumulated from zero each boot,
// so records of identical boots are bit-identical.
type BootRecord struct {
	// Boot is the 0-based boot index (0 = first charge).
	Boot uint64
	// Failed reports whether the boot ended in a power failure.
	Failed bool

	Cycles   uint64
	EnergynJ [device.NumCategories]float64
	// NVWrites / NVHash are the boot's persistent-write ledger: the
	// count of committed NV-typed word writes and the order-sensitive
	// FNV-1a signature over their values.
	NVWrites uint64
	NVHash   uint64
	// FRAMWriteWords counts every word charged to an FRAM write this
	// boot (superset of NVWrites; covers raw-buffer writers too).
	FRAMWriteWords uint64

	// Progress / Delta are the reported progress at boot end and its
	// advance over the previous boot (ProgressReporter programs only).
	Progress uint64
	Delta    uint64

	// OffSec is the recharge time after this boot; CycleHarvestJ the
	// gross energy harvested over the whole cycle (zero on the final
	// boot of a run — there is no recharge after it).
	OffSec        float64
	CycleHarvestJ float64

	// Token is the supply's cycle token at the start of this boot;
	// HasToken is false on supplies without a phase anchor.
	Token    harvest.CycleToken
	HasToken bool
}

// TotalnJ returns the boot's total energy draw.
func (r BootRecord) TotalnJ() float64 {
	var sum float64
	for _, e := range r.EnergynJ {
		sum += e
	}
	return sum
}

// DiagnosisKind names the decision behind a Result.
type DiagnosisKind string

// The diagnosis catalogue.
const (
	// DiagCompleted: Boot returned without error.
	DiagCompleted DiagnosisKind = "completed"
	// DiagProgramError: Boot returned the program's own error.
	DiagProgramError DiagnosisKind = "program-error"
	// DiagFrozenProgress: the reported progress counter froze while
	// the persistent-write ledger showed zero or identical writes.
	DiagFrozenProgress DiagnosisKind = "frozen-progress"
	// DiagNoPersistentWrites: consecutive failed boots committed no
	// persistent writes at all (reporterless restart-from-scratch).
	DiagNoPersistentWrites DiagnosisKind = "no-persistent-writes"
	// DiagIdenticalWrites: consecutive failed boots committed
	// bit-identical persistent-write logs (reporterless re-execution).
	DiagIdenticalWrites DiagnosisKind = "identical-writes"
	// DiagExhausted: the supply can never recharge.
	DiagExhausted DiagnosisKind = "exhausted"
	// DiagBootLimit: MaxBoots reached.
	DiagBootLimit DiagnosisKind = "boot-limit"
	// DiagProgressRegressed: the progress counter moved backwards.
	DiagProgressRegressed DiagnosisKind = "progress-regressed"
)

// Diagnosis explains a Result: which verdict ended the run and on what
// evidence.
type Diagnosis struct {
	Kind DiagnosisKind
	// Window is the number of consecutive evidence boots behind a
	// stagnation verdict.
	Window int
	// Progress is the final reported progress (reporters only).
	Progress uint64
	// FastForwarded counts boots skipped by the analytic fast-forward
	// (included in Result.Boots, absent from Result.Ledger).
	FastForwarded uint64
	// Detail is a human-readable elaboration.
	Detail string
}

// String renders the diagnosis for CLI output.
func (d Diagnosis) String() string {
	s := string(d.Kind)
	if d.Window > 0 {
		s += fmt.Sprintf(" [%d-boot window]", d.Window)
	}
	if d.FastForwarded > 0 {
		s += fmt.Sprintf(" [%d boots fast-forwarded]", d.FastForwarded)
	}
	if d.Detail != "" {
		s += ": " + d.Detail
	}
	return s
}

// Result describes one intermittent execution.
type Result struct {
	// Completed is true when Boot returned without a power failure.
	Completed bool
	// Boots is the number of power-failure restarts (0 = finished on
	// first charge), including analytically fast-forwarded boots.
	Boots uint64
	// Err is nil on completion, otherwise one of the sentinel errors
	// above (or the program's own error).
	Err error
	// Diagnosis explains the verdict.
	Diagnosis Diagnosis
	// Ledger holds the last LedgerDepth executed boots in
	// chronological order. Boots skipped by the analytic fast-forward
	// do not appear (they are exact copies of the steady record that
	// preceded them); Diagnosis.FastForwarded counts them.
	Ledger []BootRecord
}

// steadySupply is the supply surface the analytic fast-forward needs;
// harvest.Capacitor implements it.
type steadySupply interface {
	CycleToken() (harvest.CycleToken, bool)
	CycleHarvestJ() float64
	SkipSteadyCycles(k uint64, wallSec, cycleJ float64)
}

// Runner executes Programs across power cycles.
type Runner struct {
	// MaxBoots bounds the total number of restarts (safety net).
	// Zero means the default of 10000.
	MaxBoots uint64
	// StagnationLimit is the number of consecutive evidence boots
	// (zero or identical persistent writes, frozen progress) after
	// which a program is declared stuck. Zero means the default of 8.
	StagnationLimit int
	// NoFastForward disables the analytic fast-forward, simulating
	// every boot. Results are bit-identical either way (pinned by
	// TestFastForwardBitIdentical); this exists for that comparison
	// and for ledger-complete traces.
	NoFastForward bool
	// LedgerDepth bounds the BootRecord ring kept for Result.Ledger.
	// Zero means the default of 16 (at least 2 is always kept).
	LedgerDepth int
}

// Defaults.
const (
	defaultMaxBoots    = 10000
	defaultStagLimit   = 8
	defaultLedgerDepth = 16
	// skipMargin is how many provably-failing steady boots the
	// fast-forward leaves to real simulation before a completion, so
	// warm-down effects (the completing boot's different shape) are
	// executed, never extrapolated.
	skipMargin = 2
)

// Run drives p on d until completion, stagnation, exhaustion, or the
// boot limit. Non-PowerFailure panics propagate: they are bugs.
func (r *Runner) Run(d *device.Device, p Program) Result {
	maxBoots := r.MaxBoots
	if maxBoots == 0 {
		maxBoots = defaultMaxBoots
	}
	stagLimit := r.StagnationLimit
	if stagLimit == 0 {
		stagLimit = defaultStagLimit
	}
	depth := r.LedgerDepth
	if depth <= 0 {
		depth = defaultLedgerDepth
	}
	if depth < 2 {
		depth = 2
	}

	var (
		res                   Result
		ring                  = make([]BootRecord, depth) // circular, pushed rn times
		rn                    int
		reporter, hasReporter = p.(ProgressReporter)
		skipper, hasSkipper   = p.(Skippable)
		supply, _             = d.Supply().(steadySupply)

		lastProgress uint64
		stagnant     int
		stagKind     DiagnosisKind
		ffBoots      uint64

		// The last two completed boot cycles (failed boot + recharge),
		// for the steady-state fixed-point check.
		cycle1, cycle2 BootRecord
		haveCycles     int
	)

	push := func(rec BootRecord) {
		ring[rn%depth] = rec
		rn++
	}
	finish := func(err error, diag Diagnosis) Result {
		res.Err = err
		res.Boots = d.Stats().Boots
		diag.FastForwarded = ffBoots
		if hasReporter {
			diag.Progress = lastProgress
		}
		res.Diagnosis = diag
		// Materialize the ring chronologically, once.
		n := rn
		if n > depth {
			n = depth
		}
		res.Ledger = make([]BootRecord, n)
		for i := 0; i < n; i++ {
			res.Ledger[i] = ring[(rn-n+i)%depth]
		}
		return res
	}

	for {
		var tok harvest.CycleToken
		hasTok := false
		if supply != nil {
			tok, hasTok = supply.CycleToken()
		}
		err, failed := bootOnce(d, p)
		bs := d.BootStats()
		rec := BootRecord{
			Boot:           d.Stats().Boots,
			Failed:         failed,
			Cycles:         bs.Cycles,
			EnergynJ:       bs.Energy,
			NVWrites:       bs.NVWrites,
			NVHash:         bs.NVHash,
			FRAMWriteWords: bs.FRAMWriteWords,
			Token:          tok,
			HasToken:       hasTok,
		}
		if hasReporter {
			cur := reporter.Progress()
			rec.Progress = cur
			if cur >= lastProgress {
				rec.Delta = cur - lastProgress
			}
		}

		if !failed {
			push(rec)
			if hasReporter {
				lastProgress = rec.Progress
			}
			res.Completed = err == nil
			if err == nil {
				return finish(nil, Diagnosis{Kind: DiagCompleted})
			}
			return finish(err, Diagnosis{Kind: DiagProgramError, Detail: err.Error()})
		}

		// Power failure: judge the boot before recharging.
		if hasReporter && rec.Progress < lastProgress {
			push(rec)
			return finish(
				fmt.Errorf("%w (%d -> %d)", ErrProgressRegressed, lastProgress, rec.Progress),
				Diagnosis{Kind: DiagProgressRegressed,
					Detail: fmt.Sprintf("progress %d -> %d", lastProgress, rec.Progress)})
		}

		// Stagnation evidence: zero-persistent-progress verdicts from
		// the write ledger (see the package doc). For reporters, frozen
		// progress counts unless the write log proves fresh persistent
		// values were committed; reporterless programs need the hard
		// evidence (no writes at all, or bit-identical discharges).
		evidence := false
		var kind DiagnosisKind
		switch {
		case hasReporter && rec.Delta == 0 && !freshWrites(haveCycles > 0, cycle1, rec, bs):
			evidence, kind = true, DiagFrozenProgress
		case !hasReporter && rec.FRAMWriteWords == 0:
			evidence, kind = true, DiagNoPersistentWrites
		case !hasReporter && haveCycles > 0 && sameWriteLog(cycle1, rec):
			evidence, kind = true, DiagIdenticalWrites
		}
		if evidence {
			if kind != stagKind {
				// A change of evidence kind starts a fresh window, so
				// the verdict's window never mixes kinds.
				stagnant = 0
			}
			stagKind = kind
			stagnant++
		} else {
			stagnant = 0
		}
		if hasReporter {
			lastProgress = rec.Progress
		}
		if evidence && stagnant >= stagLimit {
			push(rec)
			return finish(
				fmt.Errorf("%w (%s)", ErrStagnant, stagnationDetail(stagKind, stagnant, rec)),
				Diagnosis{Kind: stagKind, Window: stagnant,
					Detail: stagnationDetail(stagKind, stagnant, rec)})
		}

		if d.Stats().Boots >= maxBoots {
			push(rec)
			return finish(
				fmt.Errorf("%w (%d)", ErrBootLimit, maxBoots),
				Diagnosis{Kind: DiagBootLimit})
		}
		if !d.Reboot() {
			push(rec)
			return finish(ErrExhausted, Diagnosis{Kind: DiagExhausted})
		}
		rec.OffSec = d.LastOffSeconds()
		if supply != nil {
			rec.CycleHarvestJ = supply.CycleHarvestJ()
		}
		push(rec)
		cycle2, cycle1 = cycle1, rec
		haveCycles++

		// Analytic fast-forward: a Skippable program that advances every
		// boot of a proven-periodic run jumps to its completion, minus
		// the margin.
		if r.NoFastForward || supply == nil || !hasSkipper || haveCycles < 2 ||
			cycle1.Delta == 0 || !steadyCycle(cycle2, cycle1) {
			continue
		}
		if curTok, ok := supply.CycleToken(); !ok || curTok != cycle1.Token {
			continue
		}
		var k uint64
		if target := skipper.ProgressTarget(); target > lastProgress {
			if full := (target - lastProgress) / cycle1.Delta; full > skipMargin {
				k = full - skipMargin
			}
		}
		if lim := maxBoots - d.Stats().Boots; k > lim {
			k = lim
		}
		if k == 0 {
			continue
		}
		d.ReplayBoots(k, device.BootStats{
			Cycles:         cycle1.Cycles,
			Energy:         cycle1.EnergynJ,
			NVWrites:       cycle1.NVWrites,
			FRAMWriteWords: cycle1.FRAMWriteWords,
		}, cycle1.OffSec)
		wall := float64(cycle1.Cycles)/d.Costs.ClockHz + cycle1.OffSec
		supply.SkipSteadyCycles(k, wall, cycle1.CycleHarvestJ)
		ffBoots += k // replayed already — count them on every exit path
		skipper.SkipBoots(k, cycle1.Delta)
		lastProgress += k * cycle1.Delta
		if got := reporter.Progress(); got != lastProgress {
			return finish(
				fmt.Errorf("intermittent: Skippable contract violated: progress %d after skipping %d boots, expected %d",
					got, k, lastProgress),
				Diagnosis{Kind: DiagProgramError,
					Detail: "SkipBoots did not advance progress as promised"})
		}
	}
}

// freshWrites reports whether boot rec provably committed persistent
// values its predecessor prev did not: an equal-length write log with
// a different hash, or a longer log whose hash at the predecessor's
// length already diverged. Re-execution of the same value sequence —
// however the two boots' budgets truncated it — is not fresh, and a
// shorter log cannot prove freshness. A frozen ProgressReporter whose
// boots commit fresh values this way is persisting state its counter
// does not cover, so the runner refuses to declare it stuck.
func freshWrites(havePrev bool, prev, rec BootRecord, bs device.BootStats) bool {
	if !havePrev || rec.FRAMWriteWords == 0 {
		return false
	}
	switch {
	case rec.NVWrites == prev.NVWrites:
		return rec.NVHash != prev.NVHash
	case rec.NVWrites > prev.NVWrites:
		return bs.NVHashAtPrevLen != prev.NVHash
	default:
		return false
	}
}

// sameWriteLog reports whether two boots committed bit-identical
// persistent-write logs and charged identical work — the exact
// re-execution test behind the stagnation verdicts.
func sameWriteLog(a, b BootRecord) bool {
	return a.Failed && b.Failed &&
		a.NVWrites == b.NVWrites && a.NVHash == b.NVHash &&
		a.FRAMWriteWords == b.FRAMWriteWords &&
		a.Cycles == b.Cycles && sameEnergy(a.EnergynJ, b.EnergynJ)
}

// steadyCycle reports whether two completed boot cycles are
// bit-identical in everything that determines the next cycle except
// the write values (which advance on checkpointing programs): charged
// work, energy vector, write counts, progress delta, recharge time,
// harvested energy, and the supply token they started from.
func steadyCycle(a, b BootRecord) bool {
	return a.Failed && b.Failed &&
		a.Cycles == b.Cycles && sameEnergy(a.EnergynJ, b.EnergynJ) &&
		a.NVWrites == b.NVWrites && a.FRAMWriteWords == b.FRAMWriteWords &&
		a.Delta == b.Delta &&
		a.OffSec == b.OffSec && a.CycleHarvestJ == b.CycleHarvestJ &&
		a.HasToken && b.HasToken && a.Token == b.Token
}

func sameEnergy(a, b [device.NumCategories]float64) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// stagnationDetail renders the evidence behind a stagnation verdict.
func stagnationDetail(kind DiagnosisKind, window int, rec BootRecord) string {
	switch kind {
	case DiagFrozenProgress:
		return fmt.Sprintf("progress stuck at %d for %d boots with no fresh persistent writes", rec.Progress, window)
	case DiagNoPersistentWrites:
		return fmt.Sprintf("%d consecutive discharges with zero persistent writes", window)
	default:
		return fmt.Sprintf("%d consecutive discharges with identical %d-word persistent-write logs", window, rec.NVWrites)
	}
}

// bootOnce runs one power cycle. failed=true means a PowerFailure
// interrupted Boot; any other panic is re-raised.
func bootOnce(d *device.Device, p Program) (err error, failed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(device.PowerFailure); ok {
				failed = true
				return
			}
			panic(r)
		}
	}()
	return p.Boot(d), false
}
