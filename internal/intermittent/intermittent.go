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
// Programs that implement it get progress-aware stagnation verdicts.
type ProgressReporter interface {
	Progress() uint64
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
	// Deprecated: always 0; bench/ still reads it (ROADMAP item 2)
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
	// first charge).
	Boots uint64
	// Err is nil on completion, otherwise one of the sentinel errors
	// above (or the program's own error).
	Err error
	// Diagnosis explains the verdict.
	Diagnosis Diagnosis
	// Ledger holds the last LedgerDepth boots in chronological order.
	Ledger []BootRecord
}

// cycleSupply is the supply surface the boot ledger records;
// harvest.Capacitor implements it.
type cycleSupply interface {
	CycleToken() (harvest.CycleToken, bool)
	CycleHarvestJ() float64
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
	// LedgerDepth bounds the BootRecord ring kept for Result.Ledger.
	// Zero means the default of 16 (at least 2 is always kept).
	LedgerDepth int
}

// Defaults.
const (
	defaultMaxBoots    = 10000
	defaultStagLimit   = 8
	defaultLedgerDepth = 16
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
		supply, _             = d.Supply().(cycleSupply)

		lastProgress uint64
		stagnant     int
		stagKind     DiagnosisKind

		// The last completed boot cycle (failed boot + recharge), the
		// predecessor the write-log verdicts compare against.
		prev     BootRecord
		havePrev bool
	)

	push := func(rec BootRecord) {
		ring[rn%depth] = rec
		rn++
	}
	finish := func(err error, diag Diagnosis) Result {
		res.Err = err
		res.Boots = d.Stats().Boots
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
		case hasReporter && rec.Delta == 0 && !freshWrites(havePrev, prev, rec, bs):
			evidence, kind = true, DiagFrozenProgress
		case !hasReporter && rec.FRAMWriteWords == 0:
			evidence, kind = true, DiagNoPersistentWrites
		case !hasReporter && havePrev && sameWriteLog(prev, rec):
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
		prev, havePrev = rec, true
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
