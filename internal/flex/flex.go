// Package flex implements FLEX, the paper's on-demand robust
// checkpointing scheme (§III-C). Two mechanisms cooperate:
//
//   - A voltage monitor predicts power failures: between operations the
//     runtime samples the rail, and when it sinks below VWarn — i.e.
//     the capacitor is inside its last few tens of microjoules — FLEX
//     commits the latest intermediate state to FRAM. Under continuous
//     power the monitor never trips and FLEX costs almost nothing,
//     which is how ACE+FLEX stays within 1–2% of plain ACE (Fig. 7).
//
//   - For FFT-based BCM layers, the committed state is a control word
//     holding {layer, block row i, block column j, state bits b0–b2}
//     plus the double-buffered accumulator and, when mid-pipeline, the
//     stage intermediate (Fig. 6). On reboot the kernel resumes from
//     the interrupted stage instead of rolling back to the block's
//     first DMA — the progress TAILS-style loop-index checkpointing
//     would lose.
//
// For all other layers FLEX falls back to loop-index checkpointing:
// the control word records the completed element index; outputs are
// already in FRAM, so re-execution from that index is idempotent.
package flex

import (
	"fmt"

	"ehdl/internal/device"
	"ehdl/internal/fftfixed"
	"ehdl/internal/fixed"
)

// States stored in the control word's b0-b2 bits.
const (
	// StateElement marks an element boundary in a non-BCM layer
	// (loop-index checkpointing).
	StateElement uint8 = 0
	// StateBlockStart marks BCM block (i, j) not yet started; the
	// committed accumulator holds blocks [0, j).
	StateBlockStart uint8 = 1
	// StatePostMPY marks the element-wise multiply of block (i, j)
	// done; the committed intermediate is the product spectrum y′.
	StatePostMPY uint8 = 2
	// StatePostIFFT marks the inverse transform of block (i, j) done;
	// the committed intermediate is the real convolution vector y.
	StatePostIFFT uint8 = 3
)

// Config tunes the on-demand policy.
type Config struct {
	// VWarn is the rail voltage below which FLEX checkpoints. The
	// default 2.0 V leaves ~38 µJ of usable energy above the 1.8 V
	// brown-out on the paper's 100 µF capacitor — comfortably more
	// than the largest charged operation plus one checkpoint.
	VWarn float64
	// SampleStride is how many boundary crossings pass between
	// voltage samples (amortizes the ADC cost).
	SampleStride int
}

// DefaultConfig returns the policy used in the paper reproduction.
// With a 100 µF capacitor, VWarn 2.1 V leaves ½C(2.1²−1.8²) ≈ 58 µJ
// above brown-out; the worst unprotected window — four boundary
// crossings (heaviest: a 256-point FFT or a 1 K-word DMA, ~7 µJ each)
// plus one checkpoint (~12 µJ) — stays safely inside it.
func DefaultConfig() Config {
	return Config{VWarn: 2.1, SampleStride: 4}
}

// Snapshot is one resumable position with its live state.
type Snapshot struct {
	Layer int
	State uint8
	// Elem is the completed-element cursor for StateElement layers.
	Elem int
	// I, J locate the BCM block for the BCM states.
	I, J int
	// Pos is the engine's linear progress value (monotonic).
	Pos uint64

	// Acc is the BCM block-row accumulator (nil when not applicable).
	Acc []fixed.Q15
	// Inter is the stage intermediate for StatePostMPY (product
	// spectrum) or StatePostIFFT (real vector in the low half).
	Inter []fftfixed.Complex
}

// hdrWords is the checkpoint header size: four words of packed
// control state plus one flag word saying which payload regions are
// present.
const hdrWords = 5

// Payload-presence flags in the header's fifth word.
const (
	flagAcc   = 1 << 0
	flagInter = 1 << 1
)

// Controller owns FLEX's nonvolatile checkpoint state.
//
// All checkpoint state — control word, accumulator, stage intermediate
// — lives in ONE double-buffered commit, because a checkpoint torn
// across separate nonvolatile objects is a correctness trap: an outage
// between "new accumulator written" and "new control word written"
// would resume the OLD position with the NEW accumulator and silently
// double-count a block. The single selector flip makes the whole
// snapshot visible at once or not at all.
type Controller struct {
	cfg  Config
	maxK int

	// Nonvolatile: [ctrl (4 words) | flags (1) | acc (maxK) |
	// inter (2·maxK re/im)]. Commits write a prefix; the flags word
	// says how much is meaningful.
	state *device.NVDoubleQ15
	// scratch is host-side staging for packing and unpacking state
	// prefixes; it models no SRAM and carries no charge.
	scratch []fixed.Q15

	// Volatile caches, re-derived in Restore (or implicitly zero on a
	// fresh run). countdown is just a sampling phase; lastPos
	// suppresses duplicate commits of the same position.
	countdown  int
	lastPos    uint64
	havCommits bool
}

// NewController reserves FLEX's FRAM state for BCM blocks up to maxK.
// maxK of zero is allowed for models without BCM layers.
func NewController(d *device.Device, maxK int, cfg Config) (*Controller, error) {
	if cfg.VWarn <= 0 || cfg.SampleStride <= 0 {
		return nil, fmt.Errorf("flex: invalid config %+v", cfg)
	}
	c := &Controller{cfg: cfg, maxK: maxK, scratch: make([]fixed.Q15, hdrWords+3*maxK)}
	var err error
	c.state, err = device.NewNVDoubleQ15(d, hdrWords+3*maxK)
	if err != nil {
		return nil, err
	}
	return c, nil
}

// Control word layout:
// bit 63: valid; bits 48..55: layer; bits 32..47: J;
// bits 4..31: Elem or I; bits 0..3: state.
func packCtrl(s Snapshot) uint64 {
	idx := uint64(s.Elem)
	if s.State != StateElement {
		idx = uint64(s.I)
	}
	return 1<<63 | uint64(s.Layer)<<48 | uint64(uint16(s.J))<<32 |
		(idx&0xFFF_FFFF)<<4 | uint64(s.State&0xF)
}

func unpackCtrl(w uint64) (s Snapshot, valid bool) {
	if w>>63 == 0 {
		return Snapshot{}, false
	}
	s.Layer = int(w >> 48 & 0xFF)
	s.J = int(uint16(w >> 32))
	s.State = uint8(w & 0xF)
	idx := int(w >> 4 & 0xFFF_FFFF)
	if s.State == StateElement {
		s.Elem = idx
	} else {
		s.I = idx
	}
	return s, true
}

// Position returns the last committed linear progress (uncharged;
// used by the intermittent runner's stagnation detector).
func (c *Controller) Position() uint64 {
	if c.state.PeekSeq() == 0 {
		return 0
	}
	return c.lastPos
}

// Boundary is called by the engine at every resumable position with a
// closure producing the snapshot (built lazily: most boundaries do not
// checkpoint). It samples the voltage on the configured stride and
// commits when the rail is low and the position is new. The charge for
// the countdown bookkeeping is one CPU op.
func (c *Controller) Boundary(d *device.Device, pos uint64, snap func() Snapshot) {
	d.CPUOps(1)
	c.countdown--
	if c.countdown > 0 {
		return
	}
	c.countdown = c.cfg.SampleStride
	if d.MonitorSample() >= c.cfg.VWarn {
		return
	}
	if c.havCommits && pos == c.lastPos {
		return // this position is already safe
	}
	c.Commit(d, snap())
}

// Commit persists a snapshot unconditionally as one atomic
// double-buffered prefix write: an outage anywhere inside leaves the
// previous checkpoint fully intact.
func (c *Controller) Commit(d *device.Device, s Snapshot) {
	n := hdrWords
	if s.Acc != nil {
		n += c.maxK
	}
	if s.Inter != nil {
		n = hdrWords + 3*c.maxK
	}
	buf := c.scratch[:n]
	clear(buf) // absent or short payloads commit zeros
	w := packCtrl(s)
	buf[0] = fixed.Q15(uint16(w))
	buf[1] = fixed.Q15(uint16(w >> 16))
	buf[2] = fixed.Q15(uint16(w >> 32))
	buf[3] = fixed.Q15(uint16(w >> 48))
	flags := 0
	if s.Acc != nil {
		flags |= flagAcc
		copy(buf[hdrWords:hdrWords+c.maxK], s.Acc)
	}
	if s.Inter != nil {
		flags |= flagInter
		packComplex(buf[hdrWords+c.maxK:hdrWords+3*c.maxK], s.Inter)
	}
	buf[4] = fixed.Q15(uint16(flags))
	c.state.Commit(d, device.CatCheckpoint, buf)
	c.lastPos = s.Pos
	c.havCommits = true
}

// Restore reads the committed checkpoint header after a reboot. It
// returns ok=false on a fresh device (start from the beginning). The
// engine passes the snapshot's Pos back via pos so duplicate-commit
// suppression keeps working across reboots.
func (c *Controller) Restore(d *device.Device, pos func(Snapshot) uint64) (Snapshot, bool) {
	c.countdown = c.cfg.SampleStride
	if c.state.PeekSeq() == 0 {
		return Snapshot{}, false
	}
	hdr := c.scratch[:hdrWords]
	c.state.Load(d, device.CatRestore, hdr)
	w := uint64(uint16(hdr[0])) | uint64(uint16(hdr[1]))<<16 |
		uint64(uint16(hdr[2]))<<32 | uint64(uint16(hdr[3]))<<48
	s, ok := unpackCtrl(w)
	if !ok {
		return Snapshot{}, false
	}
	c.lastPos = pos(s)
	c.havCommits = true
	s.Pos = c.lastPos
	return s, true
}

// LoadAcc reloads the committed accumulator into dst (length ≤ maxK).
func (c *Controller) LoadAcc(d *device.Device, dst []fixed.Q15) {
	c.state.LoadAt(d, device.CatRestore, hdrWords, dst)
}

// LoadInter reloads the committed stage intermediate into dst
// (length ≤ maxK complex values).
func (c *Controller) LoadInter(d *device.Device, dst []fftfixed.Complex) {
	buf := c.scratch[:2*len(dst)]
	c.state.LoadAt(d, device.CatRestore, hdrWords+c.maxK, buf)
	unpackComplex(dst, buf)
}

func packComplex(dst []fixed.Q15, src []fftfixed.Complex) {
	for i, cv := range src {
		dst[2*i] = cv.Re
		dst[2*i+1] = cv.Im
	}
}

func unpackComplex(dst []fftfixed.Complex, src []fixed.Q15) {
	for i := range dst {
		dst[i] = fftfixed.Complex{Re: src[2*i], Im: src[2*i+1]}
	}
}
