// Package tails reimplements TAILS [Gobieski et al., ASPLOS'19], the
// paper's hardware-accelerated intermittent baseline: SONIC's loop
// continuation at vector-op granularity, with the actual arithmetic
// done by the LEA over DMA-staged SRAM buffers. A power failure rolls
// execution back to the start of the in-flight vector operation — at
// most one kernel window or one FC row chunk — because the LEA's SRAM
// operands are volatile. TAILS runs the uncompressed model: the FFT
// tricks that make BCM profitable need FLEX-style stage checkpointing
// it does not have (Fig. 6).
package tails

import (
	"fmt"

	"ehdl/internal/device"
	"ehdl/internal/exec"
	"ehdl/internal/fixed"
	"ehdl/internal/quant"
)

// controlOpsPerElement is the per-element task-transition overhead.
const controlOpsPerElement = 12

// Engine is the TAILS runtime for one inference.
type Engine struct {
	store *exec.ModelStore
	exec.Buffers

	// progress counts completed output elements (committed after each
	// vector op completes).
	progress device.NVWord
	// bcmState double-buffers the mid-row FIR state of a BCM block
	// row: [acc as 2k Q15 words | next j | element tag lo | tag hi].
	// Committed after every block so an outage rolls back at most one
	// FIR command.
	bcmState *device.NVDoubleQ15
	bcmMaxK  int
	// bcmRow is host-side scratch for packing and unpacking bcmState
	// rows; it models no SRAM and carries no charge.
	bcmRow []fixed.Q15

	// stage is the LEA's SRAM operands.
	stage exec.Stage

	elemBase []uint64
}

// New builds a TAILS engine over a flashed model store and input.
func New(d *device.Device, store *exec.ModelStore, input []fixed.Q15) (*Engine, error) {
	bufs, err := store.NewBuffers(d, input)
	if err != nil {
		return nil, fmt.Errorf("tails: %w", err)
	}
	e := &Engine{store: store, Buffers: bufs, elemBase: exec.ElemBases(store.Layers, elementCount)}
	if e.stage, err = store.NewStage(d); err != nil {
		return nil, err
	}
	if maxK := store.MaxK; maxK > 0 {
		if e.bcmState, err = device.NewNVDoubleQ15(d, 2*maxK+3); err != nil {
			return nil, err
		}
		e.bcmMaxK = maxK
		e.bcmRow = make([]fixed.Q15, 2*maxK+3)
	}
	if err := d.ReserveFRAM(8); err != nil {
		return nil, err
	}
	return e, nil
}

// elementCount is a layer's number of checkpointed tasks: one per
// output value, one per BCM block row (the FIR command produces k
// outputs), and one bulk copy for flatten.
func elementCount(l *exec.Layer) int {
	switch l.Kind {
	case exec.Flatten:
		return 1
	case exec.BCM:
		return (l.Spec.Out + l.Spec.K - 1) / l.Spec.K
	}
	return l.OutLen
}

// EngineName implements exec.Engine.
func (e *Engine) EngineName() string { return "tails" }

// Progress implements intermittent.ProgressReporter.
func (e *Engine) Progress() uint64 { return e.progress.Peek() }

// Boot implements intermittent.Program. TAILS re-stages weights and
// window per element: its tasks are self-contained so that any of
// them can be replayed.
func (e *Engine) Boot(d *device.Device) error {
	done := e.progress.Read(d, device.CatRestore)
	total := e.elemBase[len(e.elemBase)-1]
	for done < total {
		li := exec.LayerOf(e.elemBase, done)
		l := &e.store.Layers[li]
		in, out := e.LayerIn(li), e.Acts[li]
		elem := int(done - e.elemBase[li])
		switch l.Kind {
		case exec.Conv:
			exec.ConvElem(d, l, in, out, elem, &e.stage, controlOpsPerElement)
		case exec.Pool:
			exec.PoolElem(d, l, in, out, elem, controlOpsPerElement)
		case exec.ReLU:
			exec.ReLUElem(d, in, out, elem, 2+2)
		case exec.Flatten:
			exec.CopyDMA(d, in, out)
		case exec.Dense:
			exec.DenseRow(d, l, in, out, elem, &e.stage, controlOpsPerElement)
		case exec.BCM:
			e.bcmElem(d, l, in, out, elem)
		}
		done++
		e.progress.Write(d, device.CatCheckpoint, done)
	}
	return nil
}

// bcmElem computes one block row (k outputs) of a BCM layer with the
// LEA's FIR command and circular input addressing: each staged block
// pair (w_ij, x_j) is one k-tap filter over k circularly-addressed
// positions — k² MAC cycles, no FFT. This is how a TAILS-style runtime
// best exploits the compressed storage without Algorithm 1; it does
// O(k/log k) more arithmetic than ACE (Fig. 8 quantifies the gap).
// The FLEX-style stage intermediates do not exist here: a power
// failure mid-row rolls back to the row's start (Fig. 6, left).
func (e *Engine) bcmElem(d *device.Device, l *exec.Layer, in, out *device.NVQ15, elem int) {
	s := l.Spec
	k := s.K
	q := (s.In + k - 1) / k
	i := elem // element = block row index
	wRaw := l.Weights.Raw()
	xRaw := in.Raw()
	st := &e.stage

	d.CPUOps(controlOpsPerElement)
	scale := fixed.One
	if l.CosNorm {
		d.LEAMAC(s.In)
		d.CPUOps(60)
		scale = quant.InputScale(xRaw[:s.In], l.SIn)
	}
	// Row accumulators live in LEA SRAM for the duration of the row;
	// the committed copy in FRAM survives outages.
	acc := st.Acc[:k]
	j0 := e.restoreBCMRow(d, uint64(elem), acc)
	if j0 == 0 {
		for t := range acc {
			acc[t] = 0
		}
		d.SRAMAccess(k)
	}
	for j := j0; j < q; j++ {
		w := wRaw[(i*q+j)*k : (i*q+j+1)*k]
		lim := s.In - j*k
		if lim > k {
			lim = k
		}
		d.DMAFromFRAM(k, device.CatDMA)
		copy(st.W[:k], w)
		d.DMAFromFRAM(lim, device.CatDMA)
		copy(st.X[:lim], xRaw[j*k:j*k+lim])
		if l.CosNorm {
			d.LEAMAC(lim)
			fixed.ScaleVec(st.X[:lim], st.X[:lim], scale)
		}
		// One FIR command: k outputs × lim taps of MAC throughput.
		d.LEAMAC(k * lim)
		for r := 0; r < k; r++ {
			a := acc[r]
			for c := 0; c < lim; c++ {
				a = fixed.MAC(a, st.W[(r-c+k)%k], st.X[c])
			}
			acc[r] = a
		}
		e.commitBCMRow(d, uint64(elem), j+1, acc)
	}
	rowLen := k
	if rem := s.Out - i*k; rem < rowLen {
		rowLen = rem
	}
	d.FRAMRead(rowLen, device.CatFRAMRead) // biases
	d.CPUOps(2 * rowLen)
	bRaw := l.Bias.Raw()
	for r := 0; r < rowLen; r++ {
		v := fixed.SatAdd(fixed.NarrowQ31(acc[r], l.AccShift()), bRaw[i*k+r])
		st.W[r] = v
	}
	out.StoreDMA(d, device.CatFRAMWrite, i*k, st.W[:rowLen])
}

// commitBCMRow persists the FIR accumulators plus the next block
// index, tagged with the element they belong to, in one atomic
// double-buffered commit.
func (e *Engine) commitBCMRow(d *device.Device, tag uint64, nextJ int, acc []fixed.Q31) {
	k := e.bcmMaxK
	buf := e.bcmRow
	clear(buf[2*len(acc) : 2*k]) // a narrower layer commits zeros past acc
	for t, v := range acc {
		buf[2*t] = fixed.Q15(uint16(uint32(v)))
		buf[2*t+1] = fixed.Q15(int16(int32(v) >> 16))
	}
	buf[2*k] = fixed.Q15(int16(nextJ))
	buf[2*k+1] = fixed.Q15(uint16(uint32(tag)))
	buf[2*k+2] = fixed.Q15(uint16(uint32(tag) >> 16))
	e.bcmState.Commit(d, device.CatCheckpoint, buf)
}

// restoreBCMRow reloads mid-row FIR state for element tag, returning
// the block index to resume at (0 when no matching state exists).
func (e *Engine) restoreBCMRow(d *device.Device, tag uint64, acc []fixed.Q31) int {
	if e.bcmState.PeekSeq() == 0 {
		return 0 // nothing ever committed
	}
	k := e.bcmMaxK
	buf := e.bcmRow
	e.bcmState.Load(d, device.CatRestore, buf)
	saved := uint64(uint16(buf[2*k+1])) | uint64(uint16(buf[2*k+2]))<<16
	if saved != tag&0xFFFFFFFF {
		return 0
	}
	for t := range acc {
		lo := uint32(uint16(buf[2*t]))
		hi := uint32(uint16(buf[2*t+1])) << 16
		acc[t] = fixed.Q31(int32(hi | lo))
	}
	return int(int16(buf[2*k]))
}
