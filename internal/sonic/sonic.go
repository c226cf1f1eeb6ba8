// Package sonic reimplements SONIC [Gobieski et al., ASPLOS'19], the
// paper's software-only intermittent baseline: the uncompressed model
// computed element-wise on the CPU, with loop continuation — the loop
// control state and the running accumulator are committed to FRAM at a
// fine, fixed stride so that a power failure loses at most a few MAC
// iterations. The commits are exactly SONIC's cost: they tax every
// inner loop all the time, failure or not, which is why SONIC trails
// BASE under continuous power (Fig. 7(a)) yet finishes inferences that
// BASE never can (Fig. 7(b)).
package sonic

import (
	"fmt"

	"ehdl/internal/device"
	"ehdl/internal/exec"
	"ehdl/internal/fixed"
	"ehdl/internal/quant"
)

// commitStride is the number of MAC iterations between accumulator
// commits — SONIC's loop-continuation granularity.
const commitStride = 4

// controlOpsPerElement mirrors the baseline's loop overhead, plus
// SONIC's task-transition bookkeeping.
const controlOpsPerElement = 16

// Engine is the SONIC runtime for one inference.
type Engine struct {
	store *exec.ModelStore
	exec.Buffers

	// progress counts fully completed output elements across the whole
	// inference (monotonic; the runner watches it).
	progress device.NVWord
	// accWord holds the packed mid-element state: acc (32 bits) and
	// inner index (16 bits). accTag holds the global element index the
	// accWord belongs to. Written acc-first, tag-second, so a torn pair
	// is detected by tag mismatch and merely costs a fresh element.
	accWord device.NVWord
	accTag  device.NVWord
	// scaleWord caches the cosine-normalization input factor of the
	// BCM layer being executed, tagged by layer+1 (computing ‖x‖ per
	// output element would double SONIC's work; per layer it is
	// negligible). A stale or torn value merely causes a recompute.
	scaleWord device.NVWord

	// elemBase[li] is the global element index of layer li's first
	// output element; elemBase[len] is the total.
	elemBase []uint64
}

// New builds a SONIC engine over a flashed model store and input.
func New(d *device.Device, store *exec.ModelStore, input []fixed.Q15) (*Engine, error) {
	bufs, err := store.NewBuffers(d, input)
	if err != nil {
		return nil, fmt.Errorf("sonic: %w", err)
	}
	// Control state lives in FRAM.
	if err := d.ReserveFRAM(3 * 8); err != nil {
		return nil, err
	}
	return &Engine{store: store, Buffers: bufs, elemBase: exec.ElemBases(store.Layers, elementCount)}, nil
}

// elementCount returns the number of checkpointable output elements of
// a layer (one per output value; flatten is a bulk copy counted as a
// single element).
func elementCount(l *exec.Layer) int {
	if l.Kind == exec.Flatten {
		return 1
	}
	return l.OutLen
}

// EngineName implements exec.Engine.
func (e *Engine) EngineName() string { return "sonic" }

// Progress implements intermittent.ProgressReporter.
func (e *Engine) Progress() uint64 { return e.progress.Peek() }

// Boot implements intermittent.Program: resume from the committed
// element cursor.
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
			e.convElem(d, l, in, out, elem, done)
		case exec.Pool:
			exec.PoolElem(d, l, in, out, elem, controlOpsPerElement)
		case exec.ReLU:
			exec.ReLUElem(d, in, out, elem, 2+4) // compare plus SONIC task glue
		case exec.Flatten:
			// A CPU-driven bulk copy: SONIC has no DMA.
			d.FRAMRead(in.Len(), device.CatFRAMRead)
			d.FRAMWrite(in.Len(), device.CatFRAMWrite)
			copy(out.Raw(), in.Raw())
		case exec.Dense:
			e.denseElem(d, l, in, out, elem, done)
		case exec.BCM:
			e.bcmElem(d, li, l, in, out, elem, done)
		}
		done++
		e.progress.Write(d, device.CatCheckpoint, done)
	}
	return nil
}

// resumeAcc recovers the committed accumulator for element tag, if
// any.
func (e *Engine) resumeAcc(d *device.Device, tag uint64) (fixed.Q31, int) {
	savedTag := e.accTag.Read(d, device.CatRestore)
	if savedTag != tag {
		return 0, 0
	}
	w := e.accWord.Read(d, device.CatRestore)
	return fixed.Q31(int32(uint32(w >> 16))), int(uint16(w))
}

// commitAcc persists the mid-element accumulator: acc word first, tag
// second (torn pairs fail safe to a fresh element).
func (e *Engine) commitAcc(d *device.Device, tag uint64, acc fixed.Q31, inner int) {
	e.accWord.Write(d, device.CatCheckpoint, uint64(uint32(int32(acc)))<<16|uint64(uint16(inner)))
	e.accTag.Write(d, device.CatCheckpoint, tag)
}

// macRun performs the SONIC inner loop from index start: chunks of
// commitStride MACs, each charged and then committed.
func (e *Engine) macRun(d *device.Device, tag uint64, acc fixed.Q31, start int,
	w, x []fixed.Q15, xoff func(int) int) fixed.Q31 {
	return e.macRunFn(d, tag, acc, start, len(w), 0, func(k int) (fixed.Q15, fixed.Q15) {
		return w[k], x[xoff(k)]
	})
}

// macRunFn is macRun with fully general operand access: term(t)
// returns the t-th weight/activation pair. extraOps charges additional
// per-MAC index arithmetic (modular indexing for BCM rows).
func (e *Engine) macRunFn(d *device.Device, tag uint64, acc fixed.Q31, start, n, extraOps int,
	term func(int) (fixed.Q15, fixed.Q15)) fixed.Q31 {
	for i := start; i < n; i += commitStride {
		end := i + commitStride
		if end > n {
			end = n
		}
		d.FRAMRead(2*(end-i), device.CatFRAMRead)
		d.CPUMACs(end - i)
		if extraOps > 0 {
			d.CPUOps(extraOps * (end - i))
		}
		for k := i; k < end; k++ {
			wv, xv := term(k)
			acc = fixed.MAC(acc, wv, xv)
		}
		e.commitAcc(d, tag, acc, end)
	}
	return acc
}

func (e *Engine) convElem(d *device.Device, l *exec.Layer, in, out *device.NVQ15, elem int, tag uint64) {
	s := l.Spec
	oh := s.InH - s.KH + 1
	ow := s.InW - s.KW + 1
	oc := elem / (oh * ow)
	rem := elem % (oh * ow)
	oy := rem / ow
	ox := rem % ow
	offs := l.Offs
	win := len(offs)
	wRaw := l.Weights.Raw()
	xRaw := in.Raw()
	origin := oy*s.InW + ox

	d.CPUOps(controlOpsPerElement)
	acc, start := e.resumeAcc(d, tag)
	acc = e.macRun(d, tag, acc, start,
		wRaw[oc*win:(oc+1)*win], xRaw,
		func(k int) int { return origin + offs[k] })
	d.FRAMRead(1, device.CatFRAMRead) // bias
	v := fixed.SatAdd(fixed.NarrowQ31(acc, l.AccShift()), l.Bias.Raw()[oc])
	out.StoreOne(d, device.CatFRAMWrite, elem, v)
}

func (e *Engine) denseElem(d *device.Device, l *exec.Layer, in, out *device.NVQ15, elem int, tag uint64) {
	s := l.Spec
	wRaw := l.Weights.Raw()
	xRaw := in.Raw()

	d.CPUOps(controlOpsPerElement)
	acc, start := e.resumeAcc(d, tag)
	acc = e.macRun(d, tag, acc, start,
		wRaw[elem*s.In:(elem+1)*s.In], xRaw[:s.In],
		func(k int) int { return k })
	d.FRAMRead(1, device.CatFRAMRead)
	v := fixed.SatAdd(fixed.NarrowQ31(acc, l.AccShift()), l.Bias.Raw()[elem])
	out.StoreOne(d, device.CatFRAMWrite, elem, v)
}

// bcmElem computes one output row of a BCM layer in the time domain
// (SONIC has no FFT kernel; it streams MACs over the circulant
// generators with modular indexing, committing like any other loop).
func (e *Engine) bcmElem(d *device.Device, li int, l *exec.Layer, in, out *device.NVQ15, elem int, tag uint64) {
	s := l.Spec
	k := s.K
	q := (s.In + k - 1) / k
	rk := elem % k
	i := elem / k
	wRaw := l.Weights.Raw()
	xRaw := in.Raw()

	d.CPUOps(controlOpsPerElement)
	term := func(t int) (fixed.Q15, fixed.Q15) {
		j := t / k
		c := t % k
		return wRaw[(i*q+j)*k+(rk-c+k)%k], xRaw[t]
	}
	extraOps := 1
	if l.CosNorm {
		scale := e.layerScale(d, li, l, xRaw[:s.In])
		extraOps = 2
		term = func(t int) (fixed.Q15, fixed.Q15) {
			j := t / k
			c := t % k
			return wRaw[(i*q+j)*k+(rk-c+k)%k], fixed.Mul(xRaw[t], scale)
		}
	}
	acc, start := e.resumeAcc(d, tag)
	acc = e.macRunFn(d, tag, acc, start, s.In, extraOps, term)
	d.FRAMRead(1, device.CatFRAMRead)
	v := fixed.SatAdd(fixed.NarrowQ31(acc, l.AccShift()), l.Bias.Raw()[elem])
	out.StoreOne(d, device.CatFRAMWrite, elem, v)
}

// layerScale returns the cosine-normalization factor for layer li,
// computing and caching it in FRAM on first use.
func (e *Engine) layerScale(d *device.Device, li int, l *exec.Layer, x []fixed.Q15) fixed.Q15 {
	w := e.scaleWord.Read(d, device.CatRestore)
	if w>>16 == uint64(li+1) {
		return fixed.Q15(int16(uint16(w)))
	}
	d.CPUMACs(len(x))
	d.CPUOps(60)
	scale := quant.InputScale(x, l.SIn)
	e.scaleWord.Write(d, device.CatCheckpoint, uint64(li+1)<<16|uint64(uint16(scale)))
	return scale
}
