// Package ace implements ACE, the paper's accelerator-enabled
// embedded inference runtime (§III-B): DMA bulk movement stages
// operands into SRAM, the LEA executes the vector work (MAC for
// convolutions and dense rows, FFT/MPY/IFFT for BCM layers per
// Algorithm 1), activations ping-pong between exactly two FRAM buffers
// (circular buffer convolution, Fig. 5), and all arithmetic is
// overflow-aware 16-bit fixed point.
//
// ACE optionally carries a FLEX controller; without one it has no
// intermittent support at all (the plain-ACE "X" column of Fig. 7(b)),
// with one it resumes mid-BCM-block from the committed stage (Fig. 6).
package ace

import (
	"fmt"

	"ehdl/internal/device"
	"ehdl/internal/exec"
	"ehdl/internal/fftfixed"
	"ehdl/internal/fixed"
	"ehdl/internal/flex"
)

// elemStride is the element batch between FLEX boundaries for cheap
// element-wise layers (pool/relu).
const elemStride = 32

// convWBudgetWords caps the SRAM set aside for staged conv weights;
// layers whose filters exceed it are processed in filter chunks, each
// chunk making its own pass over the output pixels (more window
// gathers, the price of a small SRAM).
const convWBudgetWords = 1600

// Engine is the ACE runtime for one inference.
type Engine struct {
	store *exec.ModelStore

	in *device.NVQ15
	// actA/actB are the two circular activation buffers in FRAM.
	act [2]*device.NVQ15
	// bufIn[li] selects which of act holds layer li's input; flatten
	// layers do not flip.
	bufIn, bufOut []int

	// SRAM workspaces, sized at construction across all layers.
	winBuf  []fixed.Q15 // conv im2col window
	wSRAM   []fixed.Q15 // staged conv weights (whole layer)
	biasBuf []fixed.Q15 // staged biases
	outVec  []fixed.Q15 // per-pixel filter outputs
	xStage  []fixed.Q15 // dense-layer input / BCM x block
	wStage  []fixed.Q15 // dense row / BCM w block
	accVec  []fixed.Q15 // BCM row accumulator
	convVec []fixed.Q15 // BCM per-block convolution result
	cw, cx  []fftfixed.Complex
	cy      []fftfixed.Complex

	fx *flex.Controller // nil = plain ACE

	// filtersPerChunk[li] is conv layer li's weight-staging chunk size.
	filtersPerChunk []int
	// posBase[li] is the linear FLEX-progress base of layer li.
	posBase []uint64

	// entered and staleResume are host-side records, never read by
	// Boot's control flow and never charged to the device: the
	// furthest layer any boot of the run has entered, and whether a
	// FLEX restore ever landed in an earlier layer. Such a restore
	// re-reads an input buffer a later layer may have overwritten
	// (the two activation buffers ping-pong), so the run's logits can
	// leave the reference executor's.
	entered     int
	staleResume bool
}

// New builds an ACE engine. fx may be nil for plain ACE (no
// intermittent support).
func New(d *device.Device, store *exec.ModelStore, input []fixed.Q15, fx *flex.Controller) (*Engine, error) {
	in, err := store.FlashInput(d, input)
	if err != nil {
		return nil, fmt.Errorf("ace: %w", err)
	}
	e := &Engine{store: store, fx: fx, in: in, filtersPerChunk: make([]int, len(store.Layers))}

	// Size the two circular buffers: the largest activation, padded up
	// to the BCM block grid where needed.
	bufLen := store.Model.MaxActivationLen()
	maxWin, maxConvW, maxBias, maxOutC := 0, 0, 0, 0
	maxDenseIn := 0
	pos := uint64(0)
	cur := 0
	for li := range store.Layers {
		l := &store.Layers[li]
		e.posBase = append(e.posBase, pos)
		e.bufIn = append(e.bufIn, cur)
		switch l.Kind {
		case exec.Conv:
			win := len(l.Offs)
			if win > maxWin {
				maxWin = win
			}
			fpc := l.Spec.OutC
			if fpc*win > convWBudgetWords {
				fpc = convWBudgetWords / win
				if fpc < 1 {
					return nil, fmt.Errorf("ace: conv kernel of %d words exceeds the weight-staging budget", win)
				}
			}
			e.filtersPerChunk[li] = fpc
			if w := fpc * win; w > maxConvW {
				maxConvW = w
			}
			if fpc > maxOutC {
				maxOutC = fpc
			}
			chunks := (l.Spec.OutC + fpc - 1) / fpc
			oh := l.Spec.InH - l.Spec.KH + 1
			ow := l.Spec.InW - l.Spec.KW + 1
			pos += uint64(chunks * oh * ow)
			cur ^= 1
		case exec.Pool, exec.ReLU:
			pos += uint64(l.OutLen)
			cur ^= 1
		case exec.Flatten:
			// No movement, no progress units, no buffer flip.
		case exec.Dense:
			if l.Spec.In > maxDenseIn {
				maxDenseIn = l.Spec.In
			}
			pos += uint64(l.Spec.Out)
			cur ^= 1
		case exec.BCM:
			k := l.Spec.K
			p := (l.Spec.Out + k - 1) / k
			q := (l.Spec.In + k - 1) / k
			if padded := q * k; padded > bufLen {
				bufLen = padded
			}
			pos += uint64(p*q) * 3
			cur ^= 1
		}
		if n := len(l.B); n > maxBias {
			maxBias = n
		}
		e.bufOut = append(e.bufOut, cur)
	}
	e.posBase = append(e.posBase, pos)

	for i := range e.act {
		if e.act[i], err = device.NewNVQ15(d, bufLen); err != nil {
			return nil, err
		}
	}

	alloc := func(n int) ([]fixed.Q15, error) {
		if n == 0 {
			return nil, nil
		}
		return device.AllocQ15(d, n)
	}
	if e.winBuf, err = alloc(maxWin); err != nil {
		return nil, err
	}
	if e.wSRAM, err = alloc(maxConvW); err != nil {
		return nil, err
	}
	if e.biasBuf, err = alloc(maxBias); err != nil {
		return nil, err
	}
	if e.outVec, err = alloc(maxOutC); err != nil {
		return nil, err
	}
	maxK := store.MaxK
	stage := maxK
	if maxDenseIn > stage {
		stage = maxDenseIn
	}
	if e.xStage, err = alloc(stage); err != nil {
		return nil, err
	}
	if e.wStage, err = alloc(stage); err != nil {
		return nil, err
	}
	if maxK > 0 {
		if e.accVec, err = alloc(maxK); err != nil {
			return nil, err
		}
		if e.convVec, err = alloc(maxK); err != nil {
			return nil, err
		}
		if e.cw, err = device.AllocComplex(d, maxK); err != nil {
			return nil, err
		}
		if e.cx, err = device.AllocComplex(d, maxK); err != nil {
			return nil, err
		}
		if e.cy, err = device.AllocComplex(d, maxK); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// EngineName implements exec.Engine.
func (e *Engine) EngineName() string {
	if e.fx != nil {
		return "ace+flex"
	}
	return "ace"
}

// Output implements exec.Engine: the logits live in the output buffer
// of the last layer.
func (e *Engine) Output() []fixed.Q15 {
	last := len(e.store.Layers) - 1
	n := e.store.Layers[last].OutLen
	buf := e.act[e.bufOut[last]]
	return append([]fixed.Q15(nil), buf.Raw()[:n]...)
}

// Progress implements intermittent.ProgressReporter: plain ACE makes
// no persistent progress; ACE+FLEX reports the committed position.
func (e *Engine) Progress() uint64 {
	if e.fx == nil {
		return 0
	}
	return e.fx.Position()
}

// StaleResume implements exec.StaleResumer: it reports whether a
// FLEX restore of this run landed in a layer earlier than the furthest
// one a previous boot entered.
func (e *Engine) StaleResume() bool { return e.staleResume }

// snapPos maps a restored FLEX snapshot to its linear position.
func (e *Engine) snapPos(s flex.Snapshot) uint64 {
	if s.Layer >= len(e.store.Layers) {
		return e.posBase[len(e.posBase)-1]
	}
	l := &e.store.Layers[s.Layer]
	base := e.posBase[s.Layer]
	if s.State == flex.StateElement {
		return base + uint64(s.Elem)
	}
	q := (l.Spec.In + l.Spec.K - 1) / l.Spec.K
	rank := uint64(0)
	switch s.State {
	case flex.StatePostMPY:
		rank = 1
	case flex.StatePostIFFT:
		rank = 2
	}
	return base + uint64(s.I*q+s.J)*3 + rank
}

// Boot implements intermittent.Program.
func (e *Engine) Boot(d *device.Device) error {
	startLayer := 0
	var resume *flex.Snapshot
	if e.fx != nil {
		if s, ok := e.fx.Restore(d, e.snapPos); ok {
			startLayer = s.Layer
			resume = &s
			e.staleResume = e.staleResume || s.Layer < e.entered
		}
	}

	for li := startLayer; li < len(e.store.Layers); li++ {
		e.entered = max(e.entered, li)
		l := &e.store.Layers[li]
		in := e.layerIn(li)
		out := e.act[e.bufOut[li]]
		var rs *flex.Snapshot
		if resume != nil && li == startLayer {
			rs = resume
		}
		switch l.Kind {
		case exec.Conv:
			e.convLayer(d, li, l, in, out, rs)
		case exec.Pool, exec.ReLU:
			e.elementLayer(d, li, l, in, out, rs)
		case exec.Flatten:
			// Pure reshape: no data movement at all.
		case exec.Dense:
			e.denseLayer(d, li, l, in, out, rs)
		case exec.BCM:
			e.bcmLayer(d, li, l, in, out, rs)
		}
	}
	return nil
}

// layerIn returns the buffer holding layer li's input: the sensor's
// input area for the first layer, a circular buffer afterwards.
func (e *Engine) layerIn(li int) *device.NVQ15 {
	if li == 0 {
		return e.in
	}
	return e.act[e.bufIn[li]]
}

// boundary reports a FLEX-resumable position.
func (e *Engine) boundary(d *device.Device, pos uint64, snap func() flex.Snapshot) {
	if e.fx != nil {
		e.fx.Boundary(d, pos, snap)
	}
}

// stageBias DMAs a layer's biases into SRAM.
func (e *Engine) stageBias(d *device.Device, l *exec.Layer) []fixed.Q15 {
	b := l.Bias
	n := b.Len()
	d.DMAFromFRAM(n, device.CatDMA)
	copy(e.biasBuf[:n], b.Raw())
	return e.biasBuf[:n]
}

// convLayer: the layer's filters are staged into SRAM (in chunks when
// they exceed the staging budget); per output pixel the im2col window
// is gathered once and shared across the staged filters, one LEA MAC
// each.
func (e *Engine) convLayer(d *device.Device, li int, l *exec.Layer, in, out *device.NVQ15, rs *flex.Snapshot) {
	s := l.Spec
	oh := s.InH - s.KH + 1
	ow := s.InW - s.KW + 1
	pixels := oh * ow
	win := len(l.Offs)
	shift := l.AccShift()
	fpc := e.filtersPerChunk[li]
	chunks := (s.OutC + fpc - 1) / fpc

	bias := e.stageBias(d, l)

	// The FLEX element cursor is chunk-major: elem = chunk·pixels + px.
	startElem := 0
	if rs != nil && rs.State == flex.StateElement {
		startElem = rs.Elem
	}
	outRaw := out.Raw()
	for chunk := startElem / pixels; chunk < chunks; chunk++ {
		oc0 := chunk * fpc
		oc1 := oc0 + fpc
		if oc1 > s.OutC {
			oc1 = s.OutC
		}
		// Stage this chunk's filters (DMA bulk movement).
		wWords := (oc1 - oc0) * win
		d.DMAFromFRAM(wWords, device.CatDMA)
		copy(e.wSRAM[:wWords], l.Weights.Raw()[oc0*win:oc1*win])

		px0 := 0
		if chunk == startElem/pixels {
			px0 = startElem % pixels
		}
		for px := px0; px < pixels; px++ {
			oy := px / ow
			ox := px % ow
			elem := chunk*pixels + px
			e.boundary(d, e.posBase[li]+uint64(elem), func() flex.Snapshot {
				return flex.Snapshot{Layer: li, State: flex.StateElement, Elem: elem,
					Pos: e.posBase[li] + uint64(elem)}
			})
			exec.GatherWindow(d, l, in, oy, ox, e.winBuf)
			// One LEA MAC per staged filter over the shared window.
			for oc := oc0; oc < oc1; oc++ {
				d.LEAMAC(win)
				acc := fixed.Dot(e.wSRAM[(oc-oc0)*win:(oc-oc0+1)*win], e.winBuf[:win])
				d.CPUOps(2)
				e.outVec[oc-oc0] = fixed.SatAdd(fixed.NarrowQ31(acc, shift), bias[oc])
			}
			// Strided per-pixel store across filters (CPU-driven).
			d.FRAMWrite(oc1-oc0, device.CatFRAMWrite)
			for oc := oc0; oc < oc1; oc++ {
				outRaw[(oc*oh+oy)*ow+ox] = e.outVec[oc-oc0]
			}
		}
	}
}

// elementLayer runs a pool or ReLU layer element by element on the
// CPU, with a FLEX boundary every elemStride elements.
func (e *Engine) elementLayer(d *device.Device, li int, l *exec.Layer, in, out *device.NVQ15, rs *flex.Snapshot) {
	start := 0
	if rs != nil {
		start = rs.Elem
	}
	for elem := start; elem < l.OutLen; elem++ {
		if elem%elemStride == 0 {
			el := elem
			e.boundary(d, e.posBase[li]+uint64(elem), func() flex.Snapshot {
				return flex.Snapshot{Layer: li, State: flex.StateElement, Elem: el,
					Pos: e.posBase[li] + uint64(el)}
			})
		}
		if l.Kind == exec.Pool {
			exec.PoolElem(d, l, in, out, elem, 0)
		} else {
			exec.ReLUElem(d, in, out, elem, 2)
		}
	}
}

// denseLayer: the input vector is staged once in SRAM, then each
// output row is one DMA (weights) plus one LEA MAC.
func (e *Engine) denseLayer(d *device.Device, li int, l *exec.Layer, in, out *device.NVQ15, rs *flex.Snapshot) {
	s := l.Spec
	shift := l.AccShift()
	d.DMAFromFRAM(s.In, device.CatDMA)
	copy(e.xStage[:s.In], in.Raw()[:s.In])
	bias := e.stageBias(d, l)
	wRaw := l.Weights.Raw()

	start := 0
	if rs != nil {
		start = rs.Elem
	}
	for r := start; r < s.Out; r++ {
		row := r
		e.boundary(d, e.posBase[li]+uint64(r), func() flex.Snapshot {
			return flex.Snapshot{Layer: li, State: flex.StateElement, Elem: row,
				Pos: e.posBase[li] + uint64(row)}
		})
		d.DMAFromFRAM(s.In, device.CatDMA)
		copy(e.wStage[:s.In], wRaw[r*s.In:(r+1)*s.In])
		d.LEAMAC(s.In)
		acc := fixed.Dot(e.wStage[:s.In], e.xStage[:s.In])
		d.CPUOps(2)
		v := fixed.SatAdd(fixed.NarrowQ31(acc, shift), bias[r])
		out.StoreOne(d, device.CatFRAMWrite, r, v)
	}
}
