// Package baseline implements BASE, the paper's non-intermittent
// reference runtime: LEA/DMA-accelerated inference like TAILS, but
// with no checkpointing of any kind — all progress lives in volatile
// registers and SRAM. Under continuous power BASE is the fastest
// baseline (it pays no commit tax, which is why the paper's Fig. 7(a)
// shows BASE below TAILS); under intermittent power it restarts from
// scratch every boot and, whenever one inference needs more energy
// than one capacitor charge, never completes (the "X" of Fig. 7(b)).
//
// BASE predates RAD's accelerator-aware training, so its BCM layers
// use the time-domain FIR discipline, not Algorithm 1.
package baseline

import (
	"fmt"

	"ehdl/internal/device"
	"ehdl/internal/exec"
	"ehdl/internal/fixed"
	"ehdl/internal/quant"
)

// controlOpsPerElement is the per-element loop/control overhead.
const controlOpsPerElement = 8

// Engine is the BASE runtime for one inference. It runs TAILS's
// element kernels with its own control overhead and no commits in
// between; only its BCM layers keep their own loop (bcmFIR).
type Engine struct {
	store *exec.ModelStore
	exec.Buffers
	stage exec.Stage
}

// New builds a BASE engine over an already-flashed model store and an
// input vector (written to FRAM as the sensor would have left it).
func New(d *device.Device, store *exec.ModelStore, input []fixed.Q15) (*Engine, error) {
	bufs, err := store.NewBuffers(d, input)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	stage, err := store.NewStage(d)
	if err != nil {
		return nil, err
	}
	return &Engine{store: store, Buffers: bufs, stage: stage}, nil
}

// EngineName implements exec.Engine.
func (e *Engine) EngineName() string { return "base" }

// Progress implements intermittent.ProgressReporter: BASE never makes
// persistent progress, so the runner's stagnation detector can call
// the DNF quickly.
func (e *Engine) Progress() uint64 { return 0 }

// Boot implements intermittent.Program: one full inference from
// scratch. BASE holds no persistent progress, so a power failure
// throws everything away.
func (e *Engine) Boot(d *device.Device) error {
	for li := range e.store.Layers {
		l := &e.store.Layers[li]
		in, out := e.LayerIn(li), e.Acts[li]
		switch l.Kind {
		case exec.Conv:
			// One LEA MAC per output element, no cross-filter sharing:
			// that is ACE's dataflow contribution.
			for elem := 0; elem < l.OutLen; elem++ {
				exec.ConvElem(d, l, in, out, elem, &e.stage, controlOpsPerElement)
			}
		case exec.Pool:
			for elem := 0; elem < l.OutLen; elem++ {
				exec.PoolElem(d, l, in, out, elem, controlOpsPerElement)
			}
		case exec.ReLU:
			for elem := 0; elem < l.OutLen; elem++ {
				exec.ReLUElem(d, in, out, elem, 2)
			}
		case exec.Flatten:
			exec.CopyDMA(d, in, out)
		case exec.Dense:
			for r := 0; r < l.OutLen; r++ {
				exec.DenseRow(d, l, in, out, r, &e.stage, controlOpsPerElement)
			}
		case exec.BCM:
			e.bcmFIR(d, l, in, out)
		}
	}
	return nil
}

// bcmFIR computes a BCM layer block row by block row with the LEA's
// FIR command and circular addressing — identical arithmetic to the
// TAILS path, minus any checkpoint traffic.
func (e *Engine) bcmFIR(d *device.Device, l *exec.Layer, in, out *device.NVQ15) {
	s := l.Spec
	k := s.K
	p := (s.Out + k - 1) / k
	q := (s.In + k - 1) / k
	wRaw := l.Weights.Raw()
	bRaw := l.Bias.Raw()
	xRaw := in.Raw()
	st := &e.stage
	scale := fixed.One
	if l.CosNorm {
		d.LEAMAC(s.In)
		d.CPUOps(60)
		scale = quant.InputScale(xRaw[:s.In], l.SIn)
	}
	for i := 0; i < p; i++ {
		d.CPUOps(controlOpsPerElement)
		acc := st.Acc[:k]
		for t := range acc {
			acc[t] = 0
		}
		d.SRAMAccess(k)
		for j := 0; j < q; j++ {
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
			d.LEAMAC(k * lim)
			for r := 0; r < k; r++ {
				a := acc[r]
				for c := 0; c < lim; c++ {
					a = fixed.MAC(a, st.W[(r-c+k)%k], st.X[c])
				}
				acc[r] = a
			}
		}
		rowLen := k
		if rem := s.Out - i*k; rem < rowLen {
			rowLen = rem
		}
		d.FRAMRead(rowLen, device.CatFRAMRead)
		d.CPUOps(2 * rowLen)
		for r := 0; r < rowLen; r++ {
			st.W[r] = fixed.SatAdd(fixed.NarrowQ31(acc[r], l.AccShift()), bRaw[i*k+r])
		}
		out.StoreDMA(d, device.CatFRAMWrite, i*k, st.W[:rowLen])
	}
}
