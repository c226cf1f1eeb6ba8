package ace

import (
	"ehdl/internal/device"
	"ehdl/internal/exec"
	"ehdl/internal/fftfixed"
	"ehdl/internal/fixed"
	"ehdl/internal/flex"
	"ehdl/internal/quant"
)

// bcmLayer executes a block-circulant FC layer following Algorithm 1,
// with FLEX stage boundaries (Fig. 6) between the pipeline steps:
//
//	for each block row i:
//	  acc ← 0
//	  for each block column j:
//	    [StateBlockStart] DMA x_j, w_ij → SRAM
//	    LEA FFT(x), FFT(w); LEA MPY → y′
//	    [StatePostMPY]    LEA IFFT(y′) → y
//	    [StatePostIFFT]   LEA ADD: acc += y
//	  scale, bias, DMA row to FRAM
//
// A FLEX commit at StatePostMPY saves the product spectrum, so a
// reboot re-enters at the IFFT — the continuation loop-index schemes
// cannot perform because their only persistent state is an index.
func (e *Engine) bcmLayer(d *device.Device, li int, l *exec.Layer, in, out *device.NVQ15, rs *flex.Snapshot) {
	s := l.Spec
	k := s.K
	p := (s.Out + k - 1) / k
	q := (s.In + k - 1) / k
	shift := l.BCMShift()

	bias := e.stageBias(d, l)
	wRaw := l.Weights.Raw()
	xRaw := in.Raw()

	// Cosine normalization: one wide MAC over the input for ‖x‖², a
	// CPU square root, then each staged block is scaled by 1/max(‖x‖,1)
	// right after its DMA.
	scale := fixed.One
	if l.CosNorm {
		d.LEAMAC(s.In)
		d.CPUOps(60)
		scale = quant.InputScale(xRaw[:s.In], l.SIn)
	}

	acc := e.accVec[:k]
	conv := e.convVec[:k]
	cw, cx, cy := e.cw[:k], e.cx[:k], e.cy[:k]

	startI, startJ := 0, 0
	resumeState := flex.StateElement // sentinel: no mid-block resume
	if rs != nil && rs.State != flex.StateElement {
		startI, startJ = rs.I, rs.J
		resumeState = rs.State
		// The committed accumulator holds blocks [0, startJ) of row
		// startI (or [0, startJ] for the post stages, where the block
		// itself is in the intermediate).
		d.CPUOps(4)
		e.fx.LoadAcc(d, acc)
	}

	for i := startI; i < p; i++ {
		if i != startI || resumeState == flex.StateElement {
			// Fresh row: zero the accumulator in SRAM.
			d.SRAMAccess(k)
			for t := range acc {
				acc[t] = 0
			}
		}
		j0 := 0
		if i == startI {
			j0 = startJ
		}
		for j := j0; j < q; j++ {
			blockPos := e.posBase[li] + uint64(i*q+j)*3
			midState := flex.StateElement // sentinel: run block from the top
			if i == startI && j == startJ {
				midState = resumeState
			}

			switch midState {
			case flex.StateElement, flex.StateBlockStart:
				e.boundary(d, blockPos, func() flex.Snapshot {
					return flex.Snapshot{Layer: li, State: flex.StateBlockStart,
						I: i, J: j, Pos: blockPos, Acc: acc}
				})
				// DMA x_j into SRAM, zero-padding the tail block past
				// the layer's logical input length (the circular FRAM
				// buffer may hold stale bytes from an earlier layer
				// there).
				valid := s.In - j*k
				if valid > k {
					valid = k
				}
				d.DMAFromFRAM(valid, device.CatDMA)
				copy(e.xStage[:valid], xRaw[j*k:j*k+valid])
				if l.CosNorm {
					d.LEAMAC(valid)
					fixed.ScaleVec(e.xStage[:valid], e.xStage[:valid], scale)
				}
				if valid < k {
					d.CPUOps(k - valid)
					for t := valid; t < k; t++ {
						e.xStage[t] = 0
					}
				}
				// DMA w_ij (stored fully padded in FRAM).
				d.DMAFromFRAM(k, device.CatDMA)
				copy(e.wStage[:k], wRaw[(i*q+j)*k:(i*q+j+1)*k])

				// COMPLEX packing then the two forward transforms.
				d.CPUOps(2 * k)
				fftfixed.ToComplex(cx, e.xStage[:k])
				fftfixed.ToComplex(cw, e.wStage[:k])
				d.LEAFFT(k)
				fftfixed.FFT(cx)
				d.LEAFFT(k)
				fftfixed.FFT(cw)

				// Element-wise multiply on the LEA, then the calibrated
				// block-domain scale-up (keeps the IFFT in the high bits).
				d.LEACMul(k)
				fftfixed.MulComplexVec(cy, cw, cx)
				if l.BShift > 0 {
					d.LEAAdd(k)
					fftfixed.ShlVec(cy, uint(l.BShift))
				}
			case flex.StatePostMPY:
				// Resume at the IFFT: reload the product spectrum.
				d.CPUOps(4)
				e.fx.LoadInter(d, cy)
			}

			if midState != flex.StatePostIFFT {
				e.boundary(d, blockPos+1, func() flex.Snapshot {
					return flex.Snapshot{Layer: li, State: flex.StatePostMPY,
						I: i, J: j, Pos: blockPos + 1, Acc: acc, Inter: cy}
				})
				// Inverse transform and REAL extraction.
				d.LEAFFT(k)
				fftfixed.IFFT(cy)
				d.CPUOps(k)
				fftfixed.Real(conv, cy)
			} else {
				// Resume after the IFFT: the real vector was committed
				// in the intermediate's Re lanes.
				d.CPUOps(4)
				e.fx.LoadInter(d, cy)
				fftfixed.Real(conv, cy)
			}

			e.boundary(d, blockPos+2, func() flex.Snapshot {
				inter := make([]fftfixed.Complex, k)
				fftfixed.ToComplex(inter, conv)
				return flex.Snapshot{Layer: li, State: flex.StatePostIFFT,
					I: i, J: j, Pos: blockPos + 2, Acc: acc, Inter: inter}
			})
			// Accumulate on the LEA.
			d.LEAAdd(k)
			fixed.AddVec(acc, acc, conv)
		}
		// Row epilogue: combined scale-up, bias, and DMA to FRAM.
		rowLen := k
		if r := s.Out - i*k; r < rowLen {
			rowLen = r
		}
		d.CPUOps(2 * rowLen)
		for t := 0; t < rowLen; t++ {
			conv[t] = fixed.SatAdd(fixed.ShiftQ15(acc[t], shift), bias[i*k+t])
		}
		out.StoreDMA(d, device.CatFRAMWrite, i*k, conv[:rowLen])
	}
}
