package exec

import (
	"ehdl/internal/device"
	"ehdl/internal/fixed"
)

// The element kernels the engines share. Each one computes a single
// output element and charges exactly the operations it performs;
// the engine's own per-element control overhead comes in as a count,
// so one kernel serves every engine's cost model. Checkpointing stays
// with the engines, between kernel calls.

// Stage is the LEA's SRAM staging area in BASE and TAILS: one window
// or row operand buffer, one weight buffer, and the FIR row
// accumulators of BCM layers.
type Stage struct {
	X, W []fixed.Q15
	Acc  []fixed.Q31
}

// NewStage allocates the staging buffers in SRAM, sized for every
// layer of the plan.
func (s *ModelStore) NewStage(d *device.Device) (Stage, error) {
	var st Stage
	var err error
	if st.X, err = device.AllocQ15(d, s.StageLen); err != nil {
		return Stage{}, err
	}
	if st.W, err = device.AllocQ15(d, s.StageLen); err != nil {
		return Stage{}, err
	}
	if s.MaxK > 0 {
		if st.Acc, err = device.AllocQ31(d, s.MaxK); err != nil {
			return Stage{}, err
		}
	}
	return st, nil
}

// GatherWindow DMAs conv layer l's kernel window for output position
// (oy, ox) from in into dst: one DMA per contiguous input row
// segment, the access pattern the real DMA engine supports.
//
//ehdl:hotpath
func GatherWindow(d *device.Device, l *Layer, in *device.NVQ15, oy, ox int, dst []fixed.Q15) {
	offs := l.Offs
	xRaw := in.Raw()
	origin := oy*l.Spec.InW + ox
	// Offsets are sorted row-major, so runs are maximal stretches of
	// consecutive offsets.
	i := 0
	for i < len(offs) {
		j := i + 1
		for j < len(offs) && offs[j] == offs[j-1]+1 {
			j++
		}
		d.DMAFromFRAM(j-i, device.CatDMA)
		for k := i; k < j; k++ {
			dst[k] = xRaw[origin+offs[k]]
		}
		i = j
	}
}

// ConvElem computes conv output element elem (filter-major) with one
// LEA MAC, re-staging the window and the filter's weights: the
// element is self-contained, so any of them can be replayed.
//
//ehdl:hotpath
func ConvElem(d *device.Device, l *Layer, in, out *device.NVQ15, elem int, st *Stage, ctrlOps int) {
	s := l.Spec
	oh := s.InH - s.KH + 1
	ow := s.InW - s.KW + 1
	oc := elem / (oh * ow)
	rem := elem % (oh * ow)
	win := len(l.Offs)

	d.CPUOps(ctrlOps)
	GatherWindow(d, l, in, rem/ow, rem%ow, st.X)
	d.DMAFromFRAM(win, device.CatDMA)
	copy(st.W[:win], l.Weights.Raw()[oc*win:(oc+1)*win])
	d.LEAMAC(win)
	acc := fixed.Dot(st.W[:win], st.X[:win])
	d.FRAMRead(1, device.CatFRAMRead)
	v := fixed.SatAdd(fixed.NarrowQ31(acc, l.AccShift()), l.Bias.Raw()[oc])
	out.StoreOne(d, device.CatFRAMWrite, elem, v)
}

// DenseRow computes dense output r: input and weight row are staged
// in MaxVec chunks, one LEA MAC per chunk.
//
//ehdl:hotpath
func DenseRow(d *device.Device, l *Layer, in, out *device.NVQ15, r int, st *Stage, ctrlOps int) {
	n := l.Spec.In
	wRaw := l.Weights.Raw()[r*n : (r+1)*n]
	xRaw := in.Raw()

	d.CPUOps(ctrlOps)
	var acc fixed.Q31
	for start := 0; start < n; start += MaxVec {
		end := min(start+MaxVec, n)
		m := end - start
		d.DMAFromFRAM(m, device.CatDMA)
		copy(st.X[:m], xRaw[start:end])
		d.DMAFromFRAM(m, device.CatDMA)
		copy(st.W[:m], wRaw[start:end])
		d.LEAMAC(m)
		for k := 0; k < m; k++ {
			acc = fixed.MAC(acc, st.W[k], st.X[k])
		}
	}
	d.FRAMRead(1, device.CatFRAMRead)
	v := fixed.SatAdd(fixed.NarrowQ31(acc, l.AccShift()), l.Bias.Raw()[r])
	out.StoreOne(d, device.CatFRAMWrite, r, v)
}

// CopyDMA is a flatten layer as a bulk FRAM-to-FRAM DMA copy, in
// MaxVec chunks.
//
//ehdl:hotpath
func CopyDMA(d *device.Device, in, out *device.NVQ15) {
	n := in.Len()
	for start := 0; start < n; start += MaxVec {
		end := min(start+MaxVec, n)
		d.DMAFromFRAM(end-start, device.CatDMA)
		d.DMAToFRAM(end-start, device.CatDMA)
		copy(out.Raw()[start:end], in.Raw()[start:end])
	}
}

// PoolElem computes max-pool output element elem on the CPU: one
// compare per window word plus ctrlOps.
//
//ehdl:hotpath
func PoolElem(d *device.Device, l *Layer, in, out *device.NVQ15, elem, ctrlOps int) {
	s := l.Spec
	ps := s.PoolSize
	oh := s.InH / ps
	ow := s.InW / ps
	c := elem / (oh * ow)
	rem := elem % (oh * ow)
	oy := rem / ow
	ox := rem % ow
	d.FRAMRead(ps*ps, device.CatFRAMRead)
	d.CPUOps(ps*ps + ctrlOps)
	xRaw := in.Raw()
	best := fixed.MinusOne
	for dy := 0; dy < ps; dy++ {
		for dx := 0; dx < ps; dx++ {
			if v := xRaw[c*s.InH*s.InW+(oy*ps+dy)*s.InW+ox*ps+dx]; v > best {
				best = v
			}
		}
	}
	out.StoreOne(d, device.CatFRAMWrite, elem, best)
}

// ReLUElem computes ReLU output element elem, charging ops CPU
// operations.
//
//ehdl:hotpath
func ReLUElem(d *device.Device, in, out *device.NVQ15, elem, ops int) {
	d.FRAMRead(1, device.CatFRAMRead)
	d.CPUOps(ops)
	out.StoreOne(d, device.CatFRAMWrite, elem, max(in.Raw()[elem], 0))
}
