// Package exec holds the pieces shared by the four on-device
// inference engines (BASE, SONIC, TAILS, ACE/FLEX): the FRAM-resident
// model image with its per-layer plan, input/output plumbing, the
// element kernels the engines have in common, and the Engine
// contract.
//
// Engine discipline for intermittent correctness: Boot is the reset
// vector. An engine may keep, across Boot calls, only (a) static
// configuration, (b) device-allocated SRAM arenas (wiped by the
// runner on reboot) and (c) nonvolatile state in device NV types.
// Per-inference progress must never live in plain Go struct fields —
// that would be RAM that magically survives a power failure.
package exec

import (
	"errors"
	"fmt"

	"ehdl/internal/device"
	"ehdl/internal/fixed"
	"ehdl/internal/intermittent"
	"ehdl/internal/quant"
)

// Engine is one runtime implementation executing one inference.
type Engine interface {
	intermittent.Program
	// EngineName identifies the runtime ("base", "sonic", ...).
	EngineName() string
	// Output returns the logits after a completed run (uncharged
	// host-side read; the logits live in FRAM).
	Output() []fixed.Q15
}

// Kind is a layer kind resolved once, when the model is flashed, so
// engines dispatch on a small integer instead of comparing strings.
type Kind uint8

// The layer kinds every engine executes.
const (
	Conv Kind = iota
	Pool
	ReLU
	Flatten
	Dense
	BCM
)

// kinds maps quant's layer-kind names to Kind.
var kinds = map[string]Kind{
	"conv": Conv, "pool": Pool, "relu": ReLU,
	"flatten": Flatten, "dense": Dense, "bcm": BCM,
}

// ErrUnknownLayerKind reports a layer kind no engine executes.
var ErrUnknownLayerKind = errors.New("exec: unknown layer kind")

// MaxVec is the largest vector the LEA-staging engines (BASE, TAILS)
// stage at once; longer dense rows are processed in chunks (the real
// LEA owns 4 KB of SRAM).
const MaxVec = 1024

// Layer is one layer of the flashed plan: the quantized layer, its
// resolved kind and output length, its FRAM weights and biases (nil
// for stateless layers), and for conv layers the window offsets.
type Layer struct {
	*quant.QLayer
	Kind   Kind
	OutLen int
	// Weights and Bias are the layer's FRAM image. Pruned conv layers
	// keep only the kept positions per filter (compact layout
	// [oc][kept]), which is what gives pruning its storage and
	// bandwidth win.
	Weights, Bias *device.NVQ15
	// Offs holds, for a conv layer, the input-buffer offset of every
	// MAC operand relative to the window origin (ic·H·W + ky·W + kx),
	// in exactly the order the reference executor accumulates;
	// len(Offs) is the MAC length of one output element.
	Offs []int
}

// ModelStore is the FRAM image of a quantized model, flashed before
// deployment (uncharged — firmware programming happens off-device),
// together with the per-layer plan every engine executes.
type ModelStore struct {
	Model  *quant.Model
	Layers []Layer
	// MaxK is the largest BCM block size (0 without BCM layers).
	MaxK int
	// StageLen is the longest vector BASE and TAILS stage into SRAM:
	// a conv window, a dense row chunk of at most MaxVec, or a BCM
	// block.
	StageLen int
}

// NewModelStore resolves the model's layer plan, reserves FRAM for it
// and flashes the weights. A layer kind no engine executes fails with
// ErrUnknownLayerKind.
func NewModelStore(d *device.Device, m *quant.Model) (*ModelStore, error) {
	s := &ModelStore{Model: m, Layers: make([]Layer, len(m.Layers))}
	for li := range m.Layers {
		ql := &m.Layers[li]
		kind, ok := kinds[ql.Spec.Kind]
		if !ok {
			return nil, fmt.Errorf("%w %q at layer %d", ErrUnknownLayerKind, ql.Spec.Kind, li)
		}
		l := &s.Layers[li]
		l.QLayer, l.Kind, l.OutLen = ql, kind, quant.LayerOutLen(ql.Spec)
		w, stage := ql.W, 0
		switch kind {
		case Conv:
			l.Offs = convOffsets(ql)
			stage = len(l.Offs)
			if ql.Kept != nil {
				w = compactConvWeights(ql)
			}
		case Dense:
			stage = min(ql.Spec.In, MaxVec)
		case BCM:
			stage = ql.Spec.K
			s.MaxK = max(s.MaxK, ql.Spec.K)
		default:
			continue
		}
		s.StageLen = max(s.StageLen, stage)
		var err error
		if l.Weights, err = flash(d, w); err != nil {
			return nil, fmt.Errorf("exec: layer %d weights: %w", li, err)
		}
		if l.Bias, err = flash(d, ql.B); err != nil {
			return nil, fmt.Errorf("exec: layer %d bias: %w", li, err)
		}
	}
	return s, nil
}

// flash reserves a FRAM buffer and writes v into it, uncharged.
func flash(d *device.Device, v []fixed.Q15) (*device.NVQ15, error) {
	nv, err := device.NewNVQ15(d, len(v))
	if err != nil {
		return nil, err
	}
	copy(nv.Raw(), v)
	return nv, nil
}

// FlashInput checks the input against the model's input shape and
// writes it to FRAM, as the sensor would have left it.
func (s *ModelStore) FlashInput(d *device.Device, input []fixed.Q15) (*device.NVQ15, error) {
	sh := s.Model.InShape
	if got, want := len(input), sh[0]*sh[1]*sh[2]; got != want {
		return nil, fmt.Errorf("exec: input length %d, want %d", got, want)
	}
	return flash(d, input)
}

// Buffers is the baselines' FRAM activation layout (Fig. 5's naive
// one): the flashed input plus one output buffer per layer.
type Buffers struct {
	In   *device.NVQ15
	Acts []*device.NVQ15
}

// NewBuffers flashes the input and reserves every layer's output
// buffer.
func (s *ModelStore) NewBuffers(d *device.Device, input []fixed.Q15) (Buffers, error) {
	in, err := s.FlashInput(d, input)
	if err != nil {
		return Buffers{}, err
	}
	b := Buffers{In: in, Acts: make([]*device.NVQ15, len(s.Layers))}
	for li := range s.Layers {
		if b.Acts[li], err = device.NewNVQ15(d, s.Layers[li].OutLen); err != nil {
			return Buffers{}, err
		}
	}
	return b, nil
}

// LayerIn returns the buffer holding layer li's input.
func (b Buffers) LayerIn(li int) *device.NVQ15 {
	if li == 0 {
		return b.In
	}
	return b.Acts[li-1]
}

// Output returns a copy of the logits, the last layer's output
// (uncharged host-side read). Engines embedding Buffers inherit it as
// their Engine.Output.
func (b Buffers) Output() []fixed.Q15 {
	return append([]fixed.Q15(nil), b.Acts[len(b.Acts)-1].Raw()...)
}

// ElemBases returns, for engines that checkpoint a global element
// cursor, each layer's first element index under count, with the
// total appended.
func ElemBases(layers []Layer, count func(*Layer) int) []uint64 {
	bases := make([]uint64, len(layers)+1)
	for li := range layers {
		bases[li+1] = bases[li] + uint64(count(&layers[li]))
	}
	return bases
}

// LayerOf returns the layer that global element elem belongs to.
func LayerOf(bases []uint64, elem uint64) int {
	for li := 0; li < len(bases)-1; li++ {
		if elem < bases[li+1] {
			return li
		}
	}
	panic("exec: element cursor out of range")
}

// compactConvWeights packs a pruned conv layer's weights down to the
// kept positions: [oc][keptIdx].
func compactConvWeights(l *quant.QLayer) []fixed.Q15 {
	s := l.Spec
	positions := s.InC * s.KH * s.KW
	out := make([]fixed.Q15, s.OutC*len(l.Kept))
	for oc := 0; oc < s.OutC; oc++ {
		for ki, p := range l.Kept {
			out[oc*len(l.Kept)+ki] = l.W[oc*positions+p]
		}
	}
	return out
}

// convOffsets returns the MAC operand offsets of conv layer l (see
// Layer.Offs): the kept positions when pruned, the full window
// otherwise.
func convOffsets(l *quant.QLayer) []int {
	s := l.Spec
	if l.Kept != nil {
		offs := make([]int, len(l.Kept))
		for i, p := range l.Kept {
			ic := p / (s.KH * s.KW)
			rem := p % (s.KH * s.KW)
			ky := rem / s.KW
			kx := rem % s.KW
			offs[i] = ic*s.InH*s.InW + ky*s.InW + kx
		}
		return offs
	}
	offs := make([]int, 0, s.InC*s.KH*s.KW)
	for ic := 0; ic < s.InC; ic++ {
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				offs = append(offs, ic*s.InH*s.InW+ky*s.InW+kx)
			}
		}
	}
	return offs
}

// Report is the outcome of one measured inference.
type Report struct {
	Engine    string
	Logits    []fixed.Q15
	Predicted int
	Stats     device.Stats
	// Intermittent is non-nil when the run went through the
	// power-failure runner.
	Intermittent *intermittent.Result
	// CleanResumes reports an intermittent run in which no boot
	// resumed onto an input a later layer may have overwritten (see
	// StaleResumer). Such a run that completes predicts what the host
	// reference executor does on its input. False, the zero value, is
	// the conservative answer, and RunContinuous leaves it so.
	CleanResumes bool
}

// StaleResumer is implemented by engines that can resume a layer
// whose input buffer a later layer already reused. StaleResume reports
// whether the run did; it is recorded host-side and charges nothing.
type StaleResumer interface {
	StaleResume() bool
}

// Argmax returns the predicted class of quantized logits.
func Argmax(logits []fixed.Q15) int {
	if len(logits) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(logits); i++ {
		if logits[i] > logits[best] {
			best = i
		}
	}
	return best
}

// RunContinuous executes one inference on bench power and collects a
// report.
func RunContinuous(d *device.Device, e Engine) (Report, error) {
	if err := e.Boot(d); err != nil {
		return Report{}, fmt.Errorf("exec: %s: %w", e.EngineName(), err)
	}
	logits := e.Output()
	return Report{
		Engine:    e.EngineName(),
		Logits:    logits,
		Predicted: Argmax(logits),
		Stats:     d.Stats(),
	}, nil
}

// RunIntermittent executes one inference across power failures.
func RunIntermittent(d *device.Device, e Engine, r *intermittent.Runner) Report {
	res := r.Run(d, e)
	rep := Report{
		Engine:       e.EngineName(),
		Stats:        d.Stats(),
		Intermittent: &res,
		Predicted:    -1,
	}
	if res.Completed {
		rep.Logits = e.Output()
		rep.Predicted = Argmax(rep.Logits)
	}
	sr, ok := e.(StaleResumer)
	rep.CleanResumes = !ok || !sr.StaleResume()
	return rep
}
