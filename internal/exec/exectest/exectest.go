// Package exectest holds the engine test fixtures that more than one
// package's tests run: the small dense and BCM models, seeded inputs,
// and the input set the trajectory tests hold every engine to.
package exectest

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"ehdl/internal/fixed"
	"ehdl/internal/nn"
	"ehdl/internal/quant"
)

// Model quantizes a randomly initialized model (no training —
// bit-exactness does not care about accuracy).
func Model(tb testing.TB, arch *nn.Arch, seed int64) *quant.Model {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	net := arch.Build(rng)
	calib := make([][]float64, 6)
	for i := range calib {
		x := make([]float64, arch.InLen())
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		calib[i] = x
	}
	m, err := quant.Quantize(net, arch, calib)
	if err != nil {
		tb.Fatal(err)
	}
	return m
}

// DenseArch exercises conv/pool/relu/flatten/dense for the
// uncompressed-model engines.
func DenseArch() *nn.Arch {
	return &nn.Arch{
		Name: "test-dense", InShape: [3]int{1, 8, 8}, NumClasses: 4,
		Specs: []nn.LayerSpec{
			{Kind: "conv", InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3},
			{Kind: "pool", InC: 4, InH: 6, InW: 6, PoolSize: 2},
			{Kind: "relu", N: 4 * 3 * 3},
			{Kind: "flatten", N: 36},
			{Kind: "dense", In: 36, Out: 16},
			{Kind: "relu", N: 16},
			{Kind: "dense", In: 16, Out: 4},
		},
	}
}

// BCMArch adds a padded BCM layer for the ACE engine.
func BCMArch() *nn.Arch {
	return &nn.Arch{
		Name: "test-bcm", InShape: [3]int{1, 8, 8}, NumClasses: 4,
		Specs: []nn.LayerSpec{
			{Kind: "conv", InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3},
			{Kind: "pool", InC: 4, InH: 6, InW: 6, PoolSize: 2},
			{Kind: "relu", N: 4 * 3 * 3},
			{Kind: "flatten", N: 36},
			// WeightNorm exercises the cosine-normalization path in
			// every engine; q=5 pads 36→40.
			{Kind: "bcm", In: 36, Out: 16, K: 8, WeightNorm: true},
			{Kind: "relu", N: 16},
			{Kind: "dense", In: 16, Out: 4},
		},
	}
}

// MNISTArch has MNIST's name and input geometry, so the scenario
// compiler pairs a model of it with the MNIST test set (784-word
// inputs).
func MNISTArch() *nn.Arch {
	return &nn.Arch{
		Name: "mnist", InShape: [3]int{1, 28, 28}, NumClasses: 10,
		Specs: []nn.LayerSpec{
			{Kind: "conv", InC: 1, InH: 28, InW: 28, OutC: 2, KH: 5, KW: 5},
			{Kind: "pool", InC: 2, InH: 24, InW: 24, PoolSize: 2},
			{Kind: "relu", N: 2 * 12 * 12},
			{Kind: "flatten", N: 288},
			{Kind: "bcm", In: 288, Out: 32, K: 16, WeightNorm: true},
			{Kind: "relu", N: 32},
			{Kind: "dense", In: 32, Out: 10},
		},
	}
}

// RandInput returns n seeded uniform Q15 values in [-1, 1).
func RandInput(n int, seed int64) []fixed.Q15 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]fixed.Q15, n)
	for i := range x {
		x[i] = fixed.FromFloat(rng.Float64()*2 - 1)
	}
	return x
}

// GoldenInput is the input every golden case runs.
func GoldenInput() []fixed.Q15 { return RandInput(64, 5) }

// Input is one named input of the trajectory set.
type Input struct {
	Name string
	X    []fixed.Q15
}

// TrajectoryInputs is the input set every golden case must run to one
// trajectory: the golden input, the degenerate inputs that could make
// two boots' write logs look alike, one input that saturates the
// first layer's MACs, and three seeded random inputs.
func TrajectoryInputs(m *quant.Model) []Input {
	const n = 64
	fill := func(f func(i int) fixed.Q15) []fixed.Q15 {
		x := make([]fixed.Q15, n)
		for i := range x {
			x[i] = f(i)
		}
		return x
	}
	set := []Input{
		{"golden", GoldenInput()},
		{"zero", fill(func(int) fixed.Q15 { return 0 })},
		{"0x7fff", fill(func(int) fixed.Q15 { return fixed.One })},
		{"0x8000", fill(func(int) fixed.Q15 { return fixed.MinusOne })},
		{"alternating", fill(func(i int) fixed.Q15 {
			if i%2 == 0 {
				return fixed.One
			}
			return fixed.MinusOne
		})},
		{"saturating", SaturatingInput(m)},
	}
	for seed := int64(1); seed <= 3; seed++ {
		set = append(set, Input{fmt.Sprintf("random-%d", seed), RandInput(n, 100+seed)})
	}
	return set
}

// MACOutputs runs x through the model's time-domain reference layer
// by layer and returns the outputs of its MAC layers (conv, dense and
// BCM).
func MACOutputs(m *quant.Model, x []fixed.Q15) [][]fixed.Q15 {
	var outs [][]fixed.Q15
	for i := range m.Layers {
		l := &m.Layers[i]
		switch l.Spec.Kind {
		case "conv":
			x = quant.ConvLayer(l, x)
		case "dense":
			x = quant.DenseLayer(l, x)
		case "bcm":
			x = quant.BCMLayerTime(l, x)
		case "pool":
			x = quant.PoolLayer(l, x)
			continue
		case "relu":
			x = quant.ReLULayer(l, x)
			continue
		default:
			continue
		}
		outs = append(outs, x)
	}
	return outs
}

// Saturated counts the full-scale values among outs.
func Saturated(outs [][]fixed.Q15) int {
	n := 0
	for _, out := range outs {
		for _, v := range out {
			if v == fixed.One || v == fixed.MinusOne {
				n++
			}
		}
	}
	return n
}

// saturatingInputs caches SaturatingInput per model.
var saturatingInputs struct {
	sync.Mutex
	m map[*quant.Model][]fixed.Q15
}

// SaturatingInput searches the full-scale inputs for one that
// saturates MAC outputs of the model: starting from all 0x7FFF, it
// flips one input's sign at a time and keeps each flip that raises the
// number of saturated MAC outputs, or their largest magnitude, until a
// whole pass improves nothing.
func SaturatingInput(m *quant.Model) []fixed.Q15 {
	saturatingInputs.Lock()
	defer saturatingInputs.Unlock()
	if x, ok := saturatingInputs.m[m]; ok {
		return x
	}
	score := func(x []fixed.Q15) int {
		outs := MACOutputs(m, x)
		peak := 0
		for _, out := range outs {
			for _, v := range out {
				peak = max(peak, int(v), -int(v))
			}
		}
		return Saturated(outs)<<16 | peak
	}
	x := make([]fixed.Q15, 64)
	for i := range x {
		x[i] = fixed.One
	}
	best := score(x)
	for improved := true; improved; {
		improved = false
		for i := range x {
			x[i] = ^x[i] // 0x7FFF <-> 0x8000
			if s := score(x); s > best {
				best, improved = s, true
			} else {
				x[i] = ^x[i]
			}
		}
	}
	if saturatingInputs.m == nil {
		saturatingInputs.m = map[*quant.Model][]fixed.Q15{}
	}
	saturatingInputs.m[m] = x
	return x
}
