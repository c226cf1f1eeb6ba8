package exec_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ehdl/internal/core"
	"ehdl/internal/device"
	"ehdl/internal/exec"
	"ehdl/internal/fixed"
	"ehdl/internal/flex"
	"ehdl/internal/harvest"
	"ehdl/internal/intermittent"
	"ehdl/internal/quant"
)

// goldenCase is one cell of TestEngineStatsGolden's matrix: an engine,
// a model and a supply.
type goldenCase struct {
	name  string
	kind  core.EngineKind
	model *quant.Model
	sup   goldenSupply
}

// goldenCases lists the golden matrix's 150 cases in its order.
func goldenCases(tb testing.TB) []goldenCase {
	models := []struct {
		name string
		m    *quant.Model
	}{
		{"dense", testModel(tb, denseArch(), 31)},
		{"bcm", testModel(tb, bcmArch(), 11)},
		{"bcm-masked", maskedBCMModel(tb)},
	}
	var cases []goldenCase
	for _, kind := range core.AllEngines() {
		for _, mc := range models {
			for _, sup := range goldenSupplies() {
				cases = append(cases, goldenCase{
					name:  fmt.Sprintf("%s/%s/%s", kind, mc.name, sup.name),
					kind:  kind,
					model: mc.m,
					sup:   sup,
				})
			}
		}
	}
	return cases
}

// goldenInput is the input every golden case runs.
func goldenInput() []fixed.Q15 { return randInput(64, 5) }

// run simulates the case on a fresh device with input in, exactly as
// TestEngineStatsGolden does.
func (c goldenCase) run(tb testing.TB, in []fixed.Q15) exec.Report {
	tb.Helper()
	var supply device.Supply = device.Continuous{}
	if c.sup.profile != nil {
		cfg := harvest.PaperConfig()
		cfg.CapacitanceF = c.sup.capF
		capacitor, err := harvest.NewCapacitor(cfg, c.sup.profile)
		if err != nil {
			tb.Fatal(err)
		}
		supply = capacitor
	}
	d := device.New(device.DefaultCosts(), supply)
	store, err := exec.NewModelStore(d, c.model)
	if err != nil {
		tb.Fatalf("%s: %v", c.name, err)
	}
	eng, err := core.NewEngine(c.kind, d, store, in, &flex.Config{VWarn: 3.0, SampleStride: 2})
	if err != nil {
		tb.Fatalf("%s: %v", c.name, err)
	}
	return exec.RunIntermittent(d, eng, &intermittent.Runner{})
}

// reference is the host executor of the case's BCM discipline: FFT
// for the ACE engines, time domain for the baselines.
func (c goldenCase) reference() *quant.Executor {
	if c.kind == core.EngineACE || c.kind == core.EngineACEFLEX {
		return quant.NewExecutor(c.model)
	}
	return quant.NewTimeExecutor(c.model)
}

// logitsMatch reports whether a run that completed under an
// intermittent supply produced the reference executor's logits bit for
// bit (true for any other run).
func (c goldenCase) logitsMatch(ref *quant.Executor, in []fixed.Q15, rep exec.Report) bool {
	if c.sup.profile == nil || !rep.Intermittent.Completed {
		return true
	}
	want := ref.Forward(in)
	if len(rep.Logits) != len(want) {
		return false
	}
	for i := range want {
		if rep.Logits[i] != want[i] {
			return false
		}
	}
	return true
}

// knownWrongLogits are the golden cases that complete with logits off
// the reference on some inputs of the trajectory set — "0x7fff",
// "saturating", "random-1" and "random-3" — through a crash-
// consistency fault in ACE+FLEX, not in the trajectory. ACE ping-pongs
// activations between two FRAM buffers, so layer L+1 writes over layer
// L's input. FLEX checkpoints only at sampled boundaries below VWarn,
// so on the smallest capacitors an outage can land after layer L+1's
// first output write and before its first checkpoint, and the resumed
// layer L re-reads an input that is no longer there. Committing once
// at entry to every layer after the first checkpoint mends all three
// cases. TestEngineTrajectoryInputIndependent fails when one of them
// matches the reference on every input, so a fix must empty this set.
var knownWrongLogits = map[string]bool{
	"ace+flex/dense/const-0.68uF": true,
	"ace+flex/dense/sine-0.68uF":  true,
	"ace+flex/dense/sine-1.0uF":   true,
}

// trajectoryDigest hashes what a run's energy trajectory decides:
// every device.Stats field, the runner's verdict and the BootRecord
// ring. The logits and prediction are left out, and so is each
// record's NVHash: it signs the committed values, which are the
// input's by construction.
func trajectoryDigest(rep exec.Report) string {
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	float := func(v float64) { word(math.Float64bits(v)) }
	str := func(s string) { word(uint64(len(s))); h.Write([]byte(s)) }
	flag := func(v bool) {
		if v {
			word(1)
		} else {
			word(0)
		}
	}

	st := rep.Stats
	word(st.ActiveCycles)
	float(st.ActiveSeconds)
	float(st.OffSeconds)
	float(st.WallSeconds)
	word(st.Boots)
	for _, e := range st.Energy {
		float(e)
	}
	float(st.TotalEnergynJ)
	word(st.NVWrites)

	res := rep.Intermittent
	flag(res.Completed)
	word(res.Boots)
	dg := res.Diagnosis
	str(string(dg.Kind))
	word(uint64(dg.Window))
	word(dg.Progress)
	word(dg.FastForwarded)
	str(dg.Detail)
	if res.Err != nil {
		str(res.Err.Error())
	} else {
		str("")
	}
	word(uint64(len(res.Ledger)))
	for _, r := range res.Ledger {
		word(r.Boot)
		flag(r.Failed)
		word(r.Cycles)
		for _, e := range r.EnergynJ {
			float(e)
		}
		word(r.NVWrites)
		word(r.FRAMWriteWords)
		word(r.Progress)
		word(r.Delta)
		float(r.OffSec)
		float(r.CycleHarvestJ)
		word(r.Token.EnergyBits)
		word(r.Token.PhaseBits)
		flag(r.HasToken)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// namedInput is one input of the trajectory set.
type namedInput struct {
	name string
	x    []fixed.Q15
}

// trajectoryInputs is the input set every golden case must run to one
// trajectory: the golden input, the degenerate inputs that could make
// two boots' write logs look alike, one input that saturates the
// first layer's MACs, and three seeded random inputs.
func trajectoryInputs(m *quant.Model) []namedInput {
	const n = 64
	fill := func(f func(i int) fixed.Q15) []fixed.Q15 {
		x := make([]fixed.Q15, n)
		for i := range x {
			x[i] = f(i)
		}
		return x
	}
	set := []namedInput{
		{"golden", goldenInput()},
		{"zero", fill(func(int) fixed.Q15 { return 0 })},
		{"0x7fff", fill(func(int) fixed.Q15 { return fixed.One })},
		{"0x8000", fill(func(int) fixed.Q15 { return fixed.MinusOne })},
		{"alternating", fill(func(i int) fixed.Q15 {
			if i%2 == 0 {
				return fixed.One
			}
			return fixed.MinusOne
		})},
		{"saturating", saturatingInput(m)},
	}
	for seed := int64(1); seed <= 3; seed++ {
		set = append(set, namedInput{fmt.Sprintf("random-%d", seed), randInput(n, 100+seed)})
	}
	return set
}

// macOutputs runs x through the model's time-domain reference layer
// by layer and returns the outputs of its MAC layers (conv, dense and
// BCM).
func macOutputs(m *quant.Model, x []fixed.Q15) [][]fixed.Q15 {
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

// saturated counts the full-scale values among outs.
func saturated(outs [][]fixed.Q15) int {
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

// saturatingInputs caches saturatingInput per model.
var saturatingInputs = map[*quant.Model][]fixed.Q15{}

// saturatingInput searches the full-scale inputs for one that
// saturates MAC outputs of the model: starting from all 0x7FFF, it
// flips one input's sign at a time and keeps each flip that raises the
// number of saturated MAC outputs, or their largest magnitude, until a
// whole pass improves nothing.
func saturatingInput(m *quant.Model) []fixed.Q15 {
	if x, ok := saturatingInputs[m]; ok {
		return x
	}
	score := func(x []fixed.Q15) int {
		outs := macOutputs(m, x)
		peak := 0
		for _, out := range outs {
			for _, v := range out {
				peak = max(peak, int(v), -int(v))
			}
		}
		return saturated(outs)<<16 | peak
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
	saturatingInputs[m] = x
	return x
}

// TestEngineTrajectoryInputIndependent pins that a device's energy
// trajectory does not depend on its input. Across the golden matrix
// (5 engines × 3 models × 10 supplies) every input of
// trajectoryInputs must give the golden input's digest of the
// device.Stats fields, the runner's verdict and the BootRecord ring:
// boots, times, energy and diagnosis are functions of (engine, model,
// supply) alone, and only the logits follow the input. Every run that
// completes under an intermittent supply must also produce the host
// reference executor's logits bit for bit. No input has differed yet;
// one that does goes into this comment, and the test stays.
func TestEngineTrajectoryInputIndependent(t *testing.T) {
	for _, c := range goldenCases(t) {
		want := trajectoryDigest(c.run(t, goldenInput()))
		ref := c.reference()
		var wrong []string
		for _, in := range trajectoryInputs(c.model) {
			rep := c.run(t, in.x)
			if got := trajectoryDigest(rep); got != want {
				t.Errorf("%s: input %s gives trajectory %s, golden input %s", c.name, in.name, got, want)
			}
			if !c.logitsMatch(ref, in.x, rep) {
				wrong = append(wrong, in.name)
			}
		}
		switch {
		case knownWrongLogits[c.name] && len(wrong) == 0:
			t.Errorf("%s: reference logits on every input now; drop it from knownWrongLogits", c.name)
		case !knownWrongLogits[c.name] && len(wrong) > 0:
			t.Errorf("%s: completed with logits off the reference on inputs %v", c.name, wrong)
		}
	}
}

// TestSaturatingInputSaturates: the saturating input drives MAC
// outputs to full scale on the dense and bcm-masked models. The bcm
// model has no such input among the ones the search reaches: its best
// peaks at 28527 of 32767, in the first conv.
func TestSaturatingInputSaturates(t *testing.T) {
	for _, c := range goldenCases(t)[:30] { // one engine's cases cover every model
		if strings.Contains(c.name, "/bcm/") {
			continue
		}
		if n := saturated(macOutputs(c.model, saturatingInput(c.model))); n == 0 {
			t.Errorf("%s: no MAC output saturates", c.name)
		}
	}
}

// FuzzEngineTrajectory holds the trajectory claim for arbitrary Q15
// inputs (two little-endian bytes per value, zero-padded to the
// model's 64 inputs) on every engine and model, under the paper's
// square wave and the smallest capacitor on the constant and sine
// sources. Completed runs must match the reference logits, except on
// the knownWrongLogits cases.
func FuzzEngineTrajectory(f *testing.F) {
	var cases []goldenCase
	for _, c := range goldenCases(f) {
		switch c.sup.name {
		case "paper-square", "const-0.68uF", "sine-0.68uF":
			cases = append(cases, c)
		}
	}
	want := make([]string, len(cases))
	refs := make([]*quant.Executor, len(cases))
	for i, c := range cases {
		want[i] = trajectoryDigest(c.run(f, goldenInput()))
		refs[i] = c.reference()
	}
	rng := rand.New(rand.NewSource(7))
	for _, seed := range [][]byte{nil, {0xff, 0x7f}, {0x00, 0x80, 0xff, 0x7f}, make([]byte, 128)} {
		f.Add(seed)
	}
	random := make([]byte, 128)
	rng.Read(random)
	f.Add(random)
	f.Fuzz(func(t *testing.T, data []byte) {
		in := make([]fixed.Q15, 64)
		for i := range in {
			if 2*i+1 < len(data) {
				in[i] = fixed.Q15(binary.LittleEndian.Uint16(data[2*i:]))
			}
		}
		for i, c := range cases {
			rep := c.run(t, in)
			if got := trajectoryDigest(rep); got != want[i] {
				t.Fatalf("%s: input %v gives trajectory %s, golden input %s", c.name, in, got, want[i])
			}
			if !knownWrongLogits[c.name] && !c.logitsMatch(refs[i], in, rep) {
				t.Fatalf("%s: input %v completed with logits off the reference", c.name, in)
			}
		}
	})
}
