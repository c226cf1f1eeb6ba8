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
	"ehdl/internal/exec/exectest"
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
		{"dense", exectest.Model(tb, exectest.DenseArch(), 31)},
		{"bcm", exectest.Model(tb, exectest.BCMArch(), 11)},
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

// TestEngineTrajectoryInputIndependent pins that a device's energy
// trajectory does not depend on its input. Across the golden matrix
// (5 engines × 3 models × 10 supplies) every input of
// exectest.TrajectoryInputs must give the golden input's digest of the
// device.Stats fields, the runner's verdict and the BootRecord ring:
// boots, times, energy and diagnosis are functions of (engine, model,
// supply) alone, and only the logits follow the input. Every run that
// completes under an intermittent supply must also produce the host
// reference executor's logits bit for bit, except the known-wrong
// cases. No input has differed yet; one that does goes into this
// comment, and the test stays.
//
// The fleet memo keys rows on the trajectory when Report.CleanResumes
// is set, so the test also pins that flag: it agrees across the
// inputs of every case, it is unset in every knownWrongLogits case,
// and a clean run that completes matches the reference.
func TestEngineTrajectoryInputIndependent(t *testing.T) {
	for _, c := range goldenCases(t) {
		golden := c.run(t, exectest.GoldenInput())
		want := trajectoryDigest(golden)
		ref := c.reference()
		var wrong []string
		for _, in := range exectest.TrajectoryInputs(c.model) {
			rep := c.run(t, in.X)
			if got := trajectoryDigest(rep); got != want {
				t.Errorf("%s: input %s gives trajectory %s, golden input %s", c.name, in.Name, got, want)
			}
			if rep.CleanResumes != golden.CleanResumes {
				t.Errorf("%s: input %s gives CleanResumes %v, golden input %v", c.name, in.Name, rep.CleanResumes, golden.CleanResumes)
			}
			if !c.logitsMatch(ref, in.X, rep) {
				wrong = append(wrong, in.Name)
			}
		}
		switch {
		case knownWrongLogits[c.name] && len(wrong) == 0:
			t.Errorf("%s: reference logits on every input now; drop it from knownWrongLogits", c.name)
		case !knownWrongLogits[c.name] && len(wrong) > 0:
			t.Errorf("%s: completed with logits off the reference on inputs %v", c.name, wrong)
		case knownWrongLogits[c.name] && golden.CleanResumes:
			t.Errorf("%s: completes off the reference, yet no resume was flagged stale", c.name)
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
		if n := exectest.Saturated(exectest.MACOutputs(c.model, exectest.SaturatingInput(c.model))); n == 0 {
			t.Errorf("%s: no MAC output saturates", c.name)
		}
	}
}

// FuzzEngineTrajectory holds the trajectory claim for arbitrary Q15
// inputs (two little-endian bytes per value, zero-padded to the
// model's 64 inputs) on every engine and model, under the paper's
// square wave and the smallest capacitor on the constant and sine
// sources. CleanResumes must agree with the golden input's, and
// completed runs must match the reference logits, except on the
// knownWrongLogits cases when their run is flagged.
func FuzzEngineTrajectory(f *testing.F) {
	var cases []goldenCase
	for _, c := range goldenCases(f) {
		switch c.sup.name {
		case "paper-square", "const-0.68uF", "sine-0.68uF":
			cases = append(cases, c)
		}
	}
	want := make([]string, len(cases))
	clean := make([]bool, len(cases))
	refs := make([]*quant.Executor, len(cases))
	for i, c := range cases {
		golden := c.run(f, exectest.GoldenInput())
		want[i], clean[i] = trajectoryDigest(golden), golden.CleanResumes
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
			if rep.CleanResumes != clean[i] {
				t.Fatalf("%s: input %v gives CleanResumes %v, golden input %v", c.name, in, rep.CleanResumes, clean[i])
			}
			if (clean[i] || !knownWrongLogits[c.name]) && !c.logitsMatch(refs[i], in, rep) {
				t.Fatalf("%s: input %v completed with logits off the reference", c.name, in)
			}
		}
	})
}
