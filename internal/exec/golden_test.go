package exec_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"ehdl/internal/core"
	"ehdl/internal/device"
	"ehdl/internal/exec"
	"ehdl/internal/exec/exectest"
	"ehdl/internal/flex"
	"ehdl/internal/harvest"
	"ehdl/internal/intermittent"
	"ehdl/internal/nn"
	"ehdl/internal/quant"
)

// maskedBCMModel is exectest.BCMArch with a shape-pruned first conv: every
// filter keeps the same seven of its nine kernel positions, so the
// quantized layer carries Kept and the store flashes compacted
// weights.
func maskedBCMModel(t testing.TB) *quant.Model {
	t.Helper()
	arch := exectest.BCMArch()
	rng := rand.New(rand.NewSource(13))
	net := arch.Build(rng)
	conv := net.Layers[0].(*nn.Conv2D)
	mask := make([]float64, len(conv.W.Data))
	for oc := 0; oc < arch.Specs[0].OutC; oc++ {
		for _, p := range []int{0, 2, 3, 4, 5, 6, 8} {
			mask[oc*9+p] = 1
		}
	}
	conv.ApplyMask(mask)
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
		t.Fatal(err)
	}
	if m.Layers[0].Kept == nil {
		t.Fatal("masked conv quantized without Kept positions")
	}
	return m
}

// goldenSupply builds one supply per case; nil capacitor config means
// bench power.
type goldenSupply struct {
	name    string
	capF    float64
	profile harvest.Profile
}

func goldenSupplies() []goldenSupply {
	s := []goldenSupply{
		{name: "continuous"},
		{name: "paper-square", capF: 100e-6,
			profile: harvest.SquareProfile{PeakWatts: 5e-3, Period: 0.1, Duty: 0.5}},
	}
	for _, c := range []struct {
		label string
		f     float64
	}{{"0.68uF", 0.68e-6}, {"1.0uF", 1.0e-6}, {"2.2uF", 2.2e-6}, {"3.3uF", 3.3e-6}} {
		s = append(s,
			goldenSupply{name: "const-" + c.label, capF: c.f,
				profile: harvest.ConstantProfile{Watts: 4e-4}},
			goldenSupply{name: "sine-" + c.label, capF: c.f,
				profile: harvest.SineProfile{PeakWatts: 8e-4, Period: 0.05}})
	}
	return s
}

// statsDigest hashes the logits, the bits of every device.Stats field
// and the runner's verdict of one intermittent run.
func statsDigest(rep exec.Report) string {
	h := sha256.New()
	word := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	float := func(v float64) { word(math.Float64bits(v)) }
	str := func(s string) { word(uint64(len(s))); h.Write([]byte(s)) }

	word(uint64(len(rep.Logits)))
	for _, v := range rep.Logits {
		word(uint64(uint16(v)))
	}
	word(uint64(int64(rep.Predicted)))
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
	if res.Completed {
		word(1)
	} else {
		word(0)
	}
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
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// TestEngineStatsGolden pins the simulated bits of every engine: five
// engines × three models × ten supplies, each case hashing the logits,
// every device.Stats field and the runner's verdict. An engine
// refactor that reorders or drops a single charge changes a digest.
func TestEngineStatsGolden(t *testing.T) {
	models := []struct {
		name string
		m    *quant.Model
	}{
		{"dense", exectest.Model(t, exectest.DenseArch(), 31)},
		{"bcm", exectest.Model(t, exectest.BCMArch(), 11)},
		{"bcm-masked", maskedBCMModel(t)},
	}
	// The microfarad capacitors need FLEX to warn earlier than its
	// paper-capacitor default (see factories).
	fxCfg := &flex.Config{VWarn: 3.0, SampleStride: 2}
	seen := 0
	for _, kind := range core.AllEngines() {
		for _, mc := range models {
			in := exectest.RandInput(64, 5)
			for _, sup := range goldenSupplies() {
				name := fmt.Sprintf("%s/%s/%s", kind, mc.name, sup.name)
				var supply device.Supply = device.Continuous{}
				if sup.profile != nil {
					cfg := harvest.PaperConfig()
					cfg.CapacitanceF = sup.capF
					c, err := harvest.NewCapacitor(cfg, sup.profile)
					if err != nil {
						t.Fatal(err)
					}
					supply = c
				}
				d := device.New(device.DefaultCosts(), supply)
				store, err := exec.NewModelStore(d, mc.m)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				eng, err := core.NewEngine(kind, d, store, in, fxCfg)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got := statsDigest(exec.RunIntermittent(d, eng, &intermittent.Runner{}))
				want, ok := goldenDigests[name]
				switch {
				case !ok:
					t.Errorf("%s: no pinned digest (got %s)", name, got)
				case got != want:
					t.Errorf("%s: digest %s, want %s", name, got, want)
				}
				seen++
			}
		}
	}
	if seen != len(goldenDigests) {
		t.Errorf("ran %d cases, %d pinned", seen, len(goldenDigests))
	}
}

// goldenDigests are the statsDigest values of every case.
var goldenDigests = map[string]string{
	"base/dense/continuous":            "c20795e694075705",
	"base/dense/paper-square":          "c20795e694075705",
	"base/dense/const-0.68uF":          "b2f0e8ab58ee0fcb",
	"base/dense/sine-0.68uF":           "daeb06b78b5236f3",
	"base/dense/const-1.0uF":           "9a092af406b7a359",
	"base/dense/sine-1.0uF":            "a656bc90f579e2a6",
	"base/dense/const-2.2uF":           "c64edf959313e47b",
	"base/dense/sine-2.2uF":            "ebbe7e643ac25a45",
	"base/dense/const-3.3uF":           "c69bdfa64bf1e7a0",
	"base/dense/sine-3.3uF":            "c184eb60381842b8",
	"base/bcm/continuous":              "fc1e10480408ebee",
	"base/bcm/paper-square":            "fc1e10480408ebee",
	"base/bcm/const-0.68uF":            "b2f0e8ab58ee0fcb",
	"base/bcm/sine-0.68uF":             "daeb06b78b5236f3",
	"base/bcm/const-1.0uF":             "9a092af406b7a359",
	"base/bcm/sine-1.0uF":              "a656bc90f579e2a6",
	"base/bcm/const-2.2uF":             "c64edf959313e47b",
	"base/bcm/sine-2.2uF":              "ebbe7e643ac25a45",
	"base/bcm/const-3.3uF":             "c69bdfa64bf1e7a0",
	"base/bcm/sine-3.3uF":              "c184eb60381842b8",
	"base/bcm-masked/continuous":       "72449102d6c32f56",
	"base/bcm-masked/paper-square":     "72449102d6c32f56",
	"base/bcm-masked/const-0.68uF":     "4b1ab395ebecccd8",
	"base/bcm-masked/sine-0.68uF":      "52115f73cded8472",
	"base/bcm-masked/const-1.0uF":      "b67d0b6f73087052",
	"base/bcm-masked/sine-1.0uF":       "fe20cd894dc528d7",
	"base/bcm-masked/const-2.2uF":      "045cca059ee3fa4d",
	"base/bcm-masked/sine-2.2uF":       "bb16fd22288abaec",
	"base/bcm-masked/const-3.3uF":      "4c3dc5ec4fc5d8d5",
	"base/bcm-masked/sine-3.3uF":       "f436f981a2f191f3",
	"sonic/dense/continuous":           "cc7516a95cc0d37d",
	"sonic/dense/paper-square":         "cc7516a95cc0d37d",
	"sonic/dense/const-0.68uF":         "107c3d55c49b9129",
	"sonic/dense/sine-0.68uF":          "59bfe84b3d17e883",
	"sonic/dense/const-1.0uF":          "e50c3282f5b7fcf5",
	"sonic/dense/sine-1.0uF":           "c238b73129b527fd",
	"sonic/dense/const-2.2uF":          "ead41cfdd5f9e140",
	"sonic/dense/sine-2.2uF":           "2a5e0d417f40c0fc",
	"sonic/dense/const-3.3uF":          "9777dc35e849f36d",
	"sonic/dense/sine-3.3uF":           "e9aed84531545b6a",
	"sonic/bcm/continuous":             "26fdb752e46f0b52",
	"sonic/bcm/paper-square":           "26fdb752e46f0b52",
	"sonic/bcm/const-0.68uF":           "2dff546a288ae109",
	"sonic/bcm/sine-0.68uF":            "6cefbc27b1ef5aa1",
	"sonic/bcm/const-1.0uF":            "12de0204337a19e3",
	"sonic/bcm/sine-1.0uF":             "a371682bdca91e28",
	"sonic/bcm/const-2.2uF":            "250a65de00e17ade",
	"sonic/bcm/sine-2.2uF":             "28cdf92a827eb2fe",
	"sonic/bcm/const-3.3uF":            "826fac8fae63435a",
	"sonic/bcm/sine-3.3uF":             "010ba342b0575367",
	"sonic/bcm-masked/continuous":      "c3799d5bff2645b1",
	"sonic/bcm-masked/paper-square":    "c3799d5bff2645b1",
	"sonic/bcm-masked/const-0.68uF":    "ebcb6fddc6b34425",
	"sonic/bcm-masked/sine-0.68uF":     "a8f1eb04a73c96d5",
	"sonic/bcm-masked/const-1.0uF":     "992b63c4009e1638",
	"sonic/bcm-masked/sine-1.0uF":      "555c0f2a16396d79",
	"sonic/bcm-masked/const-2.2uF":     "ca9a0280b691173e",
	"sonic/bcm-masked/sine-2.2uF":      "4f553ffbb65e5e4e",
	"sonic/bcm-masked/const-3.3uF":     "a52468de6b6a1c97",
	"sonic/bcm-masked/sine-3.3uF":      "ea6edc30173fb85f",
	"tails/dense/continuous":           "bac76e153e7d6d41",
	"tails/dense/paper-square":         "bac76e153e7d6d41",
	"tails/dense/const-0.68uF":         "3c3cfd9c50812d0b",
	"tails/dense/sine-0.68uF":          "19eb2908f136d5ac",
	"tails/dense/const-1.0uF":          "0aded157cc178735",
	"tails/dense/sine-1.0uF":           "8e631ff1cc0fe72a",
	"tails/dense/const-2.2uF":          "70c25f71bc8b4e1f",
	"tails/dense/sine-2.2uF":           "fbd713d4606bffbf",
	"tails/dense/const-3.3uF":          "298b60b5ce86dc95",
	"tails/dense/sine-3.3uF":           "3fd46d445d97386d",
	"tails/bcm/continuous":             "92fb3ab13f4185fd",
	"tails/bcm/paper-square":           "92fb3ab13f4185fd",
	"tails/bcm/const-0.68uF":           "be3dcb8017d7a205",
	"tails/bcm/sine-0.68uF":            "76ced8f735512270",
	"tails/bcm/const-1.0uF":            "e4ddbe2326e94aee",
	"tails/bcm/sine-1.0uF":             "b36c47be46555945",
	"tails/bcm/const-2.2uF":            "64f9327619801a56",
	"tails/bcm/sine-2.2uF":             "d8093d28a478641f",
	"tails/bcm/const-3.3uF":            "1b9040d3741ef0ff",
	"tails/bcm/sine-3.3uF":             "a065f9ffe03e291f",
	"tails/bcm-masked/continuous":      "fc3beffb36a5daeb",
	"tails/bcm-masked/paper-square":    "fc3beffb36a5daeb",
	"tails/bcm-masked/const-0.68uF":    "5035759ae8457c5e",
	"tails/bcm-masked/sine-0.68uF":     "2fa74413322b567d",
	"tails/bcm-masked/const-1.0uF":     "14109dad804ccc7a",
	"tails/bcm-masked/sine-1.0uF":      "ff7c8755b414ffd7",
	"tails/bcm-masked/const-2.2uF":     "c7d76b5f8ba0b757",
	"tails/bcm-masked/sine-2.2uF":      "9dfc9e8dffba291f",
	"tails/bcm-masked/const-3.3uF":     "b8faad47e61909df",
	"tails/bcm-masked/sine-3.3uF":      "7b1466dc3e449b60",
	"ace/dense/continuous":             "5b2abc31391982cf",
	"ace/dense/paper-square":           "5b2abc31391982cf",
	"ace/dense/const-0.68uF":           "c3a9a94290d04127",
	"ace/dense/sine-0.68uF":            "2dafeb8231ca39da",
	"ace/dense/const-1.0uF":            "8f7202fb335562ed",
	"ace/dense/sine-1.0uF":             "b83636aebba00e24",
	"ace/dense/const-2.2uF":            "e3064b965be36d49",
	"ace/dense/sine-2.2uF":             "f5794d61c8bea9b7",
	"ace/dense/const-3.3uF":            "06fce40b9345e3aa",
	"ace/dense/sine-3.3uF":             "55f0da5fd7708983",
	"ace/bcm/continuous":               "c6d22ee8c99ebdd8",
	"ace/bcm/paper-square":             "c6d22ee8c99ebdd8",
	"ace/bcm/const-0.68uF":             "c3a9a94290d04127",
	"ace/bcm/sine-0.68uF":              "2dafeb8231ca39da",
	"ace/bcm/const-1.0uF":              "8f7202fb335562ed",
	"ace/bcm/sine-1.0uF":               "b83636aebba00e24",
	"ace/bcm/const-2.2uF":              "e3064b965be36d49",
	"ace/bcm/sine-2.2uF":               "f5794d61c8bea9b7",
	"ace/bcm/const-3.3uF":              "06fce40b9345e3aa",
	"ace/bcm/sine-3.3uF":               "55f0da5fd7708983",
	"ace/bcm-masked/continuous":        "4bfd5e7fc89a20cb",
	"ace/bcm-masked/paper-square":      "4bfd5e7fc89a20cb",
	"ace/bcm-masked/const-0.68uF":      "f94ff58dfeb0e66d",
	"ace/bcm-masked/sine-0.68uF":       "98912f5b9144018f",
	"ace/bcm-masked/const-1.0uF":       "8f005ba372c2f612",
	"ace/bcm-masked/sine-1.0uF":        "7f7d691392efe5b5",
	"ace/bcm-masked/const-2.2uF":       "0e6cff584cc88d53",
	"ace/bcm-masked/sine-2.2uF":        "ad4cec01b09fc312",
	"ace/bcm-masked/const-3.3uF":       "37e15179bec1c317",
	"ace/bcm-masked/sine-3.3uF":        "85bf4635daeb652c",
	"ace+flex/dense/continuous":        "8a3aa64b9a3a039a",
	"ace+flex/dense/paper-square":      "8a3aa64b9a3a039a",
	"ace+flex/dense/const-0.68uF":      "0202a6d5bd49ea3f",
	"ace+flex/dense/sine-0.68uF":       "1f8f8dd016ce345f",
	"ace+flex/dense/const-1.0uF":       "b3e8db6ef4f3225a",
	"ace+flex/dense/sine-1.0uF":        "a0e0c488bc2dec78",
	"ace+flex/dense/const-2.2uF":       "2eee52fd86527b11",
	"ace+flex/dense/sine-2.2uF":        "baf11167d67d1c7b",
	"ace+flex/dense/const-3.3uF":       "69beef62baae29fe",
	"ace+flex/dense/sine-3.3uF":        "9a2d999f56dbcd4c",
	"ace+flex/bcm/continuous":          "946260ea1403c509",
	"ace+flex/bcm/paper-square":        "946260ea1403c509",
	"ace+flex/bcm/const-0.68uF":        "2a08ab4359173a64",
	"ace+flex/bcm/sine-0.68uF":         "5902f794896db727",
	"ace+flex/bcm/const-1.0uF":         "231324209ff0f583",
	"ace+flex/bcm/sine-1.0uF":          "ee486ca2ec70fb29",
	"ace+flex/bcm/const-2.2uF":         "715f8dbf11616471",
	"ace+flex/bcm/sine-2.2uF":          "e4d34558a17e59d8",
	"ace+flex/bcm/const-3.3uF":         "96ee29327629fd18",
	"ace+flex/bcm/sine-3.3uF":          "1540e1eacce9872d",
	"ace+flex/bcm-masked/continuous":   "d7f9638d5b6ab2e9",
	"ace+flex/bcm-masked/paper-square": "d7f9638d5b6ab2e9",
	"ace+flex/bcm-masked/const-0.68uF": "0f4f5cebdaf7402a",
	"ace+flex/bcm-masked/sine-0.68uF":  "80dcea2ee9298c7d",
	"ace+flex/bcm-masked/const-1.0uF":  "98e1992e1126e2bd",
	"ace+flex/bcm-masked/sine-1.0uF":   "f2820f03637440b3",
	"ace+flex/bcm-masked/const-2.2uF":  "c8e202aaedefbb70",
	"ace+flex/bcm-masked/sine-2.2uF":   "8ea9ab5e478c270c",
	"ace+flex/bcm-masked/const-3.3uF":  "8ef39e2c87fb53d6",
	"ace+flex/bcm-masked/sine-3.3uF":   "0d1448e93cc7a560",
}
