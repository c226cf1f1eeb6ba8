package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"ehdl/internal/cli"
	"ehdl/internal/nn"
	"ehdl/internal/quant"
)

// TestMain lets the tests run the command itself: with
// EHFLEET_RUN_MAIN=1 in its environment the test binary is ehfleet.
func TestMain(m *testing.M) {
	if os.Getenv("EHFLEET_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// ehfleet runs the command in dir and returns its stdout, its stderr
// and whether it exited zero.
func ehfleet(t *testing.T, dir string, args ...string) (stdout, stderr string, ok bool) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, args...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "EHFLEET_RUN_MAIN=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err = cmd.Run()
	if err != nil {
		if _, exited := err.(*exec.ExitError); !exited {
			t.Fatal(err)
		}
	}
	return out.String(), errOut.String(), err == nil
}

// mustRun is ehfleet for runs that must succeed.
func mustRun(t *testing.T, dir string, args ...string) string {
	t.Helper()
	stdout, stderr, ok := ehfleet(t, dir, args...)
	if !ok {
		t.Fatalf("ehfleet %s failed:\n%s", strings.Join(args, " "), stderr)
	}
	return stdout
}

// writeModel saves a randomly initialized model with the MNIST input
// geometry and name (so the dataset resolves) to dir/name.
func writeModel(t *testing.T, dir, name string, seed int64) {
	t.Helper()
	arch := &nn.Arch{
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
	rng := rand.New(rand.NewSource(seed))
	net := arch.Build(rng)
	calib := make([][]float64, 4)
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
	if err := cli.SaveModel(filepath.Join(dir, name), m); err != nil {
		t.Fatal(err)
	}
}

// writeBundle lays out a model and a harvest trace in a fresh
// directory, the working directory of every run in these tests.
func writeBundle(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	writeModel(t, dir, "mnist.gob", 9)
	trace := "0,0.004\n0.05,0.006\n0.1,0.005\n"
	if err := os.WriteFile(filepath.Join(dir, "solar.csv"), []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

var (
	deviceMember = regexp.MustCompile(`"device":"[^"]*",`)
	hostTime     = regexp.MustCompile(`host: .*`)
)

// flagCases cover every flag-mode fleet shape: engine lists that do
// not divide the fleet, each profile kind, trace repeat and hold,
// continuous and quantized jitter, and non-default cap and leak. Each
// comes with its equivalent hand-written scenario document and the
// sha256 of its rows with the "device" member removed — the digests
// the flag-mode fleet compiler produced before it became a one-spec
// scenario document.
var flagCases = []struct {
	name  string
	flags []string
	seed  string
	doc   string
	rows  string
}{
	{
		name:  "engine-all-square",
		flags: []string{"-engine", "all", "-n", "7"},
		seed:  "1",
		doc: `{"devices": [{"name": "dev", "count": 7, "model": "mnist.gob", "engine": "all", "jitter": 0.2,
  "profile": {"kind": "square", "power_w": 5e-3, "period_s": 0.1, "duty": 0.5}}]}`,
		rows: "d8184969857a0a391e8992b2c92f2b3e1e4fc041f8f1446f9eb04d5cccf24f21",
	},
	{
		name:  "engine-list-sine",
		flags: []string{"-engine", "ace, sonic", "-n", "5", "-profile", "sine", "-power", "6e-3", "-period", "0.2", "-jitter", "0.1"},
		seed:  "3",
		doc: `{"devices": [{"name": "dev", "count": 5, "model": "mnist.gob", "engine": "ace, sonic", "jitter": 0.1,
  "profile": {"kind": "sine", "power_w": 6e-3, "period_s": 0.2}}]}`,
		rows: "a33c821ee5a260fa2725cdf207ec07155a06ad59581fa88b9efc3f8263b80d39",
	},
	{
		name:  "const-cap-leak-quantized",
		flags: []string{"-engine", "tails", "-n", "3", "-profile", "const", "-power", "4e-3", "-cap", "220e-6", "-leak", "1e-5", "-jitter", "0.05", "-jitter-steps", "4"},
		seed:  "1",
		doc: `{"devices": [{"name": "dev", "count": 3, "model": "mnist.gob", "engine": "tails", "cap_f": 220e-6, "leak_w": 1e-5,
  "jitter": 0.05, "jitter_steps": 4, "profile": {"kind": "const", "power_w": 4e-3}}]}`,
		rows: "967fa79a4392d4ba042193f48910e59384465cba8012528bab9f1e1d6874d996",
	},
	{
		name:  "trace-repeat-quantized",
		flags: []string{"-engine", "sonic", "-n", "6", "-profile", "trace", "-trace", "solar.csv", "-trace-repeat", "-jitter", "0.25", "-jitter-steps", "8", "-cap", "47e-6"},
		seed:  "1",
		doc: `{"devices": [{"name": "dev", "count": 6, "model": "mnist.gob", "engine": "sonic", "cap_f": 47e-6, "jitter": 0.25, "jitter_steps": 8,
  "profile": {"kind": "trace", "trace": "solar.csv", "repeat": true}}]}`,
		rows: "165b01d597ebfde5c1e3d47debad7c102e51800a098a08e18d202113ddcf204c",
	},
	{
		name:  "trace-hold",
		flags: []string{"-engine", "base,ace", "-n", "5", "-profile", "trace", "-trace", "solar.csv", "-jitter", "0.3"},
		seed:  "2",
		doc: `{"devices": [{"name": "dev", "count": 5, "model": "mnist.gob", "engine": "base,ace", "jitter": 0.3,
  "profile": {"kind": "trace", "trace": "solar.csv"}}]}`,
		rows: "cc466781ade7674f46b25fe2f24d64f469aa796f11132fd8d92de70876e242a0",
	},
	{
		name:  "square-duty-no-jitter",
		flags: []string{"-engine", "sonic", "-n", "4", "-power", "3e-3", "-period", "0.05", "-duty", "0.3", "-cap", "47e-6", "-leak", "2e-5", "-jitter", "0"},
		seed:  "1",
		doc: `{"devices": [{"name": "dev", "count": 4, "model": "mnist.gob", "engine": "sonic", "cap_f": 47e-6, "leak_w": 2e-5,
  "profile": {"kind": "square", "power_w": 3e-3, "period_s": 0.05, "duty": 0.3}}]}`,
		rows: "d266471b8ff199bfa2a3c13857b38bc374d58532f273771792396d412bbf7d2f",
	},
}

// TestFlagModeRows pins flag mode's rows: their device-stripped
// digest, and byte equality (rows and report body) with the
// equivalent hand-written scenario document.
func TestFlagModeRows(t *testing.T) {
	dir := writeBundle(t)
	for _, c := range flagCases {
		t.Run(c.name, func(t *testing.T) {
			flagRows := c.name + ".flags.ndjson"
			args := append([]string{"-model", "mnist.gob", "-seed", c.seed, "-out", flagRows}, c.flags...)
			flagRep := mustRun(t, dir, args...)
			rows, err := os.ReadFile(filepath.Join(dir, flagRows))
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(deviceMember.ReplaceAll(rows, nil))
			if got := hex.EncodeToString(sum[:]); got != c.rows {
				t.Errorf("device-stripped rows hash %s, want %s", got, c.rows)
			}

			doc := c.name + ".json"
			if err := os.WriteFile(filepath.Join(dir, doc), []byte(c.doc), 0o644); err != nil {
				t.Fatal(err)
			}
			docRows := c.name + ".doc.ndjson"
			docRep := mustRun(t, dir, "-scenarios", doc, "-seed", c.seed, "-out", docRows)
			want, err := os.ReadFile(filepath.Join(dir, docRows))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(rows, want) {
				t.Errorf("flag-mode rows differ from the document's:\n%s\nvs\n%s", rows, want)
			}
			if a, b := reportBody(flagRep), reportBody(docRep); a != b {
				t.Errorf("flag-mode report differs from the document's:\n%s\nvs\n%s", a, b)
			}
		})
	}
}

// reportBody drops the header line (which names the mode) and the
// host wall-clock time from a run's stdout.
func reportBody(stdout string) string {
	_, body, _ := strings.Cut(stdout, "\n")
	return hostTime.ReplaceAllString(body, "")
}

// TestFlagModeErrors: the flag-only checks keep their messages, and
// everything else is the scenario compiler's verdict, named as flag
// mode's.
func TestFlagModeErrors(t *testing.T) {
	dir := writeBundle(t)
	for _, c := range []struct {
		args []string
		want []string
	}{
		{nil, []string{"-model or -scenarios is required"}},
		{[]string{"-model", "mnist.gob", "-n", "0"}, []string{"-n must be >= 1, got 0"}},
		{[]string{"-model", "mnist.gob", "-jitter", "1"}, []string{"flag mode", "jitter must be in [0, 1), got 1"}},
		{[]string{"-model", "mnist.gob", "-jitter-steps", "-2"}, []string{"flag mode", "jitter_steps must be >= 0, got -2"}},
		{[]string{"-model", "mnist.gob", "-engine", "ace,warp"}, []string{"flag mode", `unknown engine "warp"`}},
		{[]string{"-model", "mnist.gob", "-engine", " , "}, []string{"flag mode", "no engines"}},
		{[]string{"-model", "mnist.gob", "-profile", "trace"}, []string{"flag mode", `needs a "trace" CSV path`}},
		{[]string{"-model", "mnist.gob", "-profile", "square", "-duty", "0"}, []string{"flag mode", "Duty in (0, 1], got 0"}},
		{[]string{"-model", "missing.gob"}, []string{"flag mode", "missing.gob"}},
	} {
		_, stderr, ok := ehfleet(t, dir, c.args...)
		if ok {
			t.Errorf("ehfleet %q succeeded", c.args)
			continue
		}
		for _, w := range c.want {
			if !strings.Contains(stderr, w) {
				t.Errorf("ehfleet %q: stderr %q lacks %q", c.args, stderr, w)
			}
		}
	}
}

// TestFlagModeCheckpointIdentity: a flag-mode checkpoint resumes only
// against the same flags and the same model content — a swapped
// model file under the same name is rejected.
func TestFlagModeCheckpointIdentity(t *testing.T) {
	dir := writeBundle(t)
	args := []string{"-model", "mnist.gob", "-n", "6", "-engine", "all", "-jitter-steps", "4",
		"-out", "rows.ndjson", "-checkpoint", "ck.ehdl", "-checkpoint-every", "2"}
	mustRun(t, dir, args...)
	want, err := os.ReadFile(filepath.Join(dir, "rows.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	mustRun(t, dir, append(args, "-resume")...)
	got, err := os.ReadFile(filepath.Join(dir, "rows.ndjson"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("resumed rows differ:\n%s\nvs\n%s", got, want)
	}

	if _, stderr, ok := ehfleet(t, dir, append(args, "-resume", "-jitter", "0.1")...); ok ||
		!strings.Contains(stderr, "checkpoint does not match") {
		t.Errorf("resume under different flags: ok=%v, stderr %q", ok, stderr)
	}
	writeModel(t, dir, "mnist.gob", 10)
	if _, stderr, ok := ehfleet(t, dir, append(args, "-resume")...); ok ||
		!strings.Contains(stderr, "checkpoint does not match") {
		t.Errorf("resume against a swapped model: ok=%v, stderr %q", ok, stderr)
	}
}

// TestScenarioModeFlags: with -scenarios an explicit shape flag is
// rejected, and the file's memo block is a default -memo overrides.
func TestScenarioModeFlags(t *testing.T) {
	dir := writeBundle(t)
	doc := `{"memo": {"enabled": true}, "devices": [{"count": 4, "model": "mnist.gob", "engine": "ace, tails"}]}`
	if err := os.WriteFile(filepath.Join(dir, "fleet.json"), []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, stderr, ok := ehfleet(t, dir, "-scenarios", "fleet.json", "-jitter", "0.1"); ok ||
		!strings.Contains(stderr, "-jitter has no effect with -scenarios") {
		t.Errorf("shape flag with -scenarios: ok=%v, stderr %q", ok, stderr)
	}
	if out := mustRun(t, dir, "-scenarios", "fleet.json"); !strings.Contains(out, "\nmemo: ") {
		t.Errorf("the file's memo block did not turn the memo on:\n%s", out)
	}
	if out := mustRun(t, dir, "-scenarios", "fleet.json", "-memo=false"); strings.Contains(out, "\nmemo: ") {
		t.Errorf("-memo=false did not override the file's memo block:\n%s", out)
	}
}
