package fleet_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"ehdl/internal/cli"
	"ehdl/internal/exec/exectest"
	"ehdl/internal/fleet"
	"ehdl/internal/fleet/memo"
	"ehdl/internal/nn"
)

// TestCheckedInScenariosMemoInvisible: for every scenario document
// under examples/scenarios/, memo-on rows equal memo-off rows byte for
// byte. Each document is shrunk (every count divided by 40) and then
// cycled to twice its declared size, so every device spec runs and
// quantized jitter classes repeat. The bundle holds the checked-in
// traces and a freshly quantized mnist.gob.
func TestCheckedInScenariosMemoInvisible(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "scenarios")
	bundle := t.TempDir()
	if err := cli.SaveModel(filepath.Join(bundle, "mnist.gob"), exectest.Model(t, exectest.MNISTArch(), 21)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "solar.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bundle, "solar.csv"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"citywide.json", "mixed.json", "slowharvest.json"} {
		t.Run(name, func(t *testing.T) {
			sf, err := cli.ParseScenarioFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			for i := range sf.Devices {
				if c := sf.Devices[i].Count; c != nil {
					n := max(1, *c/40)
					sf.Devices[i].Count = &n
				}
			}
			src, err := cli.CompileFleetSource(sf, bundle, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			src = src.Resize(2 * src.Len())
			rows := func(workers int, m *memo.Memo) []byte {
				var buf bytes.Buffer
				if _, err := fleet.RunStream(src, fleet.StreamOptions{Workers: workers, Memo: m, Sink: fleet.NewNDJSONSink(&buf)}); err != nil {
					t.Fatal(err)
				}
				return buf.Bytes()
			}
			want := rows(2, nil)
			for _, workers := range []int{1, 2} {
				m := memo.New(0)
				if got := rows(workers, m); !bytes.Equal(got, want) {
					t.Fatalf("workers=%d: memo-on rows differ from memo-off", workers)
				}
				if st := m.Stats(); st.Hits() == 0 {
					t.Errorf("workers=%d: %d devices, no memo hit", workers, src.Len())
				}
			}
		})
	}
}

// TestMemoCountsEveryDevice: a memoized stream counts each device as
// exactly one memo hit or miss, including the devices its workers
// replay from their tables, so over two RunStream calls that share one
// memo, hits plus misses equal the devices streamed so far, at 1 and 4
// workers. The fleet is citywide.json shrunk as in
// TestCheckedInScenariosMemoInvisible and cycled to 4,000 devices.
func TestMemoCountsEveryDevice(t *testing.T) {
	dir := filepath.Join("..", "..", "examples", "scenarios")
	bundle := t.TempDir()
	if err := cli.SaveModel(filepath.Join(bundle, "mnist.gob"), exectest.Model(t, exectest.MNISTArch(), 21)); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "solar.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(bundle, "solar.csv"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	sf, err := cli.ParseScenarioFile(filepath.Join(dir, "citywide.json"))
	if err != nil {
		t.Fatal(err)
	}
	for i := range sf.Devices {
		n := max(1, *sf.Devices[i].Count/40)
		sf.Devices[i].Count = &n
	}
	src, err := cli.CompileFleetSource(sf, bundle, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	src = src.Resize(4000)
	for _, workers := range []int{1, 4} {
		m := memo.New(0)
		for run := 1; run <= 2; run++ {
			rep, err := fleet.RunStream(src, fleet.StreamOptions{Workers: workers, Memo: m})
			if err != nil {
				t.Fatal(err)
			}
			if got, want := rep.Memo.Hits()+rep.Memo.Misses, uint64(run*src.Len()); got != want {
				t.Errorf("workers=%d, run %d: %d hits + %d misses, want %d devices",
					workers, run, rep.Memo.Hits(), rep.Memo.Misses, want)
			}
		}
	}
}

// TestReplayHandlesMemoInvisible: a scenario document that reaches
// every edge of the replay handles a FleetSource sets streams the
// same rows with the memo on as off, at 1 and 4 workers, cold and warm
// (a second RunStream over the same memo, which workers mostly replay
// from their tables). Its specs pin a sample, jitter continuously
// (no handles), keep trace bins over the document's profile budget
// (no handles), run three engines of both BCM disciplines, and give
// ACE+FLEX a supply on which it resumes stale, so that class stays
// input-keyed. The multi-engine spec runs a BCM model on which the FFT
// and time-domain references disagree on one MNIST test input, and
// every input meets all three engines. The other specs run a small
// conv/dense net with HAR's 121-word inputs; on its 4 µF capacitor at
// a constant 0.4 mW every ACE+FLEX run resumes stale and still
// completes.
func TestReplayHandlesMemoInvisible(t *testing.T) {
	dir := t.TempDir()
	arch := &nn.Arch{
		Name: "har-dense", InShape: [3]int{1, 11, 11}, NumClasses: 6,
		Specs: []nn.LayerSpec{
			{Kind: "conv", InC: 1, InH: 11, InW: 11, OutC: 4, KH: 4, KW: 4},
			{Kind: "pool", InC: 4, InH: 8, InW: 8, PoolSize: 2},
			{Kind: "relu", N: 4 * 4 * 4},
			{Kind: "flatten", N: 64},
			{Kind: "dense", In: 64, Out: 16},
			{Kind: "relu", N: 16},
			{Kind: "dense", In: 16, Out: 6},
		},
	}
	if err := cli.SaveModel(filepath.Join(dir, "har.gob"), exectest.Model(t, arch, 21)); err != nil {
		t.Fatal(err)
	}
	if err := cli.SaveModel(filepath.Join(dir, "mnist.gob"), exectest.Model(t, exectest.MNISTArch(), 9)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "tr.csv"), []byte("0,0.004\n0.05,0.006\n0.1,0.005\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	doc := `{
  "defaults": { "model": "har.gob", "cap_f": 10e-6, "jitter": 0.2, "jitter_steps": 3 },
  "devices": [
    { "name": "pinned", "count": 12, "engine": "tails", "sample": 5 },
    { "name": "continuous", "count": 12, "engine": "sonic", "jitter_steps": 0 },
    { "name": "over-budget", "count": 12, "engine": "sonic", "jitter_steps": 30000,
      "profile": { "kind": "trace", "trace": "tr.csv", "repeat": true } },
    { "name": "multi", "count": 192, "model": "mnist.gob", "engine": "sonic,ace,ace+flex" },
    { "name": "stale", "count": 24, "engine": "ace+flex", "cap_f": 4e-6, "jitter": 0,
      "profile": { "kind": "const", "power_w": 4e-4 } }
  ]
}`
	path := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := cli.LoadFleetSource(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	src = src.Resize(2 * src.Len())

	var plain bytes.Buffer
	off := &fleet.Collector{}
	if _, err := fleet.RunStream(src, fleet.StreamOptions{Workers: 2, Sink: fleet.MultiSink(off, fleet.NewNDJSONSink(&plain))}); err != nil {
		t.Fatal(err)
	}
	handled, stale := 0, 0
	for i, r := range off.Rows {
		s, err := src.At(i)
		if err != nil {
			t.Fatal(err)
		}
		if s.TrajectoryHandle != 0 {
			handled++
		}
		if !r.CleanResumes && r.Completed {
			stale++
		}
	}
	if handled == 0 || handled == src.Len() {
		t.Fatalf("%d of %d devices carry handles, want some but not all", handled, src.Len())
	}
	if stale == 0 {
		t.Fatal("no completed run resumes stale; the stale spec no longer exercises input-keyed entries")
	}
	for _, workers := range []int{1, 4} {
		m := memo.New(0)
		for _, pass := range []string{"cold", "warm"} {
			var buf bytes.Buffer
			if _, err := fleet.RunStream(src, fleet.StreamOptions{Workers: workers, Memo: m, Sink: fleet.NewNDJSONSink(&buf)}); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(buf.Bytes(), plain.Bytes()) {
				t.Fatalf("workers=%d, %s: memo-on rows differ from memo-off", workers, pass)
			}
		}
	}
}
