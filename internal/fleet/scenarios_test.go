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
