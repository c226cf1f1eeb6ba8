package cli

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ehdl/internal/fleet"
	"ehdl/internal/fleet/memo"
)

// TestQuantizedJitterScale: the quantized draw stays inside the
// jitter band, collapses to at most `steps` harvest classes, and
// lands exactly on bin midpoints — the property Tier-1 memoization
// keys on.
func TestQuantizedJitterScale(t *testing.T) {
	const jitter, steps = 0.3, 8
	seen := map[float64]int{}
	for i := 0; i < 2000; i++ {
		s := quantizedJitterScale(7, i, jitter, steps)
		if s < 1-jitter || s >= 1+jitter {
			t.Fatalf("device %d: scale %v outside [%v, %v)", i, s, 1-jitter, 1+jitter)
		}
		seen[s]++
	}
	if len(seen) != steps {
		t.Fatalf("2000 draws over %d bins produced %d classes", steps, len(seen))
	}
	for s := range seen {
		// Midpoint form: s = 1 + jitter*(2*(k+0.5)/steps - 1) for integer k.
		k := ((s-1)/jitter + 1) / 2 * steps
		if diff := k - (float64(int(k)) + 0.5); diff > 1e-9 || diff < -1e-9 {
			t.Errorf("scale %v is not a bin midpoint (k=%v)", s, k)
		}
	}
	if quantizedJitterScale(7, 3, 0, steps) != 1 {
		t.Fatal("zero jitter must scale by exactly 1")
	}
}

// TestScenarioJitterSteps: a jitter_steps spec collapses the expanded
// fleet's profiles into at most that many equivalence classes while a
// continuous spec of the same size does not.
func TestScenarioJitterSteps(t *testing.T) {
	dir := t.TempDir()
	if err := SaveModel(filepath.Join(dir, "m.gob"), testMNISTModel(t, 9)); err != nil {
		t.Fatal(err)
	}
	write := func(name, stepsField string) string {
		doc := fmt.Sprintf(`{
  "defaults": { "model": "m.gob", "engine": "sonic" },
  "devices": [ { "name": "d", "count": 64, "jitter": 0.3%s } ]
}`, stepsField)
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	classes := func(path string) int {
		scenarios, err := loadFleet(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		distinct := map[interface{}]bool{}
		for _, s := range scenarios {
			distinct[s.Setup.Profile] = true
		}
		return len(distinct)
	}
	if n := classes(write("quant.json", `, "jitter_steps": 4`)); n != 4 {
		t.Errorf("jitter_steps 4 over 64 devices: %d classes, want 4", n)
	}
	if n := classes(write("cont.json", "")); n < 32 {
		t.Errorf("continuous jitter over 64 devices: only %d classes", n)
	}

	_, err := LoadFleetSource(write("bad.json", `, "jitter_steps": -1`), 1)
	if err == nil || !strings.Contains(err.Error(), "jitter_steps") {
		t.Errorf("negative jitter_steps not rejected: %v", err)
	}
}

// TestScenarioMemoBlock: the file-level memo block parses, surfaces
// through FleetSource.Memo(), and rejects typos like everything else
// in the schema.
func TestScenarioMemoBlock(t *testing.T) {
	dir := t.TempDir()
	if err := SaveModel(filepath.Join(dir, "m.gob"), testMNISTModel(t, 9)); err != nil {
		t.Fatal(err)
	}
	doc := `{
  "memo": { "enabled": true, "capacity": 128 },
  "defaults": { "model": "m.gob", "engine": "sonic" },
  "devices": [ { "name": "d", "count": 2 } ]
}`
	path := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := LoadFleetSource(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	ms := src.Memo()
	if ms == nil || !ms.Enabled || ms.Capacity != 128 {
		t.Fatalf("memo spec %+v, want enabled with capacity 128", ms)
	}

	bad := strings.Replace(doc, `"capacity"`, `"capactiy"`, 1)
	if _, err := DecodeScenarioFile(strings.NewReader(bad)); err == nil {
		t.Fatal("memo-block typo accepted")
	}

	// No memo block: the accessor reports nil so flags decide.
	plain, err := LoadFleetSource(writeScenarioBundle(t), 1)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Memo() != nil {
		t.Fatal("absent memo block did not surface as nil")
	}
}

// TestArtifactStoreEviction: with the artifact LRU shrunk to one
// bundle, a fleet alternating between two model files thrashes the
// store — yet expansion stays deterministic and reloaded models are
// content-identical (same digest), so memo entries keyed on the
// digest survive eviction.
func TestArtifactStoreEviction(t *testing.T) {
	old := artifactCacheCap
	artifactCacheCap = 1
	defer func() { artifactCacheCap = old }()

	dir := t.TempDir()
	for _, name := range []string{"a.gob", "b.gob"} {
		if err := SaveModel(filepath.Join(dir, name), testMNISTModel(t, 9)); err != nil {
			t.Fatal(err)
		}
	}
	doc := `{
  "defaults": { "engine": "sonic" },
  "devices": [
    { "name": "a", "model": "a.gob" },
    { "name": "b", "model": "b.gob" },
    { "name": "a2", "model": "a.gob" }
  ]
}`
	path := filepath.Join(dir, "fleet.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := LoadFleetSource(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	a0, err := src.At(0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.At(1); err != nil { // evicts a.gob
		t.Fatal(err)
	}
	again, err := src.At(0) // reloads a.gob
	if err != nil {
		t.Fatal(err)
	}
	if a0.Model == again.Model {
		t.Fatal("cap-1 store never evicted (pointers still shared)")
	}
	if a0.Model.ContentDigest() != again.Model.ContentDigest() {
		t.Fatal("reloaded artifact digests differently")
	}
	if !reflect.DeepEqual(a0.Input, again.Input) {
		t.Fatal("reloaded dataset produced different inputs")
	}

	// The thrashing source still streams to the same report as an
	// unbounded one.
	bounded, err := fleet.RunStream(src, fleet.StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	artifactCacheCap = old
	fresh, err := LoadFleetSource(path, 1)
	if err != nil {
		t.Fatal(err)
	}
	unbounded, err := fleet.RunStream(fresh, fleet.StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	bounded.HostSeconds, unbounded.HostSeconds = 0, 0
	if !reflect.DeepEqual(bounded, unbounded) {
		t.Fatalf("bounded store changed the report:\n%+v\nvs\n%+v", bounded, unbounded)
	}
}

// TestScenarioMemoizedStreamMatches: the full CLI path — scenario
// file through LoadFleetSource into a memoized stream — reproduces
// the unmemoized report and rows bit-for-bit.
func TestScenarioMemoizedStreamMatches(t *testing.T) {
	path := writeScenarioBundle(t)
	run := func(m *memo.Memo) fleet.Report {
		src, err := LoadFleetSource(path, 1)
		if err != nil {
			t.Fatal(err)
		}
		rep, err := fleet.RunStream(src, fleet.StreamOptions{Workers: 4, Memo: m})
		if err != nil {
			t.Fatal(err)
		}
		rep.HostSeconds = 0
		rep.Memo = nil
		return rep
	}
	plain := run(nil)
	memoized := run(memo.New(0))
	if !reflect.DeepEqual(plain, memoized) {
		t.Fatalf("memoized scenario stream diverges:\n%+v\nvs\n%+v", plain, memoized)
	}
}
