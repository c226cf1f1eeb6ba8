package quant

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"ehdl/internal/artifact"
	"ehdl/internal/nn"
)

// smallModel quantizes a randomly initialized mixed-layer net — no
// training; serialization does not care about accuracy.
func smallModel(t *testing.T, seed int64) *Model {
	t.Helper()
	arch := &nn.Arch{
		Name: "mnist", InShape: [3]int{1, 8, 8}, NumClasses: 4,
		Specs: []nn.LayerSpec{
			{Kind: "conv", InC: 1, InH: 8, InW: 8, OutC: 4, KH: 3, KW: 3},
			{Kind: "pool", InC: 4, InH: 6, InW: 6, PoolSize: 2},
			{Kind: "relu", N: 4 * 3 * 3},
			{Kind: "flatten", N: 36},
			{Kind: "bcm", In: 36, Out: 16, K: 8, WeightNorm: true},
			{Kind: "relu", N: 16},
			{Kind: "dense", In: 16, Out: 4},
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
	m, err := Quantize(net, arch, calib)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// saveArtifact writes m to path inside the checksummed model
// container, as cli.SaveModel does.
func saveArtifact(m *Model, path string) error {
	return artifact.WriteFile(path, artifact.KindModel, m)
}

// loadArtifact reads a model container from path and validates the
// decoded model, as cli.LoadModel does.
func loadArtifact(path string) (*Model, error) {
	var m Model
	if err := artifact.ReadFile(path, artifact.KindModel, &m); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

// TestSaveFileLoadFileRoundTrip: a model survives a file round trip
// through the artifact container unchanged.
func TestSaveFileLoadFileRoundTrip(t *testing.T) {
	m := smallModel(t, 3)
	path := filepath.Join(t.TempDir(), "m.gob")
	if err := saveArtifact(m, path); err != nil {
		t.Fatal(err)
	}
	got, err := loadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("loaded model differs from saved model")
	}

	// Save → load → save is bit-identical on disk.
	path2 := filepath.Join(t.TempDir(), "m2.gob")
	if err := saveArtifact(got, path2); err != nil {
		t.Fatal(err)
	}
	b1, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := os.ReadFile(path2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("artifact bytes changed across a save/load/save cycle")
	}
}

// TestLoadFileTypedErrors: the failure modes a deployment hits in the
// field — stale raw-gob artifacts, bit rot, interrupted copies — must
// come back as the artifact package's typed sentinels, not raw gob
// noise.
func TestLoadFileTypedErrors(t *testing.T) {
	m := smallModel(t, 4)
	dir := t.TempDir()
	good := filepath.Join(dir, "good.gob")
	if err := saveArtifact(m, good); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}

	var legacy bytes.Buffer
	if err := m.Save(&legacy); err != nil { // pre-container format
		t.Fatal(err)
	}
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)-100] ^= 0x10

	cases := []struct {
		name string
		data []byte
		want error
	}{
		{"legacy raw gob", legacy.Bytes(), artifact.ErrBadMagic},
		{"truncated", raw[:len(raw)/2], artifact.ErrTruncated},
		{"corrupted", corrupt, artifact.ErrChecksum},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(dir, tc.name)
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := loadArtifact(path)
			if !errors.Is(err, tc.want) {
				t.Fatalf("err = %v, want %v", err, tc.want)
			}
		})
	}
}

func TestValidateCatchesDrift(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(m *Model)
	}{
		{"zeroed name", func(m *Model) { m.Name = "" }},
		{"zeroed shape", func(m *Model) { m.InShape = [3]int{} }},
		{"zeroed classes", func(m *Model) { m.NumClasses = 0 }},
		{"no layers", func(m *Model) { m.Layers = nil }},
		{"dropped weights", func(m *Model) { m.Layers[0].W = nil }},
		{"short bias", func(m *Model) { m.Layers[6].B = m.Layers[6].B[:1] }},
		{"unknown kind", func(m *Model) { m.Layers[2].Spec.Kind = "gelu" }},
		{"broken chain", func(m *Model) { m.Layers[6].Spec.In = 99 }},
		{"bad block size", func(m *Model) { m.Layers[4].Spec.K = 7 }},
		{"class mismatch", func(m *Model) { m.NumClasses = 5 }},
		{"kept out of range", func(m *Model) { m.Layers[0].Kept = []int{999} }},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			m := smallModel(t, 5)
			if err := m.Validate(); err != nil {
				t.Fatalf("pristine model invalid: %v", err)
			}
			tc.mut(m)
			if err := m.Validate(); err == nil {
				t.Fatal("Validate accepted a damaged model")
			}
		})
	}
}
