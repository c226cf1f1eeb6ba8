// Package cli holds the model-artifact plumbing shared by every
// command-line tool (radtrain, ehsim, ehfleet, aceinfer): one load
// path that fully verifies the artifact container and the decoded
// model, one save path that writes atomically, the model-name →
// dataset mapping, and the input-validation helpers each CLI used to
// reimplement (differently, and sometimes not at all).
package cli

import (
	"fmt"
	"strings"

	"ehdl/internal/artifact"
	"ehdl/internal/core"
	"ehdl/internal/dataset"
	"ehdl/internal/quant"
)

// SaveModel atomically writes a model artifact (checksummed container,
// temp file + rename).
func SaveModel(path string, m *quant.Model) error {
	if err := m.Validate(); err != nil {
		return fmt.Errorf("refusing to save: %w", err)
	}
	return artifact.WriteFile(path, artifact.KindModel, m)
}

// LoadModel reads a model artifact, verifying the container (magic,
// format version, SHA-256) and the decoded model's structural
// consistency. Failures carry the file name and one of the artifact
// package's typed sentinels — never a raw "gob: ..." message.
func LoadModel(path string) (*quant.Model, error) {
	var m quant.Model
	if err := artifact.ReadFile(path, artifact.KindModel, &m); err != nil {
		return nil, err
	}
	if err := m.Validate(); err != nil {
		return nil, fmt.Errorf("model %s: %w", path, err)
	}
	return &m, nil
}

// DatasetFor maps a deployed model to the dataset it was trained on,
// using the deterministic generators (the synthetic sets are fully
// reproducible from the seed, so "the test set" is well-defined on any
// host).
func DatasetFor(m *quant.Model, seed int64) (*dataset.Set, error) {
	switch m.Name {
	case "mnist", "mnist-dense":
		return dataset.MNIST(1, 64, seed), nil
	case "har", "har-dense":
		return dataset.HAR(1, 64, seed), nil
	case "okg", "okg-dense":
		return dataset.OKG(1, 64, seed), nil
	}
	return nil, fmt.Errorf("model %q has no matching dataset (want mnist/har/okg)", m.Name)
}

// Sample returns test sample idx of the set, or a friendly error
// naming the valid range (instead of the index-out-of-range panic a
// bare set.Test[idx] produces).
func Sample(set *dataset.Set, idx int) (*dataset.Sample, error) {
	if len(set.Test) == 0 {
		return nil, fmt.Errorf("dataset %s has no test samples", set.Name)
	}
	if idx < 0 || idx >= len(set.Test) {
		return nil, fmt.Errorf("sample %d out of range: %s has %d test samples (valid 0..%d)",
			idx, set.Name, len(set.Test), len(set.Test)-1)
	}
	return &set.Test[idx], nil
}

// ParseEngine validates a runtime name against the known engines.
func ParseEngine(s string) (core.EngineKind, error) {
	kind := core.EngineKind(s)
	for _, k := range core.AllEngines() {
		if k == kind {
			return kind, nil
		}
	}
	return "", fmt.Errorf("unknown engine %q (want one of %v)", s, core.AllEngines())
}

// parseEngines expands an engine field into the runtime cycle its
// devices draw from: one runtime, a comma-separated list, or "all".
func parseEngines(s string) ([]core.EngineKind, error) {
	if s == "all" {
		return core.AllEngines(), nil
	}
	var kinds []core.EngineKind
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		kind, err := ParseEngine(part)
		if err != nil {
			return nil, err
		}
		kinds = append(kinds, kind)
	}
	if len(kinds) == 0 {
		return nil, fmt.Errorf("no engines in %q", s)
	}
	return kinds, nil
}
