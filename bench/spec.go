package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // end-to-end metrics only
}

// benchSpec is the part of BENCHMARK.json the benchmark reads: the
// metric names, units, directions and bounds are defined there once.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadSpec(repo string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(repo, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metrics returns the definitions a run reports: every per-layer
// metric when traced, every end-to-end metric otherwise.
func (s *benchSpec) metrics(trace bool) []metricDef {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// def finds a metric by name in either list.
func (s *benchSpec) def(name string) (metricDef, bool) {
	for _, d := range append(append([]metricDef(nil), s.EndToEnd...), s.PerLayer...) {
		if d.Name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output object, printed as the last line
// of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// label attaches BENCHMARK.json units to measured values. It fails on
// a value the spec does not list for the run, and on a missing
// end-to-end metric; a per-layer metric the workload does not drive
// reads 0.
func (s *benchSpec) label(vals map[string]float64, trace bool) (map[string]metricValue, error) {
	defs := s.metrics(trace)
	out := make(map[string]metricValue, len(defs))
	listed := map[string]bool{}
	var missing, extra []string
	for _, d := range defs {
		listed[d.Name] = true
		v, ok := vals[d.Name]
		if !ok && !trace {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	for name := range vals {
		if !listed[name] {
			extra = append(extra, name)
		}
	}
	if len(missing)+len(extra) > 0 {
		sort.Strings(extra)
		return nil, fmt.Errorf("metrics differ from BENCHMARK.json: missing [%s], not listed [%s]",
			strings.Join(missing, " "), strings.Join(extra, " "))
	}
	return out, nil
}

// pinsJSON holds the fixture model's content digest and, per workload
// and seed, the SHA-256 of the row bytes the workload must produce at
// its standard size.
//
//go:embed pins.json
var pinsJSON []byte

type pinSet struct {
	ModelDigest string                       `json:"model_digest"`
	Rows        map[string]map[string]string `json:"rows"`
}

func loadPins() (pinSet, error) {
	var p pinSet
	if err := json.Unmarshal(pinsJSON, &p); err != nil {
		return p, fmt.Errorf("pins.json: %w", err)
	}
	return p, nil
}

// rowPin returns the pinned row digest of workload at seed, if any.
func (p pinSet) rowPin(workload string, seed int64) (string, bool) {
	d, ok := p.Rows[workload][fmt.Sprint(seed)]
	return d, ok
}
