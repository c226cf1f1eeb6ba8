// Package ehdl is a Go reproduction of "Enabling Fast Deep Learning on
// Tiny Energy-Harvesting IoT Devices" (Islam et al., DATE 2022): a
// framework for training compressed DNNs (RAD), executing them with
// vector-accelerator-aware fixed-point runtimes on a simulated
// MSP430-class device (ACE), and keeping inference correct across the
// power failures of batteryless energy harvesting (FLEX).
//
// The public API is a thin facade over internal/core:
//
//	set := ehdl.MNIST(1200, 240, 1)
//	model, _ := ehdl.Train(ehdl.MNISTArch(), set, ehdl.DefaultTrainOptions())
//	rep, _ := ehdl.Infer(ehdl.ACEFLEX, model, set.Test[0].Input)
//	irep, _ := ehdl.InferHarvested(ehdl.ACEFLEX, model, set.Test[0].Input, ehdl.PaperHarvest())
//
// See the examples/ directory for runnable walk-throughs and
// cmd/paperbench for the full evaluation reproduction.
package ehdl

import (
	"io"

	"ehdl/internal/cli"
	"ehdl/internal/core"
	"ehdl/internal/dataset"
	"ehdl/internal/exec"
	"ehdl/internal/fixed"
	"ehdl/internal/fleet"
	"ehdl/internal/fleet/memo"
	"ehdl/internal/intermittent"
	"ehdl/internal/nn"
	"ehdl/internal/quant"
	"ehdl/internal/rad"
)

// Engine selects one of the paper's runtimes.
type Engine = core.EngineKind

// The five runtimes of the evaluation.
const (
	Base    = core.EngineBase
	SONIC   = core.EngineSONIC
	TAILS   = core.EngineTAILS
	ACE     = core.EngineACE
	ACEFLEX = core.EngineACEFLEX
)

// Engines lists every runtime in presentation order.
func Engines() []Engine { return core.AllEngines() }

// Set is a synthetic dataset (see internal/dataset for the three
// workload generators).
type Set = dataset.Set

// MNIST generates the image-classification workload.
func MNIST(nTrain, nTest int, seed int64) *Set { return dataset.MNIST(nTrain, nTest, seed) }

// HAR generates the human-activity-recognition workload.
func HAR(nTrain, nTest int, seed int64) *Set { return dataset.HAR(nTrain, nTest, seed) }

// OKG generates the keyword-recognition workload.
func OKG(nTrain, nTest int, seed int64) *Set { return dataset.OKG(nTrain, nTest, seed) }

// Arch describes a model architecture.
type Arch = nn.Arch

// MNISTArch returns Table II's MNIST model (BCM block 128, 2x pruned
// conv2).
func MNISTArch() *Arch { return nn.MNISTArch(128, true) }

// HARArch returns Table II's HAR model.
func HARArch() *Arch { return nn.HARArch(128, 64) }

// OKGArch returns Table II's OKG model.
func OKGArch() *Arch { return nn.OKGArch(256, 128, 64) }

// Model is a quantized, deployable model artifact.
type Model = quant.Model

// LoadModel reads a model artifact from a file, verifying the
// container (magic, format version, checksum) and the model's
// structural consistency.
func LoadModel(path string) (*Model, error) { return cli.LoadModel(path) }

// SaveModel atomically writes a model artifact (checksummed,
// versioned container; see internal/artifact).
func SaveModel(path string, m *Model) error { return cli.SaveModel(path, m) }

// TrainOptions configures the RAD pipeline.
type TrainOptions = rad.PipelineConfig

// DefaultTrainOptions returns the Table II training settings.
func DefaultTrainOptions() TrainOptions { return rad.DefaultPipelineConfig() }

// TrainResult is the full RAD artifact (float net, quantized model,
// accuracies, pruning report).
type TrainResult = rad.Result

// Train runs the RAD pipeline: train, ADMM-prune where the
// architecture asks for it, calibrate, quantize.
func Train(arch *Arch, set *Set, opts TrainOptions) (*TrainResult, error) {
	return rad.Train(arch, set, opts)
}

// Report is a measured inference. For intermittent runs,
// Report.Intermittent carries the runner's typed BootDiagnosis and the
// per-boot BootRecord ledger alongside completion and boot counts.
type Report = exec.Report

// BootDiagnosis explains why an intermittent run completed or DNF'd:
// the verdict kind (frozen progress, no persistent writes, boot
// limit, ...), the evidence window behind it, and how many boots the
// analytic fast-forward skipped.
type BootDiagnosis = intermittent.Diagnosis

// BootRecord is one entry of the intermittent runner's per-boot
// ledger: cycles, energy, persistent-write signature, progress delta
// and recharge time of a single boot.
type BootRecord = intermittent.BootRecord

// Infer runs one measured inference on bench (continuous) power.
func Infer(engine Engine, m *Model, input []float64) (Report, error) {
	return core.InferContinuous(engine, m, fixed.FromFloats(input))
}

// Harvest describes an energy-harvesting experiment setup.
type Harvest = core.HarvestSetup

// PaperHarvest returns the paper's setup: 100 µF capacitor, 5 mW
// square-wave source.
func PaperHarvest() Harvest { return core.PaperHarvestSetup() }

// InferHarvested runs one inference under intermittent harvested
// power; the report carries boots, wall time, and completion status.
func InferHarvested(engine Engine, m *Model, input []float64, h Harvest) (Report, error) {
	return core.InferIntermittent(engine, m, fixed.FromFloats(input), h)
}

// FleetScenario is one device of a simulated deployment: a model
// inference under one harvesting setup on one runtime.
type FleetScenario = fleet.Scenario

// FleetReport aggregates a fleet run: completion rate, boots,
// per-engine/per-profile breakdowns, simulated wall-time percentiles,
// and (for materializing runs) ordered per-device results.
type FleetReport = fleet.Report

// NewFleetScenario builds one fleet device from a float input vector
// (converted to the device's Q1.15 format).
func NewFleetScenario(name string, engine Engine, m *Model, input []float64, h Harvest) FleetScenario {
	return fleet.Scenario{
		Name:   name,
		Engine: engine,
		Model:  m,
		Input:  fixed.FromFloats(input),
		Setup:  h,
	}
}

// RunFleet sweeps the scenarios concurrently over at most workers
// goroutines (<= 0: GOMAXPROCS); results are deterministic and in
// scenario order regardless of scheduling. It materializes one result
// row per scenario — use StreamFleet for fleets too large to hold.
func RunFleet(scenarios []FleetScenario, workers int) FleetReport {
	collect := &fleet.Collector{Rows: make([]fleet.Result, 0, len(scenarios))}
	rep, err := fleet.RunStream(fleet.SliceSource(scenarios), fleet.StreamOptions{
		Workers: workers,
		// Every row is materialized anyway, so percentiles stay exact
		// at any fleet size.
		ExactPercentiles: len(scenarios),
		Sink:             collect,
	})
	if err != nil {
		// A Collector never fails and a SliceSource never errors.
		panic(err)
	}
	rep.Results = collect.Rows
	return rep
}

// RenderFleetReport formats a fleet report for terminals.
func RenderFleetReport(r FleetReport) string { return fleet.RenderReport(r) }

// FleetSource lazily yields a fleet's scenarios (see FleetSourceFunc).
type FleetSource = fleet.Source

// FleetSink consumes per-device rows in scenario order as a fleet
// streams (see FleetNDJSONSink).
type FleetSink = fleet.Sink

// FleetStreamOptions configures StreamFleet: worker pool size, the
// exact-percentile threshold, an ordered row sink, and a progress
// callback.
type FleetStreamOptions = fleet.StreamOptions

// FleetSourceFunc adapts a generator to a FleetSource: n devices,
// scenario i built on demand by fn, which must be safe for concurrent
// calls.
func FleetSourceFunc(n int, fn func(i int) (FleetScenario, error)) FleetSource {
	return fleet.FuncSource(n, fn)
}

// FleetNDJSONSink streams one JSON row per device to w, in scenario
// order (wrap files in a bufio.Writer and flush after StreamFleet).
func FleetNDJSONSink(w io.Writer) FleetSink { return fleet.NewNDJSONSink(w) }

// StreamFleet simulates a fleet without materializing it: scenarios
// are generated on demand, rows stream through the optional sink in
// scenario order, and the report is aggregated online in constant
// memory — wall-time percentiles are exact up to the threshold in
// FleetStreamOptions and fixed-bin histogram estimates (±~1%) above
// it. The report is bit-identical to RunFleet for fleets within the
// threshold.
func StreamFleet(src FleetSource, opts FleetStreamOptions) (FleetReport, error) {
	return fleet.RunStream(src, opts)
}

// FleetMemo is the content-addressed inference memo: set it on
// FleetStreamOptions.Memo to dedup device runs. It simulates each
// harvest class once and replays its trajectory, keyed on (engine,
// model digest, input length, harvest fingerprint), with each input's
// reference prediction; runs that resumed onto an overwritten input
// stay keyed on their input. A compute tier replays voltage-oblivious
// engines across waveforms when the inference provably fits one
// capacitor charge. Rows and report stay bit-identical to an
// unmemoized run; counters land in FleetReport.Memo.
type FleetMemo = memo.Memo

// FleetMemoStats is the memo's counter snapshot (hits by tier,
// misses, fills, LRU occupancy and evictions).
type FleetMemoStats = memo.Stats

// NewFleetMemo returns a fleet inference memo bounded to capacity
// entries (<= 0 selects the package default, 65536). The same memo
// may be shared across StreamFleet calls to carry warm state between
// sweeps.
func NewFleetMemo(capacity int) *FleetMemo { return memo.New(capacity) }
