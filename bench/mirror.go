package main

// The traced run's serial mirror of the fleet's per-device path
// (fleet.RunStream's worker loop with runOne or runMemoized). It calls
// the same public functions in the same order and times each call
// from outside, so its rows must hash equal to RunStream's. It never
// wraps the capacitor or the engine: the runner's fast-forward
// depends on the concrete supply type.

import (
	"fmt"
	"runtime"

	"ehdl/internal/core"
	"ehdl/internal/device"
	"ehdl/internal/exec"
	"ehdl/internal/fleet"
	"ehdl/internal/fleet/memo"
	"ehdl/internal/harvest"
	"ehdl/internal/intermittent"
)

type mirror struct {
	tr       *tracer
	memo     *memo.Memo // nil: memo off
	agg      *fleet.Agg
	energyMJ float64 // summed over the rows agg observed
	sink     *fleet.NDJSONSink

	// countAllocs brackets model flash and the intermittent run with
	// runtime.ReadMemStats. It stops the world, so a mirror counting
	// allocations is not used for timing.
	countAllocs bool

	// Counters over the simulated devices, from device.Stats and the
	// runner's Result.
	sims          int
	boots, ffBoot uint64
	cycles        uint64
	energy        [device.NumCategories]float64
	runNS         map[string]int64 // exec.run time per engine
	runCount      map[string]int
	flashAllocs   uint64
	runAllocs     uint64
}

func newMirror(tr *tracer, m *memo.Memo, sink *fleet.NDJSONSink) *mirror {
	return &mirror{tr: tr, memo: m, agg: fleet.NewAgg(0), sink: sink,
		runNS: map[string]int64{}, runCount: map[string]int{}}
}

// device runs device i of src and delivers its row.
func (m *mirror) device(src fleet.Source, i int) error {
	root := m.tr.begin("device", -1)
	sp := m.tr.begin("cli.at", root)
	s, err := src.At(i)
	m.tr.finish(sp)
	if err != nil {
		return fmt.Errorf("device %d: %w", i, err)
	}
	var r fleet.Result
	if m.memo != nil {
		r = m.memoized(s, root)
	} else {
		r = m.simulate(s, root)
	}
	sp = m.tr.begin("fleet.observe", root)
	m.agg.Observe(r)
	m.tr.finish(sp)
	m.energyMJ += r.EnergymJ
	sp = m.tr.begin("fleet.encode", root)
	err = m.sink.Consume(i, r)
	m.tr.finish(sp)
	m.tr.finish(root)
	return err
}

// memoized mirrors the fleet's runMemoized.
func (m *mirror) memoized(s fleet.Scenario, root int32) fleet.Result {
	sp := m.tr.begin("memo.probe", root)
	probe, ok := memo.NewProbe(memoDevice(s))
	m.tr.finish(sp)
	if !ok {
		return m.simulate(s, root)
	}
	sp = m.tr.begin("memo.lookup", root)
	out, kind := m.memo.Lookup(probe)
	m.tr.finish(sp)
	if kind != memo.Miss {
		r := resultFromOutcome(s, out)
		r.Memo = kind.String()
		return r
	}
	r := m.simulate(s, root)
	sp = m.tr.begin("memo.fill", root)
	m.memo.Fill(probe, outcomeFromResult(r))
	m.tr.finish(sp)
	r.Memo = kind.String()
	return r
}

// simulate mirrors the fleet's runOne, which goes through
// core.InferIntermittent; the mirror makes that function's calls
// itself so each gets its own span.
func (m *mirror) simulate(s fleet.Scenario, root int32) fleet.Result {
	res := fleet.Result{
		Name:      s.Name,
		Engine:    s.Engine,
		Profile:   fleet.ProfileLabel(s.Setup.Profile),
		Predicted: -1,
	}
	setupErr := func(err error) fleet.Result {
		res.Err = err
		res.Diagnosis = fleet.SetupErrorDiagnosis
		return res
	}
	if s.Model == nil {
		return setupErr(fmt.Errorf("fleet: scenario %q has no model", s.Name))
	}
	sp := m.tr.begin("harvest.capacitor_new", root)
	supply, err := harvest.NewCapacitor(s.Setup.Config, s.Setup.Profile)
	m.tr.finish(sp)
	if err != nil {
		return setupErr(err)
	}
	sp = m.tr.begin("device.new", root)
	d := device.New(device.DefaultCosts(), supply)
	m.tr.finish(sp)

	before := m.mallocs()
	sp = m.tr.begin("exec.flash", root)
	store, err := exec.NewModelStore(d, s.Model)
	m.tr.finish(sp)
	m.flashAllocs += m.mallocs() - before
	if err != nil {
		return setupErr(err)
	}
	sp = m.tr.begin("core.engine_new", root)
	eng, err := core.NewEngine(s.Engine, d, store, s.Input, s.Setup.FlexConfig)
	m.tr.finish(sp)
	if err != nil {
		return setupErr(err)
	}
	runner := s.Setup.Runner
	if runner == nil {
		runner = &intermittent.Runner{}
	}
	before = m.mallocs()
	sp = m.tr.begin("exec.run", root)
	rep := exec.RunIntermittent(d, eng, runner)
	m.tr.finish(sp)
	m.runAllocs += m.mallocs() - before

	engine := string(s.Engine)
	m.runNS[engine] += m.tr.spans[sp].end - m.tr.spans[sp].start
	m.runCount[engine]++
	m.sims++
	m.boots += rep.Intermittent.Boots
	m.ffBoot += rep.Intermittent.Diagnosis.FastForwarded
	m.cycles += rep.Stats.ActiveCycles
	for c, e := range rep.Stats.Energy {
		m.energy[c] += e
	}

	res.Completed = rep.Intermittent.Completed
	res.Predicted = rep.Predicted
	res.Boots = rep.Intermittent.Boots
	res.ActiveSec = rep.Stats.ActiveSeconds
	res.WallSec = rep.Stats.WallSeconds
	res.EnergymJ = rep.Stats.EnergymJ()
	res.Diagnosis = string(rep.Intermittent.Diagnosis.Kind)
	res.FastForwarded = rep.Intermittent.Diagnosis.FastForwarded
	res.Err = rep.Intermittent.Err
	return res
}

func (m *mirror) mallocs() uint64 {
	if !m.countAllocs {
		return 0
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// memoDevice, resultFromOutcome and outcomeFromResult mirror the
// fleet's private conversions between a scenario, a row and a memo
// entry.
func memoDevice(s fleet.Scenario) memo.Device {
	return memo.Device{
		Engine:           string(s.Engine),
		VoltageOblivious: core.VoltageOblivious(s.Engine),
		Model:            s.Model,
		Input:            s.Input,
		Config:           s.Setup.Config,
		Profile:          s.Setup.Profile,
		Flex:             s.Setup.FlexConfig,
		Runner:           s.Setup.Runner,
	}
}

func resultFromOutcome(s fleet.Scenario, o memo.Outcome) fleet.Result {
	return fleet.Result{
		Name:          s.Name,
		Engine:        s.Engine,
		Profile:       fleet.ProfileLabel(s.Setup.Profile),
		Completed:     o.Completed,
		Predicted:     o.Predicted,
		Boots:         o.Boots,
		ActiveSec:     o.ActiveSec,
		WallSec:       o.WallSec,
		EnergymJ:      o.EnergymJ,
		Diagnosis:     o.Diagnosis,
		FastForwarded: o.FastForwarded,
		Err:           o.Err,
	}
}

func outcomeFromResult(r fleet.Result) memo.Outcome {
	return memo.Outcome{
		Profile:       r.Profile,
		Completed:     r.Completed,
		Predicted:     r.Predicted,
		Boots:         r.Boots,
		ActiveSec:     r.ActiveSec,
		WallSec:       r.WallSec,
		EnergymJ:      r.EnergymJ,
		Diagnosis:     r.Diagnosis,
		FastForwarded: r.FastForwarded,
		Err:           r.Err,
	}
}
