package main

import (
	"strings"
	"time"

	"ehdl/internal/device"
	"ehdl/internal/fleet"
	"ehdl/internal/fleet/memo"
)

// layers collects what a traced run measured and turns it into the
// per-layer metrics. A layer the workload does not drive reads 0.
type layers struct {
	epoch   time.Time
	tracers []*tracer
	// mirror is the timed device mirror and allocs the separate
	// allocation-counting pass; either may be nil.
	mirror, allocs *mirror
	// untracedNS is an untraced single-worker RunStream's host time
	// per device over the mirror's devices, and allocsPerDevice its
	// heap allocations per device.
	untracedNS      float64
	allocsPerDevice float64
	spanNS          float64 // see emptySpanNS
	rowBytes        float64
	memoStats       *memo.Stats
	// sim aggregates the rows the run checked, and simEnergyMJ sums
	// their simulated energy.
	sim         *fleet.Agg
	simEnergyMJ float64
	// vals holds metrics the workload measured itself.
	vals map[string]float64
}

// report sets o's metrics and writes the spans.
func (l *layers) report(cfg config, o *outcome) error {
	o.vals = l.metrics()
	if cfg.spans == "" {
		return nil
	}
	return writeSpans(cfg.spans, l.tracers...)
}

func (l *layers) metrics() map[string]float64 {
	self := map[string]layerTime{}
	for _, t := range l.tracers {
		for name, lt := range selfTimes(t.spans) {
			s := self[name]
			s.selfNS += lt.selfNS
			s.count += lt.count
			self[name] = s
		}
	}
	perCall := func(name string, unit float64) float64 {
		lt := self[name]
		if lt.count == 0 {
			return 0
		}
		return float64(lt.selfNS) / float64(lt.count) / unit
	}
	// Shares are of the mirror's per-device host time alone.
	var devNS int64
	devices := 0
	mself := map[string]layerTime{}
	if l.mirror != nil {
		mself = selfTimes(l.mirror.tr.spans)
		dev := totalTimes(l.mirror.tr.spans)["device"]
		devNS, devices = dev.selfNS, dev.count
	}
	share := func(names ...string) float64 {
		if devNS == 0 {
			return 0
		}
		var ns int64
		for _, n := range names {
			ns += mself[n].selfNS
		}
		return 100 * float64(ns) / float64(devNS)
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	v := map[string]float64{
		"exec.run_us":              perCall("exec.run", 1e3),
		"exec.flash_ns":            perCall("exec.flash", 1),
		"core.engine_new_ns":       perCall("core.engine_new", 1),
		"harvest.capacitor_new_ns": perCall("harvest.capacitor_new", 1),
		"device.new_ns":            perCall("device.new", 1),
		"quant.forward_us":         perCall("quant.forward", 1e3),
		"cli.at_ns":                perCall("cli.at", 1),
		"memo.probe_ns":            perCall("memo.probe", 1),
		"memo.lookup_ns":           perCall("memo.lookup", 1),
		"memo.fill_ns":             perCall("memo.fill", 1),
		"fleet.observe_ns":         perCall("fleet.observe", 1),
		"fleet.encode_ns":          perCall("fleet.encode", 1),
		"fleet.snapshot_us":        perCall("fleet.snapshot", 1e3),
		"fleet.flush_ms":           perCall("fleet.flush", 1e6),
		"fleetd.submit_ms":         perCall("fleetd.submit", 1e6),
		"fleetd.run_ms":            perCall("fleetd.run", 1e6),
		"fleetd.first_row_ms":      perCall("fleetd.first_row", 1e6),
		"fleetd.stream_ms":         perCall("fleetd.stream", 1e6),
		"fleetd.report_ms":         perCall("fleetd.report", 1e6),
		"fleet.row_bytes":          l.rowBytes,
		"fleet.allocs_per_device":  l.allocsPerDevice,
		"exec.run_share_pct":       share("exec.run"),
		"pipeline.share_pct":       share("cli.at", "memo.probe", "memo.lookup", "memo.fill", "fleet.observe", "fleet.encode"),
	}
	if devices > 0 && l.untracedNS > 0 {
		traced := float64(devNS) / float64(devices)
		// The stages' summed time, less what their spans themselves cost.
		stageSpans := float64(len(l.mirror.tr.spans)-devices) / float64(devices)
		stages := float64(devNS-mself["device"].selfNS)/float64(devices) - stageSpans*l.spanNS
		// Where devices are simulated, RunStream's overhead is far below
		// the run-to-run noise of exec.run, so the difference means
		// nothing there.
		if l.mirror.memo != nil {
			v["fleet.stream_overhead_ns"] = l.untracedNS - stages
		}
		v["trace.overhead_pct"] = 100 * (traced/l.untracedNS - 1)
	}
	if m := l.mirror; m != nil && m.sims > 0 {
		v["exec.run_ns_per_cycle"] = ratio(float64(mself["exec.run"].selfNS), float64(m.cycles))
		v["intermittent.boots_per_device"] = float64(m.boots) / float64(m.sims)
		v["intermittent.ff_boot_pct"] = 100 * ratio(float64(m.ffBoot), float64(m.boots))
		total := 0.0
		for _, e := range m.energy {
			total += e
		}
		for c := device.Category(0); c < device.NumCategories; c++ {
			v["device.energy_pct."+c.String()] = 100 * ratio(m.energy[c], total)
		}
		for engine, ns := range m.runNS {
			v["exec.run_us."+strings.ReplaceAll(engine, "+", "")] = float64(ns) / float64(m.runCount[engine]) / 1e3
		}
	}
	if a := l.allocs; a != nil && a.sims > 0 {
		v["exec.flash_allocs"] = float64(a.flashAllocs) / float64(a.sims)
		v["exec.run_allocs"] = float64(a.runAllocs) / float64(a.sims)
	}
	if l.sim != nil {
		if rep := l.sim.Report(); rep.Devices > 0 {
			v["sim.completion_pct"] = 100 * rep.CompletionRate
			v["sim.energy_mj_mean"] = l.simEnergyMJ / float64(rep.Devices)
			v["sim.wall_p50_ms"] = 1e3 * rep.WallP50Sec
		}
	}
	if st := l.memoStats; st != nil {
		lookups := float64(st.Hits() + st.Misses)
		v["memo.hit_pct"] = 100 * ratio(float64(st.Hits()), lookups)
		v["memo.compute_hit_pct"] = 100 * ratio(float64(st.ComputeHits), lookups)
	}
	for k, x := range l.vals {
		v[k] = x
	}
	return v
}
