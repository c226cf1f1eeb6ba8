package main

// The two in-process workloads over examples/scenarios/citywide.json:
// city-cold simulates every device (memo off), city-warm replays every
// device from a filled memo. See README.md for why each exists.

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"ehdl/internal/cli"
	"ehdl/internal/fleet"
	"ehdl/internal/fleet/memo"
	"ehdl/internal/quant"
)

// setupRepeats is how many times each run compiles the scenario; the
// median is what setup_s reports for it. A compile takes about 2 ms
// and the first few in a process are slower, so a median of 5 moves
// by 20% from run to run; one of 25 is steadier.
const setupRepeats = 25

// A sweep runs as this many consecutive partitions, so that the host's
// speed can be probed between them, every half second or so of work:
// spread evenly over the work's time, the probes' mean weighs the host's
// speed as the work felt it.
const (
	coldBlocks = 50   // 200 devices, ~0.35 s
	fillBlocks = 1000 // the city-warm memo fill: 1,000 devices, from ~1 s (simulated) to ~5 ms (replayed)
	warmBlocks = 5    // 200,000 devices, ~0.9 s
)

func cityCold(cfg config) (outcome, error) {
	sp, err := speedometerFor(cfg)
	if err != nil {
		return outcome{}, err
	}
	defer sp.stop()
	src, setup, err := compile(cfg)
	if err != nil {
		return outcome{}, err
	}
	sp.endSetup()
	if cfg.coldDevices > 0 {
		src = src.Resize(cfg.coldDevices)
	}
	if cfg.trace {
		return coldTraced(cfg, src, setup)
	}
	n := src.Len()
	var (
		o     outcome
		durs  []float64
		first string
	)
	// Whole sweeps only: another starts while it is expected to end
	// within the run's seconds.
	for k := 0; k == 0 || sum(durs)+sum(durs)/float64(k) <= cfg.seconds; k++ {
		path := filepath.Join(cfg.work, fmt.Sprintf("cold-%d.ndjson", k))
		file, err := fleet.NewNDJSONFile(path, 0)
		if err != nil {
			return o, err
		}
		setupErrs, _, secs, err := sweep(src, cfg.workers, coldBlocks, nil, file, sp)
		if err != nil {
			file.Close()
			return o, err
		}
		t0 := time.Now()
		if err := file.Close(); err != nil {
			return o, err
		}
		durs = append(durs, secs+time.Since(t0).Seconds())
		digest, err := hashFile(path)
		if err != nil {
			return o, err
		}
		if err := os.Remove(path); err != nil {
			return o, err
		}
		o.attempted += n
		o.failed += setupErrs
		if k == 0 {
			first = digest
			o.checkRows(cfg, digest, n, "sweep 0")
		} else if digest != first {
			o.fail(n, "sweep %d rows %s differ from sweep 0 %s", k, digest, first)
		}
	}
	o.vals = sweepMetrics(n, durs, setup)
	logf("city-cold: %d sweeps of %d devices, sweep times %v", len(durs), n, durs)
	return o, sp.finish(cfg.workload, o.vals)
}

// sweep runs src through RunStream into sink as blocks consecutive
// partitions, with sp probing the host after each. Partitions keep
// global row indices, so the sink receives exactly the rows of one
// whole-fleet RunStream. It returns the setup-error rows, the memo's
// counters after the last block (nil with the memo off) and the host
// seconds spent in RunStream, probes excluded.
func sweep(src fleet.Source, workers, blocks int, m *memo.Memo, sink fleet.Sink, sp *speedometer) (setupErrs int, memoStats *memo.Stats, secs float64, err error) {
	for b := 0; b < blocks; b++ {
		t0 := time.Now()
		rep, err := fleet.RunStream(src, fleet.StreamOptions{
			Workers: workers, Memo: m, Sink: sink, Partition: fleet.Partition{Index: b, Of: blocks},
		})
		secs += time.Since(t0).Seconds()
		if err != nil {
			return setupErrs, nil, secs, err
		}
		setupErrs += rep.Diagnoses[fleet.SetupErrorDiagnosis]
		memoStats = rep.Memo
		sp.tick()
	}
	return setupErrs, memoStats, secs, nil
}

// sweepMetrics are the end-to-end metrics of sweeps of n devices that
// took durs seconds each: devices/s is the median over sweeps, and a
// sweep's time to its last row is its duration.
func sweepMetrics(n int, durs []float64, setup float64) map[string]float64 {
	rates := make([]float64, len(durs))
	for i, d := range durs {
		rates[i] = float64(n) / d
	}
	return map[string]float64{
		"devices_per_s": median(rates),
		"ttlr_p50_s":    nearestRank(durs, 50),
		"ttlr_p90_s":    nearestRank(durs, 90),
		"setup_s":       setup,
	}
}

func cityWarm(cfg config) (outcome, error) {
	sp, err := speedometerFor(cfg)
	if err != nil {
		return outcome{}, err
	}
	defer sp.stop()
	src, compileS, err := compile(cfg)
	if err != nil {
		return outcome{}, err
	}
	src = src.Resize(cfg.warmDevices)
	n := src.Len()
	m := memo.New(0)
	var o outcome
	h := sha256.New()
	fillErrs, fillMemo, fillS, err := sweep(src, cfg.workers, fillBlocks, m, fleet.NewNDJSONSink(h), sp)
	if err != nil {
		return o, err
	}
	sp.endSetup()
	fillDigest := hex.EncodeToString(h.Sum(nil))
	o.attempted += n
	o.failed += fillErrs
	o.checkRows(cfg, fillDigest, n, "fill sweep")
	if cfg.trace {
		return warmTraced(cfg, src, m, *fillMemo, compileS, o)
	}

	var durs []float64
	for len(durs) == 0 || sum(durs) < cfg.seconds {
		h := sha256.New()
		setupErrs, _, secs, err := sweep(src, cfg.workers, warmBlocks, m, fleet.NewNDJSONSink(h), sp)
		if err != nil {
			return o, err
		}
		durs = append(durs, secs)
		o.attempted += n
		o.failed += setupErrs
		if digest := hex.EncodeToString(h.Sum(nil)); digest != fillDigest {
			o.fail(n, "sweep %d rows %s differ from the fill sweep %s", len(durs)-1, digest, fillDigest)
		}
	}
	o.vals = sweepMetrics(n, durs, compileS+fillS)
	st := m.Stats()
	logf("city-warm: %d sweeps of %d devices; memo %d entries, %d misses after the fill (fill missed %d)",
		len(durs), n, st.Entries, st.Misses-fillMemo.Misses, fillMemo.Misses)
	return o, sp.finish(cfg.workload, o.vals)
}

// coldTraced drives the mirror over every traceStride-th device, after
// an untraced single-worker RunStream over the same devices.
func coldTraced(cfg config, src *cli.FleetSource, compileS float64) (outcome, error) {
	o, l, err := traceDevices(cfg, strided(src, cfg.traceStride), nil)
	if err != nil {
		return o, err
	}
	if l.vals, err = setupLayers(cfg, compileS); err != nil {
		return o, err
	}
	return o, l.report(cfg, &o)
}

// warmTraced drives the memoized mirror over the first warmMirror
// devices of the filled fleet, and times memo.Fill into a fresh memo
// with the outcomes it replays.
func warmTraced(cfg config, src *cli.FleetSource, m *memo.Memo, fillStats memo.Stats, compileS float64, o outcome) (outcome, error) {
	sub := fleet.FuncSource(min(cfg.warmMirror, src.Len()), src.At)
	to, l, err := traceDevices(cfg, sub, m)
	if err != nil {
		return o, err
	}
	o.add(to)

	fresh := memo.New(0)
	fillTr := newTracer(l.epoch)
	for i := 0; i < min(sub.Len(), 5000); i++ {
		s, err := sub.At(i)
		if err != nil {
			return o, err
		}
		probe, ok := memo.NewProbe(memoDevice(s))
		if !ok {
			continue
		}
		out, kind := m.Lookup(probe)
		if kind == memo.Miss {
			continue
		}
		sp := fillTr.begin("memo.fill", -1)
		fresh.Fill(probe, out)
		fillTr.finish(sp)
	}
	l.tracers = append(l.tracers, fillTr)
	l.memoStats = &fillStats
	if l.vals, err = setupLayers(cfg, compileS); err != nil {
		return o, err
	}
	return o, l.report(cfg, &o)
}

// setupLayers times the set-up layers: scenario compile (measured by
// compile) and the model artifact load on its own.
func setupLayers(cfg config, compileS float64) (map[string]float64, error) {
	var times []float64
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		if _, err := cli.LoadModel(cfg.modelPath()); err != nil {
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return map[string]float64{
		"cli.compile_ms":    1e3 * compileS,
		"cli.load_model_ms": 1e3 * median(times),
	}, nil
}

// strided is the fleet's every stride-th device, renumbered from 0.
func strided(src fleet.Source, stride int) fleet.Source {
	return fleet.FuncSource(src.Len()/stride, func(i int) (fleet.Scenario, error) {
		return src.At(i * stride)
	})
}

// traceBlocks is how many blocks traceDevices alternates between the
// untraced and the traced path, so drift in the machine's speed
// during the run affects both alike.
const traceBlocks = 10

// traceDevices runs sub's devices block by block, each block first
// through an untraced single-worker RunStream and then through the
// mirror with spans, and checks that both produced the same rows. It
// then times the reference executor on the same inputs and counts
// allocations in a separate pass.
func traceDevices(cfg config, sub fleet.Source, m *memo.Memo) (outcome, *layers, error) {
	var o outcome
	n := sub.Len()
	l := &layers{epoch: time.Now()}
	ref := sha256.New()
	cw := &countingWriter{h: sha256.New()}
	mr := newMirror(newTracer(l.epoch), m, nil)
	var untraced time.Duration
	var mallocs uint64
	for b := 0; b < traceBlocks; b++ {
		lo, hi := b*n/traceBlocks, (b+1)*n/traceBlocks
		blk := fleet.FuncSource(hi-lo, func(i int) (fleet.Scenario, error) { return sub.At(lo + i) })
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		t0 := time.Now()
		if _, err := fleet.RunStream(blk, fleet.StreamOptions{Workers: 1, Memo: m, Sink: fleet.NewNDJSONSink(ref)}); err != nil {
			return o, nil, err
		}
		untraced += time.Since(t0)
		runtime.ReadMemStats(&ms1)
		mallocs += ms1.Mallocs - ms0.Mallocs

		mr.sink = fleet.NewNDJSONSink(cw)
		for i := 0; i < blk.Len(); i++ {
			if err := mr.device(blk, i); err != nil {
				return o, nil, err
			}
		}
	}
	o.attempted = n
	if got, want := hex.EncodeToString(cw.h.Sum(nil)), hex.EncodeToString(ref.Sum(nil)); got != want {
		o.fail(n, "traced rows %s differ from RunStream rows %s", got, want)
	}
	l.untracedNS = float64(untraced.Nanoseconds()) / float64(n)
	l.spanNS = emptySpanNS(l.epoch)
	l.allocsPerDevice = float64(mallocs) / float64(n)
	l.mirror = mr
	l.sim, l.simEnergyMJ = mr.agg, mr.energyMJ
	l.rowBytes = float64(cw.n) / float64(n)
	l.tracers = append(l.tracers, mr.tr)

	fwd := newTracer(l.epoch)
	var exe *quant.Executor
	for i := 0; i < min(n, 1000); i++ {
		s, err := sub.At(i)
		if err != nil {
			return o, nil, err
		}
		if exe == nil {
			exe = quant.NewExecutor(s.Model)
		}
		sp := fwd.begin("quant.forward", -1)
		exe.Forward(s.Input)
		fwd.finish(sp)
	}
	l.tracers = append(l.tracers, fwd)

	if m == nil {
		am := newMirror(newTracer(l.epoch), nil, fleet.NewNDJSONSink(io.Discard))
		am.countAllocs = true
		for i := 0; i < min(n, 100); i++ {
			if err := am.device(sub, i); err != nil {
				return o, nil, err
			}
		}
		l.allocs = am
	}
	return o, l, nil
}

// compile loads the scenario setupRepeats times, each into a fresh
// artifact cache, and returns the last source and the median time.
func compile(cfg config) (*cli.FleetSource, float64, error) {
	var times []float64
	var src *cli.FleetSource
	for k := 0; k < setupRepeats; k++ {
		t0 := time.Now()
		s, err := cli.LoadFleetSource(cfg.scenarioPath(), cfg.seed)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		src = s
	}
	return src, median(times), nil
}

func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", fmt.Errorf("hash %s: %w", path, err)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

type countingWriter struct {
	h hash.Hash
	n int64
}

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += int64(len(p))
	return w.h.Write(p)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}
