// Benchmarks regenerating the paper's evaluation artifacts. Each
// table/figure has one benchmark that executes the corresponding
// experiment and reports the headline quantities as custom metrics, so
// `go test -bench=. -benchmem` reproduces the whole evaluation.
//
// The three models are trained once (reduced budget) and shared.
package ehdl_test

import (
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ehdl"
	"ehdl/internal/cli"
	"ehdl/internal/core"
	"ehdl/internal/device"
	"ehdl/internal/experiments"
	"ehdl/internal/fixed"
	"ehdl/internal/fleet"
	"ehdl/internal/fleet/memo"
	"ehdl/internal/harvest"
	"ehdl/internal/nn"
	"ehdl/internal/quant"
)

var (
	tasksOnce sync.Once
	tasksVal  []*experiments.Task
	tasksErr  error
)

// benchTasks trains the three models once for all benchmarks.
func benchTasks(b *testing.B) []*experiments.Task {
	b.Helper()
	tasksOnce.Do(func() {
		// Full training budget: the reduced QuickOptions budget leaves
		// MNIST undertrained at some seeds, and the benchmark metrics
		// double as the Table II numbers.
		tasksVal, tasksErr = experiments.PrepareTasks(experiments.FullOptions())
	})
	if tasksErr != nil {
		b.Fatal(tasksErr)
	}
	return tasksVal
}

// BenchmarkTable1BCMCompression regenerates Table I.
func BenchmarkTable1BCMCompression(b *testing.B) {
	var rows []experiments.Table1Row
	for i := 0; i < b.N; i++ {
		rows = experiments.Table1()
	}
	for _, r := range rows {
		b.ReportMetric(r.ReductionPct, fmt.Sprintf("reduction-k%d-%%", r.BlockSize))
	}
}

// BenchmarkTable2ModelAccuracy regenerates Table II: quantized test
// accuracy of the three trained models (inference over the test set
// per iteration).
func BenchmarkTable2ModelAccuracy(b *testing.B) {
	tasks := benchTasks(b)
	t2 := experiments.Table2(tasks)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t2 = experiments.Table2(tasks)
	}
	for name, acc := range t2.Accuracy {
		b.ReportMetric(100*acc[1], name+"-quant-acc-%")
	}
}

// benchContinuous measures one engine on one task under bench power.
func benchContinuous(b *testing.B, taskIdx int, kind core.EngineKind) {
	tasks := benchTasks(b)
	t := tasks[taskIdx]
	input := fixed.FromFloats(t.Set.Test[0].Input)
	b.ResetTimer()
	var last float64
	var lastE float64
	for i := 0; i < b.N; i++ {
		rep, err := core.InferContinuous(kind, t.Result.Model, input)
		if err != nil {
			b.Fatal(err)
		}
		last = rep.Stats.ActiveSeconds * 1e3
		lastE = rep.Stats.EnergymJ()
	}
	b.ReportMetric(last, "device-ms")
	b.ReportMetric(lastE, "device-mJ")
}

// benchIntermittent measures one engine on one task under the paper's
// harvesting setup.
func benchIntermittent(b *testing.B, taskIdx int, kind core.EngineKind) {
	tasks := benchTasks(b)
	t := tasks[taskIdx]
	input := fixed.FromFloats(t.Set.Test[0].Input)
	b.ResetTimer()
	var activeMS, wallMS, boots float64
	completed := false
	for i := 0; i < b.N; i++ {
		rep, err := core.InferIntermittent(kind, t.Result.Model, input, core.PaperHarvestSetup())
		if err != nil {
			b.Fatal(err)
		}
		completed = rep.Intermittent.Completed
		activeMS = rep.Stats.ActiveSeconds * 1e3
		wallMS = rep.Stats.WallSeconds * 1e3
		boots = float64(rep.Intermittent.Boots)
	}
	b.ReportMetric(activeMS, "active-ms")
	b.ReportMetric(wallMS, "wall-ms")
	b.ReportMetric(boots, "boots")
	if completed {
		b.ReportMetric(1, "completed")
	} else {
		b.ReportMetric(0, "completed")
	}
}

// BenchmarkFig7aContinuous regenerates Fig. 7(a): inference time under
// continuous power for every task and runtime.
func BenchmarkFig7aContinuous(b *testing.B) {
	tasks := benchTasks(b)
	for ti := range tasks {
		for _, kind := range core.AllEngines() {
			name := fmt.Sprintf("%s/%s", tasks[ti].Name, kind)
			ti, kind := ti, kind
			b.Run(name, func(b *testing.B) { benchContinuous(b, ti, kind) })
		}
	}
}

// BenchmarkFig7bIntermittent regenerates Fig. 7(b): inference under
// the paper's 100 µF harvesting setup (BASE and plain ACE report
// completed=0 — the paper's "X").
func BenchmarkFig7bIntermittent(b *testing.B) {
	tasks := benchTasks(b)
	for ti := range tasks {
		for _, kind := range core.AllEngines() {
			name := fmt.Sprintf("%s/%s", tasks[ti].Name, kind)
			ti, kind := ti, kind
			b.Run(name, func(b *testing.B) { benchIntermittent(b, ti, kind) })
		}
	}
}

// BenchmarkFig7cEnergy regenerates Fig. 7(c): per-category energy of
// each runtime (continuous power), reported as metrics.
func BenchmarkFig7cEnergy(b *testing.B) {
	tasks := benchTasks(b)
	for ti := range tasks {
		for _, kind := range core.AllEngines() {
			t := tasks[ti]
			input := fixed.FromFloats(t.Set.Test[0].Input)
			kind := kind
			b.Run(fmt.Sprintf("%s/%s", t.Name, kind), func(b *testing.B) {
				var stats device.Stats
				for i := 0; i < b.N; i++ {
					rep, err := core.InferContinuous(kind, t.Result.Model, input)
					if err != nil {
						b.Fatal(err)
					}
					stats = rep.Stats
				}
				b.ReportMetric(stats.EnergymJ(), "total-mJ")
				for c := device.Category(0); c < device.NumCategories; c++ {
					if stats.Energy[c] > 0 {
						b.ReportMetric(stats.Energy[c]*1e-6, c.String()+"-mJ")
					}
				}
			})
		}
	}
}

// BenchmarkFig8FirstFC regenerates Fig. 8: the 256×256 first FC layer
// of MNIST on ACE, dense vs BCM blocks 32/64/128.
func BenchmarkFig8FirstFC(b *testing.B) {
	var rows []experiments.Fig8Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig8(7)
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		tag := strings.ReplaceAll(strings.ReplaceAll(r.Variant, " ", "-"), "(", "")
		tag = strings.ReplaceAll(tag, ")", "")
		b.ReportMetric(r.LatencyMS, tag+"-ms")
		b.ReportMetric(r.EnergyMJ, tag+"-mJ")
	}
}

// hostModel quantizes an untrained conv/pool/relu/bcm/dense stack for
// the host-side kernel benchmarks — bit-level behaviour does not
// depend on training, so these run without the training budget.
func hostModel(b *testing.B) (*quant.Model, []fixed.Q15) {
	b.Helper()
	rng := rand.New(rand.NewSource(17))
	arch := &nn.Arch{
		Name: "host-bench", InShape: [3]int{1, 8, 8}, NumClasses: 4,
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
	net := arch.Build(rng)
	calib := make([][]float64, 6)
	for i := range calib {
		x := make([]float64, arch.InLen())
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		calib[i] = x
	}
	m, err := quant.Quantize(net, arch, calib)
	if err != nil {
		b.Fatal(err)
	}
	in := make([]fixed.Q15, arch.InLen())
	for i := range in {
		in[i] = fixed.FromFloat(rng.Float64()*2 - 1)
	}
	return m, in
}

// BenchmarkExecutorForward measures the host reference executor's
// steady-state inference throughput for both BCM disciplines. With the
// ping-pong scratch buffers and the precomputed BCM weight spectra the
// loop body allocates nothing — -benchmem shows 0 allocs/op.
func BenchmarkExecutorForward(b *testing.B) {
	m, in := hostModel(b)
	for _, d := range []struct {
		name string
		exe  *quant.Executor
	}{
		{"fft", quant.NewExecutor(m)},
		{"time", quant.NewTimeExecutor(m)},
	} {
		b.Run(d.name, func(b *testing.B) {
			d.exe.Forward(in) // warm-up
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d.exe.Forward(in)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "inf/s")
		})
	}
}

// BenchmarkExecutorForwardAllocs is the zero-allocation regression
// gate in benchmark form: it reports the exact AllocsPerRun figure
// (must be 0) for the steady-state Forward of both disciplines.
func BenchmarkExecutorForwardAllocs(b *testing.B) {
	m, in := hostModel(b)
	for _, d := range []struct {
		name string
		exe  *quant.Executor
	}{
		{"fft", quant.NewExecutor(m)},
		{"time", quant.NewTimeExecutor(m)},
	} {
		b.Run(d.name, func(b *testing.B) {
			d.exe.Forward(in)
			var allocs float64
			for i := 0; i < b.N; i++ {
				allocs = testing.AllocsPerRun(10, func() { d.exe.Forward(in) })
			}
			b.ReportMetric(allocs, "allocs/forward")
			if allocs != 0 {
				b.Fatalf("steady-state Forward allocates %v times per run, want 0", allocs)
			}
		})
	}
}

// BenchmarkHostThroughput measures full device simulations per second
// of host wall time for every engine — the simulator-speed headline
// the BENCH trajectory tracks (device-side numbers are unchanged by
// host optimizations; this is how fast we can produce them).
func BenchmarkHostThroughput(b *testing.B) {
	m, in := hostModel(b)
	for _, kind := range core.AllEngines() {
		b.Run(string(kind), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := core.InferContinuous(kind, m, in); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "inf/s")
		})
	}
}

// BenchmarkRecharge measures one full VOff→VOn recharge under weak
// ambient sources (20–500 µW mean, sub-second to ~19 s of off-time),
// analytic engine vs the retained Euler oracle. The closed-form path
// costs O(profile segments) with whole periods skipped in one step;
// the oracle pays one loop iteration per 100 µs of simulated off-time
// — the wall-clock headroom that makes fleet sweeps and multi-hour
// profiles tractable.
func BenchmarkRecharge(b *testing.B) {
	profiles := []struct {
		name string
		p    harvest.Profile
	}{
		{"const", harvest.ConstantProfile{Watts: 5e-4}},
		{"square", harvest.SquareProfile{PeakWatts: 2e-3, Period: 2, Duty: 0.01}},
		{"sine", harvest.SineProfile{PeakWatts: 2e-4, Period: 2}},
	}
	recharge := func(b *testing.B, p harvest.Profile, euler bool) {
		b.Helper()
		var off float64
		for i := 0; i < b.N; i++ {
			c, err := harvest.NewCapacitor(harvest.PaperConfig(), p)
			if err != nil {
				b.Fatal(err)
			}
			c.Draw(1e9, 1e-3) // 1 J: guaranteed brown-out
			var ok bool
			if euler {
				off, ok = c.RechargeEuler(1e-4, 3600)
			} else {
				off, ok = c.Recharge()
			}
			if !ok {
				b.Fatal("source reported dead")
			}
		}
		b.ReportMetric(off, "sim-off-s")
	}
	for _, pr := range profiles {
		pr := pr
		b.Run("analytic/"+pr.name, func(b *testing.B) { recharge(b, pr.p, false) })
		b.Run("euler/"+pr.name, func(b *testing.B) { recharge(b, pr.p, true) })
	}
}

// BenchmarkCapacitorDraw measures one supply charge, the call every
// simulated operation makes through device.Consume: a 4-cycle, 0.5 nJ
// draw at the paper's 16 MHz clock, recharging on brown-out. This is
// the stage that dominates a memo-off fleet sweep, so ns/op here is
// ns per draw; it must stay at 0 allocs.
func BenchmarkCapacitorDraw(b *testing.B) {
	trace, err := harvest.NewTraceProfile(
		[]float64{0, 0.05, 0.1, 0.2, 0.3}, []float64{4e-3, 6e-3, 5e-3, 4.5e-3, 4e-3}, true)
	if err != nil {
		b.Fatal(err)
	}
	profiles := []struct {
		name string
		p    harvest.Profile
	}{
		{"const", harvest.ConstantProfile{Watts: 2.5e-3}},
		{"square", harvest.SquareProfile{PeakWatts: 5e-3, Period: 0.1, Duty: 0.5}},
		{"sine", harvest.SineProfile{PeakWatts: 6e-3, Period: 0.2}},
		{"trace", trace},
	}
	const dt = 4 / 16e6
	for _, pr := range profiles {
		b.Run(pr.name, func(b *testing.B) {
			c, err := harvest.NewCapacitor(harvest.PaperConfig(), pr.p)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if !c.Draw(0.5, dt) {
					c.Recharge()
				}
			}
		})
	}
}

// BenchmarkFleet measures the fleet layer: a 32-device deployment of
// the host model across all five runtimes and jittered square sources,
// reported as simulated devices per second of host time.
func BenchmarkFleet(b *testing.B) {
	m, in := hostModel(b)
	kinds := core.AllEngines()
	scenarios := make([]fleet.Scenario, 32)
	for i := range scenarios {
		setup := core.PaperHarvestSetup()
		// A small capacitor forces several power cycles per inference.
		setup.Config.CapacitanceF = 10e-6
		setup.Profile = harvest.SquareProfile{
			PeakWatts: 4e-3 + 1e-4*float64(i%10),
			Period:    0.1,
			Duty:      0.5,
		}
		scenarios[i] = fleet.Scenario{
			Name:   fmt.Sprintf("dev%02d", i),
			Engine: kinds[i%len(kinds)],
			Model:  m,
			Input:  in,
			Setup:  setup,
		}
	}
	var rep fleet.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep = ehdl.RunFleet(scenarios, 0)
	}
	for _, r := range rep.Results {
		if r.Err != nil && !r.Completed && r.Boots == 0 {
			b.Fatalf("%s: %v", r.Name, r.Err)
		}
	}
	b.ReportMetric(float64(len(scenarios))*float64(b.N)/b.Elapsed().Seconds(), "devices/s")
	b.ReportMetric(100*rep.CompletionRate, "completion-%")
	b.ReportMetric(float64(rep.TotalBoots), "boots")
}

// BenchmarkFleetStream measures the streaming fleet pipeline end to
// end: scenarios built lazily from a source, simulated over the
// worker pool, aggregated online (small exact-percentile threshold so
// the histogram path is exercised), and every row delivered in order
// to an NDJSON sink. Reported as simulated devices per second of host
// time; the trajectory headline for fleet-scale runs.
func BenchmarkFleetStream(b *testing.B) {
	m, in := hostModel(b)
	kinds := core.AllEngines()
	const devices = 512
	src := fleet.FuncSource(devices, func(i int) (fleet.Scenario, error) {
		setup := core.PaperHarvestSetup()
		setup.Config.CapacitanceF = 10e-6
		setup.Profile = harvest.SquareProfile{
			PeakWatts: 4e-3 + 1e-4*float64(i%10),
			Period:    0.1,
			Duty:      0.5,
		}
		return fleet.Scenario{
			Name:   fmt.Sprintf("dev%04d", i),
			Engine: kinds[i%len(kinds)],
			Model:  m,
			Input:  in,
			Setup:  setup,
		}, nil
	})
	var rep fleet.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		rep, err = fleet.RunStream(src, fleet.StreamOptions{
			ExactPercentiles: 64,
			Sink:             fleet.NewNDJSONSink(io.Discard),
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	if rep.Devices != devices || rep.PercentilesExact {
		b.Fatalf("unexpected report: %d devices, exact=%v", rep.Devices, rep.PercentilesExact)
	}
	b.ReportMetric(float64(devices)*float64(b.N)/b.Elapsed().Seconds(), "devices/s")
	b.ReportMetric(100*rep.CompletionRate, "completion-%")
}

// BenchmarkFleetStreamCheckpoint isolates the cost of durable
// checkpointing. Every iteration runs the *same* 8192-device fleet
// into the *same* real NDJSON file sink twice — once without and once
// with checkpointing at a quarter-sweep interval (three mid-sweep
// checkpoints plus the final one; per device that is still ~50×
// denser than DefaultCheckpointEvery) — and the overhead-% metric is
// the paired time delta. Interleaving the two configurations inside
// each iteration cancels the minutes-scale host noise that
// back-to-back sub-benchmarks would each absorb differently; the PR 7
// acceptance gate holds overhead-% under 5. Periodic checkpoint
// writes ride an async writer that overlaps fsync latency with
// simulation, so only the final synchronous checkpoint sits on the
// critical path — a per-sweep constant, which is why the fleet here
// is big enough (~1.3 s of simulation per sweep) to amortize it the
// way a real sweep would; CI runs this benchmark in its own short
// pass (10 iterations) for the same reason.
func BenchmarkFleetStreamCheckpoint(b *testing.B) {
	m, in := hostModel(b)
	kinds := core.AllEngines()
	const devices = 8192
	src := fleet.FuncSource(devices, func(i int) (fleet.Scenario, error) {
		setup := core.PaperHarvestSetup()
		setup.Config.CapacitanceF = 10e-6
		setup.Profile = harvest.SquareProfile{
			PeakWatts: 4e-3 + 1e-4*float64(i%10),
			Period:    0.1,
			Duty:      0.5,
		}
		return fleet.Scenario{
			Name:   fmt.Sprintf("dev%04d", i),
			Engine: kinds[i%len(kinds)],
			Model:  m,
			Input:  in,
			Setup:  setup,
		}, nil
	})
	dir := b.TempDir()
	rowsPath := filepath.Join(dir, "rows.ndjson")
	sweep := func(ckptPath string) fleet.Report {
		run, err := fleet.OpenRun(fleet.Output{
			Rows:        rowsPath,
			Checkpoint:  ckptPath,
			Every:       devices / 4,
			Fingerprint: "bench",
		}, false)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := run.Stream(src, fleet.StreamOptions{ExactPercentiles: 64})
		if err != nil {
			b.Fatal(err)
		}
		return rep
	}
	ckptPath := filepath.Join(dir, "ck.ehdl")
	var tOff, tOn time.Duration
	var rep fleet.Report
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t0 := time.Now()
		sweep("")
		tOff += time.Since(t0)
		t1 := time.Now()
		rep = sweep(ckptPath)
		tOn += time.Since(t1)
	}
	if rep.Devices != devices || rep.PercentilesExact {
		b.Fatalf("unexpected report: %d devices, exact=%v", rep.Devices, rep.PercentilesExact)
	}
	total := float64(devices) * float64(b.N)
	b.ReportMetric(total/tOff.Seconds(), "base-devices/s")
	b.ReportMetric(total/tOn.Seconds(), "ckpt-devices/s")
	b.ReportMetric(100*(tOn.Seconds()-tOff.Seconds())/tOff.Seconds(), "overhead-%")
}

// BenchmarkFleetMemo measures the fleet inference memo (PR 6): a
// 512-device fleet whose jitter is quantized into 8 power classes per
// engine, so 512 devices collapse into 40 (engine × class) simulation
// equivalence classes. The memoized run should therefore approach a
// ~12.8× devices/s speedup over the unmemoized baseline — the
// ISSUE's >= 10x acceptance gate, measured cold (a fresh memo every
// iteration, fill cost included).
func BenchmarkFleetMemo(b *testing.B) {
	m, in := hostModel(b)
	kinds := core.AllEngines()
	const devices = 512
	src := fleet.FuncSource(devices, func(i int) (fleet.Scenario, error) {
		setup := core.PaperHarvestSetup()
		setup.Config.CapacitanceF = 10e-6
		setup.Profile = harvest.SquareProfile{
			// The quantized-jitter shape: 8 discrete power classes, as
			// a scenario file with jitter_steps 8 would draw.
			PeakWatts: 4e-3 + 1e-4*float64(i%8),
			Period:    0.1,
			Duty:      0.5,
		}
		return fleet.Scenario{
			Name:   fmt.Sprintf("dev%04d", i),
			Engine: kinds[i%len(kinds)],
			Model:  m,
			Input:  in,
			Setup:  setup,
		}, nil
	})
	run := func(b *testing.B, mm func() *memo.Memo) fleet.Report {
		var rep fleet.Report
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var opts fleet.StreamOptions
			if mm != nil {
				opts.Memo = mm()
			}
			var err error
			rep, err = fleet.RunStream(src, opts)
			if err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(devices)*float64(b.N)/b.Elapsed().Seconds(), "devices/s")
		b.ReportMetric(100*rep.CompletionRate, "completion-%")
		return rep
	}
	b.Run("memo=off", func(b *testing.B) { run(b, nil) })
	b.Run("memo=on", func(b *testing.B) {
		rep := run(b, func() *memo.Memo { return memo.New(0) })
		if rep.Memo == nil {
			b.Fatal("memoized run reported no stats")
		}
		b.ReportMetric(100*float64(rep.Memo.Hits())/float64(devices), "hit-%")
	})
}

// replayScenario is a citywide-like scenario over 64 devices: ACE+FLEX
// rooftops on quantized jitter, TAILS offices on a sine and SONIC
// cellars on a constant supply. Resized, device i cycles through its
// spec and the bundle's 64 test inputs. The memo keys a row on its
// harvest class (2 rooftop jitter bins, the office sine, the cellar
// supply) and each input's reference prediction, plus the input for
// any class whose ACE+FLEX run resumes onto an overwritten input, so
// a few hundred entries cover any fleet size.
const replayScenario = `{
  "defaults": { "model": "mnist.gob", "engine": "ace+flex" },
  "devices": [
    { "name": "rooftop", "count": 40, "jitter": 0.25, "jitter_steps": 2 },
    { "name": "office", "count": 16, "engine": "tails", "cap_f": 220e-6,
      "profile": { "kind": "sine", "power_w": 6e-3, "period_s": 0.2 } },
    { "name": "cellar", "count": 8, "engine": "sonic",
      "profile": { "kind": "const", "power_w": 2.5e-3 } }
  ]
}`

// replaySource compiles replayScenario, resized to devices, over a
// freshly quantized model.
func replaySource(b *testing.B, devices int) fleet.Source {
	dir := b.TempDir()
	if err := cli.SaveModel(filepath.Join(dir, "mnist.gob"), replayModel(b)); err != nil {
		b.Fatal(err)
	}
	sf, err := cli.DecodeScenarioFile(strings.NewReader(replayScenario))
	if err != nil {
		b.Fatal(err)
	}
	base, err := cli.CompileFleetSource(sf, dir, 1, nil)
	if err != nil {
		b.Fatal(err)
	}
	return base.Resize(devices)
}

// BenchmarkFleetMemoReplay measures a memo replay, the city-warm
// shape: replayScenario resized to 16,384 devices behind a memo that
// one untimed sweep filled, 2 workers, rows to an NDJSON sink on
// io.Discard. Every timed device is a full hit, so only the row
// pipeline runs: scenario build, memo probe and lookup, aggregation
// and row encoding. Reported as devices/s and heap allocations per
// device.
func BenchmarkFleetMemoReplay(b *testing.B) {
	const devices = 16384
	src := replaySource(b, devices)
	m := memo.New(0)
	sweep := func() {
		if _, err := fleet.RunStream(src, fleet.StreamOptions{
			Workers: 2, Memo: m, Sink: fleet.NewNDJSONSink(io.Discard),
		}); err != nil {
			b.Fatal(err)
		}
	}
	sweep()
	filled := m.Stats()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sweep()
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms1)
	if st := m.Stats(); st.Misses != filled.Misses {
		b.Fatalf("%d misses after the fill sweep, want 0", st.Misses-filled.Misses)
	}
	n := float64(devices) * float64(b.N)
	b.ReportMetric(n/b.Elapsed().Seconds(), "devices/s")
	b.ReportMetric(float64(ms1.Mallocs-ms0.Mallocs)/n, "allocs/device")
}

// BenchmarkLRUGetParallel measures a cache hit in the memo's bounded
// cache under contention, the read every replayed device makes: 600
// trajectory-shaped keys (about citywide's entry count), each read
// from every b.RunParallel goroutine. Reported as ns/op, one hit per
// op.
func BenchmarkLRUGetParallel(b *testing.B) {
	const entries = 600
	l := memo.NewLRU[memo.Key, any](memo.DefaultCapacity)
	keys := make([]memo.Key, entries)
	for k := range keys {
		// Code as the memo packs a trajectory key: tier 3, engine
		// ace+flex (code 5), 784-word inputs.
		keys[k] = memo.Key{Code: 3<<56 | 5<<48 | 784, Harvest: uint64(k) * 0x9e3779b97f4a7c15}
		keys[k].Model[0] = 0xee
		l.Add(keys[k], memo.Outcome{Boots: uint64(k)})
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		k := rand.Intn(entries)
		for pb.Next() {
			if _, ok := l.Get(keys[k]); !ok {
				b.Error("cached key missed")
				return
			}
			if k++; k == entries {
				k = 0
			}
		}
	})
}

// BenchmarkFleetMemoFill measures a memo fill, the set-up of the
// city-warm shape: replayScenario resized to 16,384 devices into a
// fresh memo each iteration, 2 workers, rows to an NDJSON sink on
// io.Discard. The misses are the devices simulated; every other
// device replays its class's trajectory. Reported as devices/s and
// misses per fill.
func BenchmarkFleetMemoFill(b *testing.B) {
	const devices = 16384
	src := replaySource(b, devices)
	var misses uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := fleet.RunStream(src, fleet.StreamOptions{
			Workers: 2, Memo: memo.New(0), Sink: fleet.NewNDJSONSink(io.Discard),
		})
		if err != nil {
			b.Fatal(err)
		}
		misses = rep.Memo.Misses
	}
	b.ReportMetric(float64(devices)*float64(b.N)/b.Elapsed().Seconds(), "devices/s")
	b.ReportMetric(float64(misses), "misses")
}

// replayModel quantizes a randomly initialized model with MNIST's
// name and input geometry, so the scenario compiler pairs it with the
// MNIST test set (784-word inputs).
func replayModel(b *testing.B) *quant.Model {
	b.Helper()
	arch := &nn.Arch{
		Name: "mnist", InShape: [3]int{1, 28, 28}, NumClasses: 10,
		Specs: []nn.LayerSpec{
			{Kind: "conv", InC: 1, InH: 28, InW: 28, OutC: 2, KH: 5, KW: 5},
			{Kind: "pool", InC: 2, InH: 24, InW: 24, PoolSize: 2},
			{Kind: "relu", N: 2 * 12 * 12},
			{Kind: "flatten", N: 288},
			{Kind: "bcm", In: 288, Out: 32, K: 16, WeightNorm: true},
			{Kind: "relu", N: 32},
			{Kind: "dense", In: 32, Out: 10},
		},
	}
	rng := rand.New(rand.NewSource(9))
	net := arch.Build(rng)
	calib := make([][]float64, 4)
	for i := range calib {
		x := make([]float64, arch.InLen())
		for j := range x {
			x[j] = rng.Float64()*2 - 1
		}
		calib[i] = x
	}
	m, err := quant.Quantize(net, arch, calib)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkCheckpointOverhead regenerates §IV-A.5: FLEX's
// checkpoint+restore energy share under intermittent power.
func BenchmarkCheckpointOverhead(b *testing.B) {
	tasks := benchTasks(b)
	for ti := range tasks {
		t := tasks[ti]
		input := fixed.FromFloats(t.Set.Test[0].Input)
		b.Run(t.Name, func(b *testing.B) {
			var overheadPct float64
			for i := 0; i < b.N; i++ {
				rep, err := core.InferIntermittent(core.EngineACEFLEX, t.Result.Model, input, core.PaperHarvestSetup())
				if err != nil {
					b.Fatal(err)
				}
				if !rep.Intermittent.Completed {
					b.Fatal("ACE+FLEX did not complete")
				}
				ck := rep.Stats.Energy[device.CatCheckpoint] + rep.Stats.Energy[device.CatRestore]
				overheadPct = 100 * ck / rep.Stats.TotalEnergynJ
			}
			b.ReportMetric(overheadPct, "ckpt-overhead-%")
		})
	}
}
