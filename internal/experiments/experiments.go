// Package experiments regenerates every table and figure of the
// paper's evaluation (§IV): Table I (BCM storage), Table II (model
// structure and accuracy), Fig. 7(a)–(c) (latency and energy under
// continuous and intermittent power across the four runtimes), Fig. 8
// (the first FC layer of MNIST at several BCM block sizes), and the
// checkpointing-overhead numbers of §IV-A.5.
package experiments

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"

	"ehdl/internal/artifact/cache"
	"ehdl/internal/circulant"
	"ehdl/internal/core"
	"ehdl/internal/dataset"
	"ehdl/internal/device"
	"ehdl/internal/fixed"
	"ehdl/internal/nn"
	"ehdl/internal/quant"
	"ehdl/internal/rad"
)

// Options scales the experiments: full size for cmd/paperbench,
// reduced for tests and quick benchmarks.
type Options struct {
	TrainSamples int
	TestSamples  int
	Epochs       int
	ADMMRounds   int
	Seed         int64

	// CacheDir enables the content-addressed trained-model cache:
	// PrepareTasks loads models whose (arch, dataset, options) key is
	// already cached instead of retraining, and stores fresh training
	// results for the next run. Empty disables caching. Cached results
	// are bit-identical to retraining (training is deterministic); see
	// internal/artifact/cache for the invalidation rules.
	CacheDir string
}

// FullOptions reproduces the paper-scale runs (minutes of training).
func FullOptions() Options {
	return Options{TrainSamples: 1200, TestSamples: 240, Epochs: 4, ADMMRounds: 3, Seed: 1}
}

// QuickOptions is sized for tests: small but still learns.
func QuickOptions() Options {
	return Options{TrainSamples: 300, TestSamples: 60, Epochs: 2, ADMMRounds: 1, Seed: 1}
}

// Task bundles one trained workload.
type Task struct {
	Name   string
	Set    *dataset.Set
	Arch   *nn.Arch
	Result *rad.Result
	// FromCache is true when the result was served by the trained-model
	// cache instead of a fresh training run. Cached results omit the
	// float network (Result.Net is nil); everything the experiments
	// consume — model, accuracies, prune report — is present.
	FromCache bool
}

// PrepareTasks trains the paper's three models through the full RAD
// pipeline. The tasks are fully independent — each owns its dataset,
// rngs (all seeded locally) and network — so they train concurrently;
// the returned order matches the spec order regardless of which
// finishes first, and the per-task results are bit-identical to a
// serial run. With Options.CacheDir set, tasks whose content key is
// already cached skip training entirely (Task.FromCache).
func PrepareTasks(opts Options) ([]*Task, error) {
	cfg := rad.DefaultPipelineConfig()
	cfg.Train.Epochs = opts.Epochs
	cfg.Train.Seed = opts.Seed
	cfg.ADMM.Rounds = opts.ADMMRounds
	cfg.ADMM.Train.Epochs = 1
	cfg.ADMM.Train.Seed = opts.Seed
	cfg.Seed = opts.Seed + 1

	specs := []struct {
		name string
		set  *dataset.Set
		arch *nn.Arch
	}{
		{"MNIST", dataset.MNIST(opts.TrainSamples, opts.TestSamples, opts.Seed), nn.MNISTArch(128, true)},
		{"HAR", dataset.HAR(opts.TrainSamples, opts.TestSamples, opts.Seed+1), nn.HARArch(128, 64)},
		{"OKG", dataset.OKG(opts.TrainSamples, opts.TestSamples, opts.Seed+2), nn.OKGArch(256, 128, 64)},
	}

	var store *cache.Cache
	if opts.CacheDir != "" {
		var err error
		if store, err = cache.Open(opts.CacheDir); err != nil {
			return nil, fmt.Errorf("experiments: %w", err)
		}
	}

	tasks := make([]*Task, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i := range specs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := specs[i]
			var key string
			if store != nil {
				key = cache.Spec{
					Dataset:      s.name,
					TrainSamples: opts.TrainSamples,
					TestSamples:  opts.TestSamples,
					Seed:         opts.Seed + int64(i),
					Arch:         s.arch,
					Config:       cfg,
				}.Key()
				// A cache read failure is a miss, never an abort: the
				// cache only saves time, so training proceeds and the
				// fresh result overwrites whatever was unreadable.
				if e, err := store.Load(key); err == nil && e != nil {
					tasks[i] = &Task{
						Name: s.name, Set: s.set, Arch: s.arch, FromCache: true,
						Result: &rad.Result{
							Arch:          s.arch,
							Model:         e.Model,
							FloatAccuracy: e.FloatAccuracy,
							QuantAccuracy: e.QuantAccuracy,
							Prune:         e.Prune,
							EstCycles:     e.EstCycles,
						},
					}
					return
				}
			}
			res, err := rad.Train(s.arch, s.set, cfg)
			if err != nil {
				errs[i] = fmt.Errorf("experiments: train %s: %w", s.name, err)
				return
			}
			if store != nil {
				// Likewise a store failure (full disk, read-only dir)
				// must not discard a completed training run; the entry
				// simply is not cached and the next run retrains.
				_ = store.Store(key, &cache.Entry{
					TaskName:      s.name,
					Model:         res.Model,
					FloatAccuracy: res.FloatAccuracy,
					QuantAccuracy: res.QuantAccuracy,
					Prune:         res.Prune,
					EstCycles:     res.EstCycles,
				})
			}
			tasks[i] = &Task{Name: s.name, Set: s.set, Arch: s.arch, Result: res}
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return tasks, nil
}

// ---------------------------------------------------------------- Table I

// Table1Row is one block size of Table I.
type Table1Row struct {
	KernelBytes     int
	BlockSize       int
	CompressedBytes int
	ReductionPct    float64
}

// Table1 computes BCM compression for the paper's 512×512 FC layer.
func Table1() []Table1Row {
	var rows []Table1Row
	for _, k := range []int{16, 32, 64, 128, 256} {
		s := circulant.CompressionStats(512, 512, k)
		rows = append(rows, Table1Row{
			KernelBytes:     s.OriginalBytes,
			BlockSize:       k,
			CompressedBytes: s.CompressedByte,
			ReductionPct:    s.ReductionPct,
		})
	}
	return rows
}

// RenderTable1 formats Table I like the paper.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I: BCM compression for 512x512 fully connected layer\n")
	fmt.Fprintf(&b, "%-14s %-10s %-18s %s\n", "Kernel Size", "Block", "Compressed", "Storage reduction")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-14d %-10d %-18d %.2f%%\n",
			r.KernelBytes, r.BlockSize, r.CompressedBytes, r.ReductionPct)
	}
	return b.String()
}

// ---------------------------------------------------------------- Table II

// Table2Row describes one layer of one task.
type Table2Row struct {
	Task        string
	Layer       string
	Method      string
	Compression string
}

// Table2Result carries the rows plus the measured accuracies.
type Table2Result struct {
	Rows []Table2Row
	// Accuracy maps task name to {float, quantized} test accuracy.
	Accuracy map[string][2]float64
}

// Table2 reproduces Table II: the model structures and their measured
// accuracies on the synthetic tasks.
func Table2(tasks []*Task) Table2Result {
	out := Table2Result{Accuracy: map[string][2]float64{}}
	for _, t := range tasks {
		out.Accuracy[t.Name] = [2]float64{t.Result.FloatAccuracy, t.Result.QuantAccuracy}
		for _, s := range t.Arch.Specs {
			switch s.Kind {
			case "conv":
				method, comp := "—", "—"
				if s.PruneRatio > 0 {
					method = "Structured Pruning"
					comp = fmt.Sprintf("%.0fx", 1/(1-s.PruneRatio))
				}
				out.Rows = append(out.Rows, Table2Row{
					Task:        t.Name,
					Layer:       fmt.Sprintf("Conv %dx%dx%dx%d", s.OutC, s.InC, s.KH, s.KW),
					Method:      method,
					Compression: comp,
				})
			case "dense":
				out.Rows = append(out.Rows, Table2Row{
					Task:        t.Name,
					Layer:       fmt.Sprintf("FC %dx%d", s.In, s.Out),
					Method:      "—",
					Compression: "—",
				})
			case "bcm":
				out.Rows = append(out.Rows, Table2Row{
					Task:        t.Name,
					Layer:       fmt.Sprintf("FC %dx%d", s.In, s.Out),
					Method:      "BCM",
					Compression: fmt.Sprintf("%dx", s.K),
				})
			}
		}
	}
	return out
}

// RenderTable2 formats Table II.
func RenderTable2(r Table2Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table II: Structure and Accuracy of DNN\n")
	fmt.Fprintf(&b, "%-7s %-22s %-20s %-12s %s\n", "Task", "Layer", "Compress Method", "Compression", "Accuracy (float/quant)")
	last := ""
	for _, row := range r.Rows {
		acc := ""
		if row.Task != last {
			a := r.Accuracy[row.Task]
			acc = fmt.Sprintf("%.0f%% / %.0f%%", 100*a[0], 100*a[1])
			last = row.Task
		}
		fmt.Fprintf(&b, "%-7s %-22s %-20s %-12s %s\n", row.Task, row.Layer, row.Method, row.Compression, acc)
	}
	return b.String()
}

// ---------------------------------------------------------------- Fig. 7

// Fig7Row is one (task, engine) measurement.
type Fig7Row struct {
	Task   string
	Engine core.EngineKind

	ContinuousMS float64
	ContinuousMJ float64

	Completed bool
	Boots     uint64
	// Diagnosis is the intermittent runner's verdict kind — the typed
	// reason behind each ok/X cell of the completion matrix.
	Diagnosis      string
	IntermittentMS float64 // active compute time
	WallMS         float64 // including recharge
	IntermittentMJ float64
	CheckpointMJ   float64
	RestoreMJ      float64

	Energy [device.NumCategories]float64 // continuous breakdown (nJ)
}

// Fig7 measures every engine on every task under both supplies. Every
// (task, engine) cell simulates its own independent device, so each
// of the 15 cells runs on its own goroutine, as PrepareTasks runs its
// tasks; the row order (tasks outer, engines inner) and every device
// number are identical to a serial sweep.
func Fig7(tasks []*Task) ([]Fig7Row, error) {
	kinds := core.AllEngines()
	rows := make([]Fig7Row, len(tasks)*len(kinds))
	errs := make([]error, len(rows))
	var wg sync.WaitGroup
	for idx := range rows {
		wg.Add(1)
		go func(idx int) {
			defer wg.Done()
			errs[idx] = fig7Cell(&rows[idx], tasks[idx/len(kinds)], kinds[idx%len(kinds)])
		}(idx)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rows, nil
}

// fig7Cell fills one (task, engine) measurement.
func fig7Cell(row *Fig7Row, t *Task, kind core.EngineKind) error {
	input := fixed.FromFloats(t.Set.Test[0].Input)
	*row = Fig7Row{Task: t.Name, Engine: kind}
	rep, err := core.InferContinuous(kind, t.Result.Model, input)
	if err != nil {
		return fmt.Errorf("experiments: %s/%s continuous: %w", t.Name, kind, err)
	}
	row.ContinuousMS = rep.Stats.ActiveSeconds * 1e3
	row.ContinuousMJ = rep.Stats.EnergymJ()
	row.Energy = rep.Stats.Energy

	irep, err := core.InferIntermittent(kind, t.Result.Model, input, core.PaperHarvestSetup())
	if err != nil {
		return fmt.Errorf("experiments: %s/%s intermittent: %w", t.Name, kind, err)
	}
	row.Completed = irep.Intermittent.Completed
	row.Boots = irep.Intermittent.Boots
	row.Diagnosis = string(irep.Intermittent.Diagnosis.Kind)
	row.IntermittentMS = irep.Stats.ActiveSeconds * 1e3
	row.WallMS = irep.Stats.WallSeconds * 1e3
	row.IntermittentMJ = irep.Stats.EnergymJ()
	row.CheckpointMJ = irep.Stats.Energy[device.CatCheckpoint] * 1e-6
	row.RestoreMJ = irep.Stats.Energy[device.CatRestore] * 1e-6
	return nil
}

// fig7Find returns the row for (task, engine).
func fig7Find(rows []Fig7Row, task string, kind core.EngineKind) *Fig7Row {
	for i := range rows {
		if rows[i].Task == task && rows[i].Engine == kind {
			return &rows[i]
		}
	}
	return nil
}

// RenderFig7a formats the continuous-power latency comparison.
func RenderFig7a(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7(a): Inference time on continuous power\n")
	fmt.Fprintf(&b, "%-7s %-10s %12s %14s\n", "Task", "Engine", "Latency(ms)", "vs ACE+FLEX")
	for _, task := range taskNames(rows) {
		ref := fig7Find(rows, task, core.EngineACEFLEX)
		for _, kind := range core.AllEngines() {
			r := fig7Find(rows, task, kind)
			fmt.Fprintf(&b, "%-7s %-10s %12.1f %13.2fx\n",
				task, kind, r.ContinuousMS, r.ContinuousMS/ref.ContinuousMS)
		}
	}
	return b.String()
}

// RenderFig7b formats the intermittent-power comparison.
func RenderFig7b(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7(b): Inference time on intermittent power (100uF)\n")
	fmt.Fprintf(&b, "%-7s %-10s %8s %12s %12s %7s %14s\n",
		"Task", "Engine", "Status", "Active(ms)", "Wall(ms)", "Boots", "vs ACE+FLEX")
	for _, task := range taskNames(rows) {
		ref := fig7Find(rows, task, core.EngineACEFLEX)
		for _, kind := range core.AllEngines() {
			r := fig7Find(rows, task, kind)
			status := "X"
			speed := "-"
			if r.Completed {
				status = "ok"
				speed = fmt.Sprintf("%.2fx", r.IntermittentMS/ref.IntermittentMS)
			}
			fmt.Fprintf(&b, "%-7s %-10s %8s %12.1f %12.1f %7d %14s\n",
				task, kind, status, r.IntermittentMS, r.WallMS, r.Boots, speed)
		}
	}
	return b.String()
}

// RenderFig7c formats the energy comparison with the per-category
// breakdown.
func RenderFig7c(rows []Fig7Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 7(c): Energy and breakdown (continuous power)\n")
	fmt.Fprintf(&b, "%-7s %-10s %12s %12s   %s\n", "Task", "Engine", "Energy(mJ)", "vs ACE+FLEX", "breakdown")
	for _, task := range taskNames(rows) {
		ref := fig7Find(rows, task, core.EngineACEFLEX)
		for _, kind := range core.AllEngines() {
			r := fig7Find(rows, task, kind)
			var parts []string
			for c := device.Category(0); c < device.NumCategories; c++ {
				if r.Energy[c] > 0.005*r.ContinuousMJ*1e6 {
					parts = append(parts, fmt.Sprintf("%s %.0f%%", c, 100*r.Energy[c]*1e-6/r.ContinuousMJ))
				}
			}
			fmt.Fprintf(&b, "%-7s %-10s %12.3f %11.2fx   %s\n",
				task, kind, r.ContinuousMJ, r.ContinuousMJ/ref.ContinuousMJ, strings.Join(parts, ", "))
		}
	}
	return b.String()
}

func taskNames(rows []Fig7Row) []string {
	var names []string
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.Task] {
			seen[r.Task] = true
			names = append(names, r.Task)
		}
	}
	return names
}

// ---------------------------------------------------------------- Fig. 8

// Fig8Row is one variant of the first-FC-of-MNIST microbenchmark.
type Fig8Row struct {
	Variant   string
	LatencyMS float64
	EnergyMJ  float64
}

// Fig8 measures the 256×256 first FC layer of the MNIST model as a
// dense layer (plain ACE, no BCM) and with BCM blocks 32/64/128, all
// on the ACE runtime — the paper's isolation of the BCM win.
func Fig8(seed int64) ([]Fig8Row, error) {
	rng := rand.New(rand.NewSource(seed))
	input := make([]fixed.Q15, 256)
	for i := range input {
		input[i] = fixed.FromFloat(rng.Float64()*2 - 1)
	}
	variants := []struct {
		name string
		spec nn.LayerSpec
	}{
		{"ACE (dense)", nn.LayerSpec{Kind: "dense", In: 256, Out: 256}},
		{"BCM block 32", nn.LayerSpec{Kind: "bcm", In: 256, Out: 256, K: 32}},
		{"BCM block 64", nn.LayerSpec{Kind: "bcm", In: 256, Out: 256, K: 64}},
		{"BCM block 128", nn.LayerSpec{Kind: "bcm", In: 256, Out: 256, K: 128}},
	}
	var rows []Fig8Row
	for _, v := range variants {
		arch := &nn.Arch{Name: "fc1", InShape: [3]int{1, 1, 256}, NumClasses: 256,
			Specs: []nn.LayerSpec{v.spec}}
		net := arch.Build(rng)
		calib := [][]float64{fixed.Floats(input)}
		m, err := quant.Quantize(net, arch, calib)
		if err != nil {
			return nil, err
		}
		rep, err := core.InferContinuous(core.EngineACE, m, input)
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig8Row{
			Variant:   v.name,
			LatencyMS: rep.Stats.ActiveSeconds * 1e3,
			EnergyMJ:  rep.Stats.EnergymJ(),
		})
	}
	return rows, nil
}

// RenderFig8 formats the microbenchmark.
func RenderFig8(rows []Fig8Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Fig 8: First FC layer of MNIST (256x256) on ACE\n")
	fmt.Fprintf(&b, "%-15s %12s %12s\n", "Variant", "Latency(ms)", "Energy(mJ)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-15s %12.3f %12.4f\n", r.Variant, r.LatencyMS, r.EnergyMJ)
	}
	return b.String()
}

// ------------------------------------------------------- checkpoint cost

// CkptRow is the §IV-A.5 checkpointing-overhead accounting for one
// task.
type CkptRow struct {
	Task string
	// OverheadPct is (checkpoint+restore energy)/(total energy) of the
	// intermittent ACE+FLEX run.
	OverheadPct float64
	// ActiveVsContinuousPct is the active-latency increase of the
	// intermittent run over the continuous one.
	ActiveVsContinuousPct float64
}

// CheckpointOverhead extracts §IV-A.5's numbers from Fig. 7 rows.
func CheckpointOverhead(rows []Fig7Row) []CkptRow {
	var out []CkptRow
	for _, task := range taskNames(rows) {
		r := fig7Find(rows, task, core.EngineACEFLEX)
		if r == nil || !r.Completed {
			continue
		}
		out = append(out, CkptRow{
			Task:                  task,
			OverheadPct:           100 * (r.CheckpointMJ + r.RestoreMJ) / r.IntermittentMJ,
			ActiveVsContinuousPct: 100 * (r.IntermittentMS - r.ContinuousMS) / r.ContinuousMS,
		})
	}
	return out
}

// RenderCheckpointOverhead formats §IV-A.5.
func RenderCheckpointOverhead(rows []CkptRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Checkpointing overhead (ACE+FLEX, intermittent)\n")
	fmt.Fprintf(&b, "%-7s %22s %26s\n", "Task", "ckpt+restore energy", "active latency vs contin.")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-7s %21.2f%% %25.1f%%\n", r.Task, r.OverheadPct, r.ActiveVsContinuousPct)
	}
	return b.String()
}
