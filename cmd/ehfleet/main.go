// Command ehfleet simulates a deployment of energy-harvesting
// devices: N independent nodes, each with its own capacitor, runtime
// and (jittered) ambient profile, streamed concurrently through the
// fleet layer and folded into one aggregate report — completion rate,
// boots, per-engine/per-profile breakdowns, and simulated wall time
// percentiles across the fleet.
//
// Usage:
//
//	ehfleet -model mnist.gob [-n 16] [-engine ace+flex] [-jitter 0.2]
//	        [-jitter-steps 0] [-profile square|sine|const|trace]
//	        [-power 5e-3] [-period 0.1] [-duty 0.5] [-trace solar.csv]
//	        [-trace-repeat] [-cap 100e-6] [-leak 0] [-workers 0]
//	        [-seed 1] [-out rows.ndjson] [-progress]
//	        [-memo] [-memo-cap 65536] [-memo-tag]
//	ehfleet -scenarios fleet.json [-n 0] [-workers 0] [-seed 1]
//	        [-out rows.ndjson] [-progress] [-memo] [-memo-cap 65536]
//	        [-memo-tag]
//	ehfleet ... -checkpoint ck.ehdl [-checkpoint-every 100000] [-resume]
//	ehfleet ... -shard 2/8 -out shard2/ [-resume]
//	ehfleet -merge out/ shard0/ shard1/ shard2/ ...
//
// The first form builds a homogeneous fleet from flags: -engine
// accepts one runtime, a comma-separated list cycled across the
// fleet, or "all"; -jitter spreads each device's peak power uniformly
// in [power·(1−j), power·(1+j)], deterministically from -seed.
//
// The second form expands a declarative scenario file: a JSON
// document of heterogeneous (engine × capacitance × profile/trace ×
// model) device specs — see examples/scenarios/README.md for the
// schema reference. Expansion is deterministic for a given (file,
// seed) pair. With -scenarios, -n overrides the fleet size: the
// declared devices are truncated or cycled to exactly N.
//
// Scenarios are generated lazily and aggregated online, so -n scales
// to millions of devices in constant memory; -out streams one NDJSON
// row per device, in scenario order, and -progress reports
// throughput and ETA on stderr while the fleet runs.
//
// -checkpoint makes the run resumable: the commit frontier
// (aggregator snapshot + delivered NDJSON row index) is written
// atomically to the file every -checkpoint-every devices, and
// -resume continues an interrupted run from it — the resumed output
// is byte-identical to an uninterrupted run's. -shard i/N restricts
// the run to its device range and turns -out into a shard artifact
// directory (rows.ndjson + shard.ehdl, checkpointed and resumable
// the same way); -merge folds completed shard directories back into
// the single-process report and NDJSON, byte-identically. Mismatched
// checkpoints and shards (different scenario file, seed, size or
// shard split) are rejected.
//
// -memo turns on fleet-wide inference memoization (see the README's
// "Fleet memoization" section): devices whose content-addressed run —
// engine, model, input, harvest fingerprint — was already simulated
// replay the cached outcome. Output is bit-identical with or without
// it. A scenario file's "memo" block sets the default; explicit -memo
// / -memo-cap flags win. -memo-tag adds each row's hit/miss tag to
// the NDJSON output (off by default because the tag varies with
// worker scheduling). -jitter-steps quantizes the flag-mode jitter
// draw so jittered devices dedup (scenario files: "jitter_steps").
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"ehdl/internal/cli"
	"ehdl/internal/core"
	"ehdl/internal/fixed"
	"ehdl/internal/fleet"
	"ehdl/internal/fleet/memo"
	"ehdl/internal/harvest"
)

// rowTableLimit is the largest fleet whose per-device rows are still
// printed to the terminal; larger fleets get the aggregate report
// only (use -out for the rows).
const rowTableLimit = 64

func main() {
	log.SetFlags(0)
	log.SetPrefix("ehfleet: ")

	modelPath := flag.String("model", "", "model artifact from radtrain (flag mode)")
	scenarios := flag.String("scenarios", "", "declarative scenario file (JSON); replaces the fleet-shape flags")
	n := flag.Int("n", 16, "number of devices in the fleet (with -scenarios: override the declared size; 0 keeps it)")
	engines := flag.String("engine", "ace+flex", "runtime, comma-separated list, or \"all\"")
	profile := flag.String("profile", "square", "harvest profile: square, sine, const, trace")
	power := flag.Float64("power", 5e-3, "nominal peak harvested power in watts")
	period := flag.Float64("period", 0.1, "profile period in seconds")
	duty := flag.Float64("duty", 0.5, "square-wave duty cycle in (0, 1]")
	tracePath := flag.String("trace", "", "harvesting trace CSV (with -profile trace)")
	traceRepeat := flag.Bool("trace-repeat", false, "repeat the trace instead of holding its last value")
	jitter := flag.Float64("jitter", 0.2, "per-device power spread fraction in [0, 1)")
	jitterSteps := flag.Int("jitter-steps", 0, "quantize the jitter draw to this many bins (0 = continuous); quantized fleets dedup under -memo")
	capF := flag.Float64("cap", 100e-6, "capacitance in farads")
	leak := flag.Float64("leak", 0, "parasitic leakage in watts")
	workers := flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	seed := flag.Int64("seed", 1, "dataset and jitter seed")
	out := flag.String("out", "", "stream per-device rows to this NDJSON file (with -shard: the shard artifact directory)")
	progress := flag.Bool("progress", false, "report streaming progress on stderr")
	memoOn := flag.Bool("memo", false, "memoize identical device runs (bit-identical output, less host time)")
	memoCap := flag.Int("memo-cap", 0, "memo LRU capacity in entries (0 = default)")
	memoTag := flag.Bool("memo-tag", false, "add each row's memo hit/miss tag to the NDJSON output")
	checkpoint := flag.String("checkpoint", "", "checkpoint the run to this file so it can -resume")
	checkpointEvery := flag.Int("checkpoint-every", 0, "devices between checkpoint writes (0 = default)")
	resume := flag.Bool("resume", false, "resume from the checkpoint instead of starting over")
	shardSpec := flag.String("shard", "", "simulate one device range of the fleet: \"i/N\" (shard i of N); -out becomes a shard directory")
	mergeOut := flag.String("merge", "", "merge completed shard directories (positional args) into this output directory")
	flag.Parse()

	if *mergeOut != "" {
		if flag.NArg() == 0 {
			log.Fatal("-merge needs the shard directories as arguments: ehfleet -merge out/ shard0/ shard1/ ...")
		}
		if err := runMerge(*mergeOut, flag.Args()); err != nil {
			log.Fatal(err)
		}
		return
	}
	if flag.NArg() > 0 {
		log.Fatalf("unexpected arguments %q (only -merge takes positional arguments)", flag.Args())
	}

	part, err := fleet.ParsePartition(*shardSpec)
	if err != nil {
		log.Fatalf("-shard: %v", err)
	}
	files := fleet.Output{Rows: *out, Checkpoint: *checkpoint}
	sharding := *shardSpec != ""
	if sharding {
		if *out == "" {
			log.Fatal("-shard needs -out DIR (the shard artifact directory)")
		}
		if *checkpoint != "" {
			log.Fatal("-checkpoint has no effect with -shard (the shard directory holds its own meta)")
		}
		if err := os.MkdirAll(*out, 0o755); err != nil {
			log.Fatal(err)
		}
		files = fleet.ShardDir(*out)
	}
	if *resume && files.Checkpoint == "" {
		log.Fatal("-resume needs -checkpoint FILE or -shard i/N")
	}

	var src fleet.Source
	var header string
	if *scenarios != "" {
		// The fleet shape comes entirely from the file (-n resizes
		// it); an explicitly set shape flag would be silently
		// ignored, so reject it.
		shapeFlags := map[string]bool{
			"model": true, "engine": true, "profile": true,
			"power": true, "period": true, "duty": true, "trace": true,
			"trace-repeat": true, "jitter": true, "jitter-steps": true,
			"cap": true, "leak": true,
		}
		flag.Visit(func(f *flag.Flag) {
			if shapeFlags[f.Name] {
				log.Fatalf("-%s has no effect with -scenarios (the scenario file declares the fleet shape)", f.Name)
			}
		})
		fileSrc, err := cli.LoadFleetSource(*scenarios, *seed)
		if err != nil {
			log.Fatal(err)
		}
		nSet := false
		flag.Visit(func(f *flag.Flag) { nSet = nSet || f.Name == "n" })
		if nSet {
			switch {
			case *n < 0:
				log.Fatalf("-n must be >= 0, got %d", *n)
			case *n > 0:
				fileSrc = fileSrc.Resize(*n)
			}
			// -n 0 keeps the declared size, as the flag help says.
		}
		// The file's "memo" block supplies defaults; explicit -memo /
		// -memo-cap flags win.
		memoSet, memoCapSet := false, false
		flag.Visit(func(f *flag.Flag) {
			memoSet = memoSet || f.Name == "memo"
			memoCapSet = memoCapSet || f.Name == "memo-cap"
		})
		if ms := fileSrc.Memo(); ms != nil {
			if !memoSet {
				*memoOn = ms.Enabled
			}
			if !memoCapSet && ms.Capacity != 0 {
				*memoCap = ms.Capacity
			}
		}
		src = fileSrc
		header = fmt.Sprintf("scenario file: %s   devices: %d", *scenarios, src.Len())
		if files.Checkpoint != "" {
			if files.Fingerprint, err = cli.ScenarioFingerprint(*scenarios, *seed, src.Len()); err != nil {
				log.Fatal(err)
			}
		}
	} else {
		var err error
		if src, files.Fingerprint, err = flagSource(flagFleet{
			model:       *modelPath,
			engines:     *engines,
			profile:     *profile,
			power:       *power,
			period:      *period,
			duty:        *duty,
			trace:       *tracePath,
			traceRepeat: *traceRepeat,
			jitter:      *jitter,
			jitterSteps: *jitterSteps,
			capF:        *capF,
			leak:        *leak,
			n:           *n,
			seed:        *seed,
		}); err != nil {
			log.Fatal(err)
		}
		header = fmt.Sprintf("model: %s   profile: %s %.1f mW ±%.0f%%   cap: %.0f uF   devices: %d",
			*modelPath, *profile, *power*1e3, *jitter*100, *capF*1e6, src.Len())
	}
	pstart, pend := part.Range(src.Len())
	if sharding {
		header += fmt.Sprintf("   shard: %d/%d [%d, %d)", part.Index, part.Of, pstart, pend)
	}

	opts := fleet.StreamOptions{Workers: *workers, Partition: part}
	if *memoOn {
		opts.Memo = memo.New(*memoCap)
	}
	files.Every, files.TagMemo = *checkpointEvery, *memoTag
	run, err := fleet.OpenRun(files, *resume)
	if err != nil {
		log.Fatal(err)
	}
	resumed, restored := run.Resumed()
	if *resume && !restored {
		fmt.Fprintf(os.Stderr, "ehfleet: no checkpoint at %s yet, starting fresh\n", files.Checkpoint)
	}
	var collect *fleet.Collector
	if src.Len() <= rowTableLimit && !sharding && !restored {
		// The terminal row table only makes sense for a whole fleet
		// streamed from row 0; sharded and resumed runs skip it.
		collect = &fleet.Collector{}
		opts.Sink = collect
	}
	if *progress {
		opts.Progress = cli.ProgressPrinter(os.Stderr, fleet.SystemClock, resumed)
	}

	rep, err := run.Stream(src, opts)
	if err != nil {
		log.Fatal(err)
	}
	if collect != nil {
		rep.Results = collect.Rows
	}
	fmt.Println(header)
	fmt.Print(fleet.RenderReport(rep))
}

// runMerge folds completed shard directories into outDir: the
// whole-fleet NDJSON row file plus the aggregate report on stdout,
// byte-identical to a single-process run over the same fleet.
func runMerge(outDir string, dirs []string) error {
	rep, err := fleet.MergeDir(outDir, dirs, nil)
	if err != nil {
		return err
	}
	fmt.Printf("merged: %d shards   devices: %d   rows: %s\n", len(dirs), rep.Devices, fleet.ShardDir(outDir).Rows)
	fmt.Print(fleet.RenderReport(rep))
	return nil
}

// flagFleet is the parsed flag-mode fleet shape.
type flagFleet struct {
	model       string
	engines     string
	profile     string
	trace       string
	traceRepeat bool
	power       float64
	period      float64
	duty        float64
	jitter      float64
	jitterSteps int
	capF        float64
	leak        float64
	n           int
	seed        int64
}

// flagSource builds the homogeneous flag-mode fleet as a lazy source:
// the model, dataset and converted inputs are shared, and each
// device's profile is built on demand from its index alone. The
// returned fingerprint is the run identity (model content + every
// shape flag) for checkpoints and shard artifacts.
func flagSource(f flagFleet) (fleet.Source, string, error) {
	if f.model == "" {
		return nil, "", fmt.Errorf("-model or -scenarios is required")
	}
	if f.jitter < 0 || f.jitter >= 1 {
		return nil, "", fmt.Errorf("-jitter must be in [0, 1), got %g", f.jitter)
	}
	if f.jitterSteps < 0 {
		return nil, "", fmt.Errorf("-jitter-steps must be >= 0, got %d", f.jitterSteps)
	}
	if f.n < 1 {
		return nil, "", fmt.Errorf("-n must be >= 1, got %d", f.n)
	}
	m, err := cli.LoadModel(f.model)
	if err != nil {
		return nil, "", err
	}
	set, err := cli.DatasetFor(m, f.seed)
	if err != nil {
		return nil, "", err
	}
	inputs := make([][]fixed.Q15, len(set.Test))
	for i := range set.Test {
		inputs[i] = fixed.FromFloats(set.Test[i].Input)
	}

	kinds, err := parseEngines(f.engines)
	if err != nil {
		return nil, "", err
	}
	var baseTrace *harvest.TraceProfile
	if f.profile == "trace" {
		if f.trace == "" {
			return nil, "", fmt.Errorf("-profile trace requires -trace FILE")
		}
		if baseTrace, err = harvest.LoadTraceFile(f.trace, f.traceRepeat); err != nil {
			return nil, "", err
		}
	}
	// Validate the waveform once at the unjittered scale, so a bad
	// flag fails before the fleet starts.
	if _, err := cli.BuildProfile(f.profile, f.power, f.period, f.duty, baseTrace, 1); err != nil {
		return nil, "", err
	}

	cfg := harvest.PaperConfig()
	cfg.CapacitanceF = f.capF
	cfg.LeakageW = f.leak

	digest := m.ContentDigest()
	fingerprint := cli.FleetFingerprint(
		"flags",
		fmt.Sprintf("%x", digest),
		f.engines, f.profile, f.trace,
		fmt.Sprintf("trace-repeat=%t", f.traceRepeat),
		fmt.Sprintf("power=%g period=%g duty=%g", f.power, f.period, f.duty),
		fmt.Sprintf("jitter=%g steps=%d", f.jitter, f.jitterSteps),
		fmt.Sprintf("cap=%g leak=%g", f.capF, f.leak),
		fmt.Sprintf("n=%d seed=%d", f.n, f.seed),
	)

	return fleet.FuncSource(f.n, func(i int) (fleet.Scenario, error) {
		prof, err := cli.BuildProfile(f.profile, f.power, f.period, f.duty, baseTrace,
			cli.QuantizedJitterScale(f.seed, i, f.jitter, f.jitterSteps))
		if err != nil {
			return fleet.Scenario{}, err
		}
		return fleet.Scenario{
			Name:   fmt.Sprintf("dev%02d", i),
			Engine: kinds[i%len(kinds)],
			Model:  m,
			Input:  inputs[i%len(inputs)],
			Setup:  core.HarvestSetup{Config: cfg, Profile: prof},
		}, nil
	}), fingerprint, nil
}

// parseEngines expands the -engine flag into a runtime cycle.
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
		kind, err := cli.ParseEngine(part)
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
