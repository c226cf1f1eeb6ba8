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
// The first form is a one-spec scenario document: the flags fill in
// one device spec named "dev" with count -n, which is compiled
// exactly as a -scenarios file is, so its devices are named dev/0 …
// dev/N-1. -engine accepts one runtime, a comma-separated list cycled
// across the fleet by device index, or "all"; -jitter spreads each
// device's peak power uniformly in [power·(1−j), power·(1+j)],
// deterministically from -seed.
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
// checkpoints and shards (different scenario file or flags, model
// content in flag mode, seed, size or shard split) are rejected.
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
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"ehdl/internal/cli"
	"ehdl/internal/fleet"
	"ehdl/internal/fleet/memo"
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

	set := map[string]bool{} // the flags given on the command line
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	var src *cli.FleetSource
	var header string
	if *scenarios != "" {
		// The fleet shape comes entirely from the file (-n resizes
		// it); an explicitly set shape flag would be silently
		// ignored, so reject it.
		for _, name := range []string{"cap", "duty", "engine", "jitter", "jitter-steps", "leak",
			"model", "period", "power", "profile", "trace", "trace-repeat"} {
			if set[name] {
				log.Fatalf("-%s has no effect with -scenarios (the scenario file declares the fleet shape)", name)
			}
		}
		if src, err = cli.LoadFleetSource(*scenarios, *seed); err != nil {
			log.Fatal(err)
		}
		if set["n"] {
			switch {
			case *n < 0:
				log.Fatalf("-n must be >= 0, got %d", *n)
			case *n > 0:
				src = src.Resize(*n)
			}
			// -n 0 keeps the declared size, as the flag help says.
		}
		header = fmt.Sprintf("scenario file: %s   devices: %d", *scenarios, src.Len())
		if files.Checkpoint != "" {
			if files.Fingerprint, err = cli.ScenarioFingerprint(*scenarios, *seed, src.Len()); err != nil {
				log.Fatal(err)
			}
		}
	} else {
		if *modelPath == "" {
			log.Fatal("-model or -scenarios is required")
		}
		if *n < 1 {
			log.Fatalf("-n must be >= 1, got %d", *n)
		}
		// Flag mode is a one-spec scenario document, every field set
		// from its flag, compiled the way a -scenarios file is.
		sf := &cli.ScenarioFile{Devices: []cli.DeviceSpec{{
			Name: "dev", Count: n, Model: *modelPath, Engine: *engines,
			CapF: capF, LeakW: leak, Jitter: jitter, JitterSteps: jitterSteps,
			Profile: &cli.ProfileSpec{Kind: *profile, PowerW: power, Period: period,
				Duty: duty, Trace: *tracePath, Repeat: *traceRepeat},
		}}}
		if src, err = cli.CompileFleetSource(sf, ".", *seed, nil); err != nil {
			log.Fatalf("flag mode: %v", err)
		}
		header = fmt.Sprintf("model: %s   profile: %s %.1f mW ±%.0f%%   cap: %.0f uF   devices: %d",
			*modelPath, *profile, *power*1e3, *jitter*100, *capF*1e6, src.Len())
		if files.Checkpoint != "" {
			if files.Fingerprint, err = flagFingerprint(sf, src, *seed); err != nil {
				log.Fatal(err)
			}
		}
	}
	// A scenario file's "memo" block supplies defaults; explicit -memo
	// / -memo-cap flags win.
	if ms := src.Memo(); ms != nil {
		if !set["memo"] {
			*memoOn = ms.Enabled
		}
		if !set["memo-cap"] && ms.Capacity != 0 {
			*memoCap = ms.Capacity
		}
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

// flagFingerprint is the run identity of a flag-mode fleet: the
// generated document's scenario fingerprint plus the model's content
// digest, so a checkpoint or shard never resumes against a swapped
// model file.
func flagFingerprint(sf *cli.ScenarioFile, src *cli.FleetSource, seed int64) (string, error) {
	doc, err := json.Marshal(sf)
	if err != nil {
		return "", err
	}
	first, err := src.At(0)
	if err != nil {
		return "", err
	}
	return cli.FleetFingerprint(cli.ScenarioBytesFingerprint(doc, seed, src.Len()),
		fmt.Sprintf("%x", first.Model.ContentDigest())), nil
}
