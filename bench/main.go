// Command bench is the repository's benchmark: three workloads over
// examples/scenarios/citywide.json that each stress a different layer
// of the fleet stack — simulation (city-cold), the host row pipeline
// behind the memo (city-warm), and the fleet service with its durable
// writes (service). It trains its model fixture, runs one workload per
// child process, checks the rows against pinned digests, and prints
// one JSON result per workload. See README.md.
//
// Usage:
//
//	bench [-workload NAME] [-seed N] [-seconds S] [-trace 0|1] [-record FILE] [-repo DIR]
//	bench compare DIR_A DIR_B
package main

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"

	"ehdl/internal/cli"
	"ehdl/internal/dataset"
	"ehdl/internal/nn"
	"ehdl/internal/rad"
)

// config is one workload run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	repo     string // checkout root
	work     string // holds the model fixture and the scenario files
	spans    string // span JSONL path of a traced run ("" = none)
	pins     pinSet
	workers  int // simulation workers and the cap on clients

	coldDevices int // city-cold fleet size (0 = as declared)
	warmDevices int // city-warm fleet size
	jobDevices  int // devices per service job
	maxJobs     int // service job cap per phase (0 = until seconds pass)
	traceStride int // the city-cold mirror visits every traceStride-th device
	warmMirror  int // devices the city-warm mirror visits
}

// standard returns the sizes the pinned digests and README numbers
// are for. A service job's rows stay under 1 MiB (about 4,800 rows):
// ehfleetd's rows endpoint sends at most the first 1 MiB of a
// finished job's rows file (README.md, "Known defects").
//
// TODO: once ehfleetd streams every row of a finished job over 1 MiB
// (TestFleetdRowsOverOneMiB) and of a job followed live, make service
// jobs 20,000 devices whose rows are followed live, as the workload was
// designed, and re-pin the service digests.
func standard() config {
	return config{warmDevices: 1_000_000, jobDevices: 4_000, traceStride: 10, warmMirror: 20_000}
}

func (c config) scenarioPath() string { return filepath.Join(c.work, "citywide.json") }
func (c config) modelPath() string    { return filepath.Join(c.work, "mnist.gob") }

// outcome is what a workload measured and checked.
type outcome struct {
	attempted, failed int
	problems          []string
	vals              map[string]float64
}

func (o *outcome) fail(devices int, format string, args ...any) {
	o.failed += devices
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) add(p outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.problems = append(o.problems, p.problems...)
}

// checkRows logs a row digest, the value to pin, and compares it with
// the workload's pin for the seed, when there is one.
func (o *outcome) checkRows(cfg config, digest string, devices int, what string) {
	logf("%s seed %d: %s rows sha256 %s", cfg.workload, cfg.seed, what, digest)
	if want, ok := cfg.pins.rowPin(cfg.workload, cfg.seed); ok && digest != want {
		o.fail(devices, "%s rows %s, pinned %s", what, digest, want)
	}
}

var workloads = map[string]func(config) (outcome, error){
	"city-cold": cityCold,
	"city-warm": cityWarm,
	"service":   service,
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

func main() {
	workload := flag.String("workload", "", "workload to run (default: every workload, one after another)")
	seed := flag.Int64("seed", 1, "input seed: scenario jitter draws and dataset inputs")
	seconds := flag.Float64("seconds", 0, "timed phase length (0: BENCHMARK.json run_seconds)")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	repo := flag.String("repo", ".", "repository checkout root")
	record := flag.String("record", "", "append each result, with its workload and seed, to this JSONL file (input to compare)")
	child := flag.Bool("child", false, "internal: run one workload in this process")
	work := flag.String("work", "", "internal: the child's work dir")
	probe := flag.String("probe", "", "internal: serve host-speed probes of these components (comma-separated) on standard input and output")
	flag.Parse()

	if *probe != "" {
		if err := serveProbes(*probe, os.Stdin, os.Stdout); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	if flag.Arg(0) == "compare" {
		if flag.NArg() != 3 {
			fmt.Fprintln(os.Stderr, "usage: bench compare DIR_A DIR_B")
			os.Exit(2)
		}
		if err := compareDirs(os.Stdout, *repo, flag.Arg(1), flag.Arg(2)); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		return
	}
	spec, err := loadSpec(*repo)
	if err != nil {
		logf("%v", err)
		os.Exit(1)
	}
	if *seconds <= 0 {
		*seconds = float64(spec.RunSeconds)
	}
	if *trace != 0 && *trace != 1 {
		logf("-trace must be 0 or 1")
		os.Exit(2)
	}
	cfg := standard()
	cfg.workload, cfg.seed, cfg.seconds, cfg.trace = *workload, *seed, *seconds, *trace == 1
	cfg.repo, cfg.work = *repo, *work
	cfg.workers = runtime.NumCPU()

	if *child {
		if cfg.trace {
			cfg.spans = filepath.Join(cfg.repo, ".bench_build", "spans-"+cfg.workload+".jsonl")
		}
		if cfg.pins, err = loadPins(); err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		res, err := runChild(spec, cfg)
		if err != nil {
			logf("%s: %v", cfg.workload, err)
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		return
	}

	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = nil
		for _, w := range spec.Workloads {
			names = append(names, w.Name)
		}
	}
	ok := true
	for _, name := range names {
		if !spec.hasWorkload(name) || workloads[name] == nil {
			logf("unknown workload %q", name)
			os.Exit(2)
		}
		c := cfg
		c.workload = name
		res, line, err := runParent(c)
		if err != nil {
			logf("%s: %v", name, err)
			os.Exit(1)
		}
		if *record != "" {
			if err := appendRecord(*record, c, res); err != nil {
				logf("%v", err)
				os.Exit(1)
			}
		}
		fmt.Println(line)
		ok = ok && res.Correct
	}
	if !ok {
		os.Exit(1)
	}
}

// runParent trains the fixture into a fresh work dir and runs the
// workload in a child process, so the workload's peak RSS excludes
// training. It returns the child's result and its JSON line.
func runParent(cfg config) (result, string, error) {
	var res result
	build := filepath.Join(cfg.repo, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return res, "", err
	}
	work, err := os.MkdirTemp(build, "work-")
	if err != nil {
		return res, "", err
	}
	defer os.RemoveAll(work)
	pins, err := loadPins()
	if err != nil {
		return res, "", err
	}
	if err := writeFixture(cfg.repo, work, pins.ModelDigest); err != nil {
		return res, "", err
	}
	self, err := os.Executable()
	if err != nil {
		return res, "", err
	}
	var out bytes.Buffer
	cmd := exec.Command(self, "-child", "-work", work, "-repo", cfg.repo, "-workload", cfg.workload,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", map[bool]string{false: "0", true: "1"}[cfg.trace])
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		return res, "", fmt.Errorf("workload process: %w", err)
	}
	line := strings.TrimSpace(out.String())
	if i := strings.LastIndexByte(line, '\n'); i >= 0 {
		line = line[i+1:]
	}
	if err := json.Unmarshal([]byte(line), &res); err != nil {
		return res, "", fmt.Errorf("workload result %q: %w", line, err)
	}
	return res, line, nil
}

// runChild runs one workload in this process and labels its metrics.
func runChild(spec *benchSpec, cfg config) (result, error) {
	o, err := workloads[cfg.workload](cfg)
	if err != nil {
		return result{}, err
	}
	if _, ok := o.vals["peak_rss_mb"]; !ok && !cfg.trace {
		if o.vals["peak_rss_mb"], err = peakRSSMB(os.Getpid()); err != nil {
			return result{}, err
		}
	}
	metrics, err := spec.label(o.vals, cfg.trace)
	if err != nil {
		return result{}, err
	}
	for _, p := range o.problems {
		logf("%s: FAILED CHECK: %s", cfg.workload, p)
	}
	names := make([]string, 0, len(metrics))
	for n := range metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		logf("%s seed %d: %-32s %14.6g %s", cfg.workload, cfg.seed, n, metrics[n].Value, metrics[n].Unit)
	}
	return result{
		Correct:   o.failed == 0 && len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   metrics,
	}, nil
}

// writeFixture trains the MNIST model artifact with CI's recipe
// (radtrain -task mnist -samples 300 -epochs 2, seed 1), checks its
// content digest against the pin (when one is given), and writes it
// into work next to copies of the citywide scenario and its trace.
func writeFixture(repo, work, pinned string) error {
	return writeFixtureSized(repo, work, pinned, 300, 2)
}

func writeFixtureSized(repo, work, pinned string, samples, epochs int) error {
	cfg := rad.DefaultPipelineConfig()
	cfg.Train.Epochs = epochs
	cfg.Train.Seed = 1
	cfg.Seed = 2
	res, err := rad.Train(nn.MNISTArch(128, true), dataset.MNIST(samples, samples/5, 1), cfg)
	if err != nil {
		return fmt.Errorf("fixture: %w", err)
	}
	if d := res.Model.ContentDigest(); pinned != "" && hex.EncodeToString(d[:]) != pinned {
		return fmt.Errorf("fixture model digest %x, pinned %s", d, pinned)
	}
	if err := cli.SaveModel(filepath.Join(work, "mnist.gob"), res.Model); err != nil {
		return err
	}
	for _, name := range []string{"citywide.json", "solar.csv"} {
		data, err := os.ReadFile(filepath.Join(repo, "examples", "scenarios", name))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(work, name), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// peakRSSMB reads a process's peak resident set (VmHWM) in MB.
func peakRSSMB(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", pid)
}

// record is one line of a -record file.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    bool   `json:"trace"`
	Result   result `json:"result"`
}

func appendRecord(path string, cfg config, res result) error {
	line, err := json.Marshal(record{Workload: cfg.workload, Seed: cfg.seed, Trace: cfg.trace, Result: res})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
