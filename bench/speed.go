package main

// Host-speed scaling for the end-to-end host times. On the shared VM
// the baseline comes from, the host's speed drifts by 10–35% over
// minutes and swings by up to 2× from one 100 ms to the next
// (README.md, "Host-speed scaling"), more than any bound a host-time
// metric could usefully carry. Each untraced run therefore probes the
// host between units of its own work (sweep partitions, rounds of
// jobs, service set-ups), every half second or so, with fixed work
// that runs no code of the program under test, and reports its host
// times scaled to a reference speed: time × (reference probe time) /
// (mean probe time). The probe cannot change with the program, so the
// scaling cancels much of the host's drift and passes the program's
// own changes through whole.

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// probeComponent is a fixed piece of work the probe process runs on
// every CPU at once. refS is its median duration over the calibration
// runs (735 probes on the reference host, a 2-vCPU Xeon VM, go1.24):
// scaled times read as measured at that speed.
type probeComponent struct {
	refS float64
	run  func(p *prober, g int)
}

var probeComponents = map[string]probeComponent{
	"walk":  {0.0765, (*prober).walk},
	"map":   {0.1046, (*prober).fillMaps},
	"q15":   {0.0821, (*prober).butterflies},
	"alloc": {0.0685, (*prober).allocList},
}

// probeMix is, per workload, the components whose summed time tracked
// the workload's own speed best in the calibration runs (README.md,
// "Host-speed scaling"): fixed-point arithmetic and hash lookups for
// the simulation, hash lookups and a growing heap for the row pipeline,
// memory latency and arithmetic for the service.
var probeMix = map[string]string{
	"city-cold": "q15,map",
	"city-warm": "map,alloc",
	"service":   "walk,q15",
}

// parseMix returns a mix's components in order and their summed
// reference time.
func parseMix(mix string) ([]probeComponent, float64, error) {
	var comps []probeComponent
	refS := 0.0
	for _, name := range strings.Split(mix, ",") {
		c, ok := probeComponents[name]
		if !ok {
			return nil, 0, fmt.Errorf("unknown probe component %q", name)
		}
		comps = append(comps, c)
		refS += c.refS
	}
	return comps, refS, nil
}

// speedometer probes the host through a process of its own (this
// binary with -probe), so the probe adds nothing to the workload's
// heap, garbage collection or peak RSS. A nil *speedometer probes
// nothing and scales by 1, for traced runs.
type speedometer struct {
	cmd    *exec.Cmd
	in     io.WriteCloser
	out    *bufio.Reader
	refS   float64   // the mix's reference time
	probes []float64 // seconds
	setup  int       // probes[:setup] bracket and interleave the set-up
	last   time.Time // end of the last probe
	err    error     // the first failure; no probes after it
	done   bool
}

// probeEvery is the least time between the probes tick takes. Units
// of work last about a second at the standard sizes, so each is
// followed by a probe; at toy sizes the probes stay a small share.
const probeEvery = 500 * time.Millisecond

// tick probes when probeEvery has passed since the last probe.
func (s *speedometer) tick() {
	if s != nil && time.Since(s.last) >= probeEvery {
		s.probe()
	}
}

// speedometerFor starts the workload's probe process and probes once
// for an untraced run; a traced run gets nil.
func speedometerFor(cfg config) (*speedometer, error) {
	if cfg.trace {
		return nil, nil
	}
	mix := probeMix[cfg.workload]
	_, refS, err := parseMix(mix)
	if err != nil {
		return nil, err
	}
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-probe", mix)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start speed probe: %w", err)
	}
	s := &speedometer{cmd: cmd, in: in, out: bufio.NewReader(out), refS: refS}
	s.probe()
	return s, nil
}

// probe has the probe process run its fixed work once and records how
// long it took.
func (s *speedometer) probe() {
	if s == nil || s.err != nil || s.done {
		return
	}
	if _, err := s.in.Write([]byte{'\n'}); err != nil {
		s.err = fmt.Errorf("speed probe: %w", err)
		return
	}
	line, err := s.out.ReadString('\n')
	if err != nil {
		s.err = fmt.Errorf("speed probe: %w", err)
		return
	}
	d, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	if err != nil {
		s.err = fmt.Errorf("speed probe: %w", err)
		return
	}
	s.probes = append(s.probes, d)
	s.last = time.Now()
}

// stop ends the probe process, waits for it, and returns the first
// failure of the run's probes. Safe to call twice.
func (s *speedometer) stop() error {
	if s == nil {
		return nil
	}
	if !s.done {
		s.done = true
		s.in.Close()
		if err := s.cmd.Wait(); err != nil && s.err == nil {
			s.err = fmt.Errorf("speed probe: %w", err)
		}
	}
	return s.err
}

// endSetup probes once more and marks the probes so far as the set-up
// phase's: the host can run at another speed while setting up than
// in the timed phase, so set-up time is scaled by its own probes.
func (s *speedometer) endSetup() {
	if s != nil {
		s.probe()
		s.setup = len(s.probes)
	}
}

// scale is how much slower than the reference host the host ran
// during probes: their mean over the reference time. A rate times
// scale, or a time over it, reads as on the reference host. The mean,
// not the median, because a slow spell slows the work the probes
// bracket for all of its length.
func (s *speedometer) scale(probes []float64) float64 {
	if len(probes) == 0 {
		return 1
	}
	return sum(probes) / float64(len(probes)) / s.refS
}

// finish stops the probe process and, when every probe succeeded, logs
// a workload's measured end-to-end metrics and rewrites the host times
// and rates among them as on the reference host: set-up time by the
// set-up's probes, the rest by the timed phase's.
func (s *speedometer) finish(workload string, vals map[string]float64) error {
	if s == nil {
		return nil
	}
	if err := s.stop(); err != nil {
		return err
	}
	timedProbes := s.probes[s.setup:]
	if len(timedProbes) == 0 {
		timedProbes = s.probes
	}
	setup, timed := s.scale(s.probes[:s.setup]), s.scale(timedProbes)
	logf("%s: measured %s; host %.4f× (set-up) and %.4f× (timed) the reference probe time, %d probes",
		workload, formatVals(vals), setup, timed, len(s.probes))
	vals["setup_s"] /= setup
	vals["devices_per_s"] *= timed
	vals["ttlr_p50_s"] /= timed
	vals["ttlr_p90_s"] /= timed
	return nil
}

func formatVals(vals map[string]float64) string {
	var b strings.Builder
	for _, name := range []string{"devices_per_s", "ttlr_p50_s", "ttlr_p90_s", "setup_s"} {
		fmt.Fprintf(&b, "%s=%g ", name, vals[name])
	}
	return strings.TrimSpace(b.String())
}

// serveProbes is the probe process: for each byte read from r it runs
// mix's components one after another, each on every CPU at once, and
// writes the seconds they took as a line to w, until r ends.
func serveProbes(mix string, r io.Reader, w io.Writer) error {
	comps, _, err := parseMix(mix)
	if err != nil {
		return err
	}
	p := newProber(runtime.NumCPU())
	br := bufio.NewReader(r)
	for {
		if _, err := br.ReadByte(); errors.Is(err, io.EOF) {
			return nil
		} else if err != nil {
			return err
		}
		t0 := time.Now()
		for _, c := range comps {
			var wg sync.WaitGroup
			for g := range p.sink {
				wg.Add(1)
				go func() {
					defer wg.Done()
					c.run(p, g)
				}()
			}
			wg.Wait()
		}
		if _, err := fmt.Fprintf(w, "%g\n", time.Since(t0).Seconds()); err != nil {
			return err
		}
	}
}

// prober holds the probe components' state.
type prober struct {
	table []int32 // one random cycle through 4 MiB
	sink  []int64 // per worker: keeps each component's result live
}

func newProber(workers int) *prober {
	rng := rand.New(rand.NewPCG(1, 2))
	// Sattolo's shuffle: one cycle through every entry, so a walk
	// never settles into a short loop that fits in cache.
	table := make([]int32, 1<<20)
	for i := range table {
		table[i] = int32(i)
	}
	for i := len(table) - 1; i > 0; i-- {
		j := rng.IntN(i)
		table[i], table[j] = table[j], table[i]
	}
	return &prober{table: table, sink: make([]int64, workers)}
}

// walk takes 2M steps along the table's cycle, where most steps miss
// the caches: memory latency.
func (p *prober) walk(g int) {
	j := int32(g)
	for k := 0; k < 2_000_000; k++ {
		j = p.table[j]
	}
	p.sink[g] += int64(j)
}

// fillMaps fills a 100k-key map six times: hashing, probing and the
// growth of a map.
func (p *prober) fillMaps(g int) {
	for round := 0; round < 6; round++ {
		m := map[int]int{}
		for k := 0; k < 300_000; k++ {
			m[k*7919%100_003] += k
		}
		p.sink[g] += int64(len(m))
	}
}

// butterflies runs 3,000 passes of radix-2 butterflies in Q15 fixed
// point over two 1024-entry arrays held in L1: multiplies, shifts and
// adds.
func (p *prober) butterflies(g int) {
	var re, im [1024]int32
	for i := range re {
		re[i] = int32((i*2654435761)>>16) & 0x7fff
	}
	for rep := 0; rep < 3000; rep++ {
		for half := 1; half < len(re); half <<= 1 {
			for i := 0; i < len(re); i += 2 * half {
				for k := 0; k < half; k++ {
					a, b := i+k, i+k+half
					wr := int32(k*31+half) & 0x7fff
					wi := wr >> 1
					tr := (re[b]*wr - im[b]*wi) >> 15
					ti := (re[b]*wi + im[b]*wr) >> 15
					re[a], re[b] = (re[a]+tr)>>1, (re[a]-tr)>>1
					im[a], im[b] = (im[a]+ti)>>1, (im[a]-ti)>>1
				}
			}
		}
	}
	p.sink[g] += int64(re[3] + im[5])
}

type probeNode struct {
	next *probeNode
	v    [6]int64
}

// allocList builds a 600k-node linked list (about 38 MB per CPU), so
// the collector marks a growing heap while small objects are
// allocated.
func (p *prober) allocList(g int) {
	var head *probeNode
	for k := 0; k < 600_000; k++ {
		head = &probeNode{next: head}
		head.v[0] = int64(k)
	}
	p.sink[g] += head.v[0]
}
