package main

// The service workload: the real cmd/ehfleetd binary over a fresh data
// directory, driven by closed-loop HTTP clients that each submit the
// citywide scenario resized to jobDevices, wait for it to finish,
// stream its rows to EOF, fetch its report, and only then submit the
// next job.

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"ehdl/internal/cli"
	"ehdl/internal/core"
	"ehdl/internal/fleet"
	"ehdl/internal/fleet/memo"
)

// maxClients bounds the concurrent clients (and connections); fewer
// when the machine has fewer CPUs.
const maxClients = 2

// checkpointEvery is each job's checkpoint interval in rows.
const checkpointEvery = 1000

// serviceSetups is how many times an untraced run sets the service up
// (the daemon started over a fresh data dir, then the warm-up job);
// setup_s is the median, and the last daemon serves the timed phase.
// A traced run sets up once.
const serviceSetups = 5

// buildDaemon builds cmd/ehfleetd from the checkout into the work dir.
func buildDaemon(cfg config) (string, error) {
	bin := filepath.Join(cfg.work, "ehfleetd")
	build := exec.Command("go", "build", "-o", bin, "./cmd/ehfleetd")
	build.Dir = cfg.repo
	build.Stdout, build.Stderr = os.Stderr, os.Stderr
	if err := build.Run(); err != nil {
		return "", fmt.Errorf("build ehfleetd: %w", err)
	}
	return bin, nil
}

// jobBody is the POST /v1/jobs request every job of a run sends.
func jobBody(cfg config) ([]byte, error) {
	scenario, err := os.ReadFile(cfg.scenarioPath())
	if err != nil {
		return nil, err
	}
	return json.Marshal(map[string]any{
		"scenario": json.RawMessage(scenario), "seed": cfg.seed, "devices": cfg.jobDevices,
		"memo": true, "checkpoint_every": checkpointEvery,
	})
}

func service(cfg config) (outcome, error) {
	var o outcome
	bin, err := buildDaemon(cfg)
	if err != nil {
		return o, err
	}
	body, err := jobBody(cfg)
	if err != nil {
		return o, err
	}
	clients := max(1, min(maxClients, cfg.workers))
	sp, err := speedometerFor(cfg)
	if err != nil {
		return o, err
	}
	defer sp.stop()

	var (
		d      *daemon
		warm   jobTiming
		jobs   []jobTiming
		setups []float64
	)
	for k := 0; k < serviceSetups && (k == 0 || !cfg.trace); k++ {
		if k > 0 {
			if err := d.stop(); err != nil {
				return o, err
			}
			sp.probe()
		}
		t0 := time.Now()
		if d, err = startDaemon(bin, cfg.work, fmt.Sprintf("svc-%d", k), clients); err != nil {
			return o, err
		}
		defer d.stop()
		if warm, err = d.job(body, nil, cfg.trace); err != nil {
			return o, fmt.Errorf("warm-up job: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		jobs = append(jobs, warm)
	}
	setup := median(setups)
	sp.endSetup()

	var (
		timed    []jobTiming
		elapsed  float64
		tracers  []*tracer
		untraced float64 // devices/s of the untraced half of a traced run
	)
	if cfg.trace {
		// Half the time untraced, half traced: the ratio is the
		// tracing overhead.
		half := cfg.seconds / 2
		u, uel, err := d.runClients(clients, body, cfg, half, false, nil)
		if err != nil {
			return o, err
		}
		untraced = float64(len(u)*cfg.jobDevices) / uel
		jobs = append(jobs, u...)
		timed, elapsed, err = d.runClients(clients, body, cfg, half, true, nil)
		if err != nil {
			return o, err
		}
		for _, j := range timed {
			tracers = append(tracers, j.tr)
		}
	} else {
		timed, elapsed, err = d.runClients(clients, body, cfg, cfg.seconds, false, sp)
		if err != nil {
			return o, err
		}
	}
	jobs = append(jobs, timed...)
	rss, err := peakRSSMB(d.cmd.Process.Pid)
	if err != nil {
		return o, err
	}
	var mstats memo.Stats
	if err := d.getJSON("/v1/metrics", &struct {
		Memo *memo.Stats `json:"memo"`
	}{&mstats}); err != nil {
		return o, err
	}
	if err := d.stop(); err != nil {
		return o, err
	}

	// Every job must match the pin or, for an unpinned seed, an
	// in-process sweep of the same source (logged, to pin).
	want, ok := cfg.pins.rowPin(cfg.workload, cfg.seed)
	if !ok {
		if want, err = referenceRows(cfg); err != nil {
			return o, err
		}
	}
	logf("service seed %d: job rows sha256 %s", cfg.seed, want)
	for k, j := range jobs {
		o.attempted += cfg.jobDevices
		switch {
		case j.rows != cfg.jobDevices:
			o.fail(cfg.jobDevices, "job %d streamed %d rows, want %d", k, j.rows, cfg.jobDevices)
		case j.digest != want:
			o.fail(cfg.jobDevices, "job %d rows %s, want %s", k, j.digest, want)
		}
	}

	ttlr := make([]float64, len(timed))
	for i, j := range timed {
		ttlr[i] = j.ttlr
	}
	logf("service: %d clients, %d timed jobs of %d devices in %.2fs, warm-up %.2fs; daemon memo %+v",
		clients, len(timed), cfg.jobDevices, elapsed, warm.ttlr, mstats)

	if !cfg.trace {
		o.vals = map[string]float64{
			"devices_per_s": float64(len(timed)*cfg.jobDevices) / elapsed,
			"ttlr_p50_s":    nearestRank(ttlr, 50),
			"ttlr_p90_s":    nearestRank(ttlr, 90),
			"setup_s":       setup,
			"peak_rss_mb":   rss,
		}
		return o, sp.finish(cfg.workload, o.vals)
	}

	l := &layers{epoch: time.Now(), tracers: tracers, memoStats: &mstats, vals: map[string]float64{
		"trace.overhead_pct": 100 * (untraced/(float64(len(timed)*cfg.jobDevices)/elapsed) - 1),
	}}
	results, err := decodeRows(warm.body)
	if err != nil {
		return o, err
	}
	durable, err := timeDurableWrites(cfg, results, l)
	if err != nil {
		return o, err
	}
	l.tracers = append(l.tracers, durable)
	return o, l.report(cfg, &o)
}

// timeDurableWrites replays the warm-up job's rows through the durable
// path a checkpointed job takes — an NDJSONFile and an aggregator —
// and times NDJSONFile.Flush (buffer flush plus fsync) and
// Agg.Snapshot at every checkpoint frontier and at the end. The
// aggregator becomes l's simulated view of the job.
func timeDurableWrites(cfg config, results []fleet.Result, l *layers) (*tracer, error) {
	tr := newTracer(l.epoch)
	path := filepath.Join(cfg.work, "durable.ndjson")
	file, err := fleet.NewNDJSONFile(path, 0)
	if err != nil {
		return nil, err
	}
	defer os.Remove(path)
	agg := fleet.NewAgg(0)
	l.sim = agg
	for i, r := range results {
		if err := file.Consume(i, r); err != nil {
			file.Close()
			return nil, err
		}
		agg.Observe(r)
		l.simEnergyMJ += r.EnergymJ
		if (i+1)%checkpointEvery != 0 && i+1 != len(results) {
			continue
		}
		sp := tr.begin("fleet.snapshot", -1)
		_, err := agg.Snapshot()
		tr.finish(sp)
		if err == nil {
			sp = tr.begin("fleet.flush", -1)
			err = file.Flush()
			tr.finish(sp)
		}
		if err != nil {
			file.Close()
			return nil, err
		}
	}
	return tr, file.Close()
}

// referenceRows is the digest of an in-process RunStream over the same
// source a job sweeps: what every job's rows must equal when the seed
// has no pin.
func referenceRows(cfg config) (string, error) {
	src, err := cli.LoadFleetSource(cfg.scenarioPath(), cfg.seed)
	if err != nil {
		return "", err
	}
	h := sha256.New()
	_, _, _, err = sweep(src.Resize(cfg.jobDevices), cfg.workers, 1, memo.New(0), fleet.NewNDJSONSink(h), nil)
	return hex.EncodeToString(h.Sum(nil)), err
}

// decodeRows turns NDJSON rows back into fleet results.
func decodeRows(data []byte) ([]fleet.Result, error) {
	var out []fleet.Result
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var row fleet.NDJSONRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, fmt.Errorf("row %d: %w", len(out), err)
		}
		r := fleet.Result{
			Name: row.Device, Engine: core.EngineKind(row.Engine), Profile: row.Profile,
			Completed: row.Completed, Predicted: row.Predicted, Boots: row.Boots,
			ActiveSec: row.ActiveSec, WallSec: row.WallSec, EnergymJ: row.EnergyMJ,
			Diagnosis: row.Diag, FastForwarded: row.FFBoots,
		}
		if row.Err != "" {
			r.Err = errors.New(row.Err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

type daemon struct {
	cmd    *exec.Cmd
	base   string
	http   *http.Client
	once   sync.Once
	waited error
}

// startDaemon starts ehfleetd over the fresh data dir work/data and
// waits until /healthz answers.
func startDaemon(bin, work, data string, conns int) (*daemon, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()
	cmd := exec.Command(bin, "-data", filepath.Join(work, data), "-base", work, "-addr", addr)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start ehfleetd: %w", err)
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, http: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns,
	}}}
	for deadline := time.Now().Add(30 * time.Second); ; time.Sleep(5 * time.Millisecond) {
		resp, err := d.http.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) {
			d.stop()
			return nil, fmt.Errorf("ehfleetd not healthy after 30s: %v", err)
		}
	}
}

// stop sends SIGTERM, waits for the daemon to drain and exit, and
// kills it if it has not exited within 30s. Safe to call twice.
func (d *daemon) stop() error {
	d.once.Do(func() {
		d.http.CloseIdleConnections()
		if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
			d.waited = err
		}
		done := make(chan error, 1)
		go func() { done <- d.cmd.Wait() }()
		select {
		case err := <-done:
			if d.waited == nil {
				d.waited = err
			}
		case <-time.After(30 * time.Second):
			d.cmd.Process.Kill()
			<-done
			d.waited = fmt.Errorf("ehfleetd did not exit within 30s of SIGTERM")
		}
	})
	return d.waited
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.http.Get(d.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// jobTiming is one job as a client saw it.
type jobTiming struct {
	ttlr   float64 // submit to the last row, in seconds
	rows   int
	digest string
	body   []byte  // the rows, when kept
	tr     *tracer // the job's spans in a traced run
}

// roundS is the length of one round of closed-loop jobs. The host's
// speed is probed between rounds, while no job is in flight.
const roundS = 1.0

// runClients runs closed-loop clients in rounds until seconds have
// passed, or until the run's job cap is reached, with sp probing the
// host after each round. It returns every job and the summed round
// times, probes excluded.
func (d *daemon) runClients(clients int, body []byte, cfg config, seconds float64, traced bool, sp *speedometer) ([]jobTiming, float64, error) {
	var jobs []jobTiming
	elapsed := 0.0
	for elapsed < seconds && (cfg.maxJobs == 0 || len(jobs) < cfg.maxJobs) {
		limit := 0
		if cfg.maxJobs > 0 {
			limit = cfg.maxJobs - len(jobs)
		}
		round, secs, err := d.round(clients, body, min(roundS, seconds-elapsed), limit, traced)
		jobs, elapsed = append(jobs, round...), elapsed+secs
		if err != nil {
			return jobs, elapsed, err
		}
		sp.tick()
	}
	return jobs, elapsed, nil
}

// round runs closed-loop clients until seconds have passed, or, with
// a limit above 0, until limit jobs have run. It returns every job with
// the time from start until the last client finished.
func (d *daemon) round(clients int, body []byte, seconds float64, limit int, traced bool) ([]jobTiming, float64, error) {
	start := time.Now()
	deadline := start.Add(time.Duration(seconds * float64(time.Second)))
	var (
		mu    sync.Mutex
		jobs  []jobTiming
		first error
		wg    sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				stop := first != nil || (limit > 0 && len(jobs) >= limit) ||
					(limit == 0 && time.Now().After(deadline))
				mu.Unlock()
				if stop {
					return
				}
				var tr *tracer
				if traced {
					tr = newTracer(start)
				}
				j, err := d.job(body, tr, false)
				mu.Lock()
				if err != nil && first == nil {
					first = err
				}
				jobs = append(jobs, j)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return jobs, time.Since(start).Seconds(), first
}

// job submits one job, follows its events until it ends, streams its
// rows to EOF and fetches its report. It reads the rows of the
// finished job instead of following them live, because ehfleetd's
// live rows stream can end early (README.md, "Known defects").
func (d *daemon) job(body []byte, tr *tracer, keep bool) (jobTiming, error) {
	var j jobTiming
	j.tr = tr
	root := tr.begin("job", -1)
	defer tr.finish(root)
	t0 := time.Now()

	sp := tr.begin("fleetd.submit", root)
	resp, err := d.http.Post(d.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return j, err
	}
	var st struct {
		ID string `json:"id"`
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	tr.finish(sp)
	if err != nil || resp.StatusCode != http.StatusAccepted {
		return j, fmt.Errorf("submit: %s: %v", resp.Status, err)
	}

	sp = tr.begin("fleetd.run", root)
	state, err := d.finalState(st.ID)
	tr.finish(sp)
	if err != nil {
		return j, err
	}
	if state != "done" {
		return j, fmt.Errorf("job %s ended %q", st.ID, state)
	}

	sp = tr.begin("fleetd.first_row", root)
	resp, err = d.http.Get(d.base + "/v1/jobs/" + st.ID + "/rows")
	if err != nil {
		return j, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return j, fmt.Errorf("rows of %s: %s", st.ID, resp.Status)
	}
	h := sha256.New()
	var kept bytes.Buffer
	w := io.Writer(h)
	if keep {
		w = io.MultiWriter(h, &kept)
	}
	lines := &lineCounter{w: w}
	buf := make([]byte, 32<<10)
	n, err := resp.Body.Read(buf)
	for n == 0 && err == nil {
		n, err = resp.Body.Read(buf)
	}
	tr.finish(sp)
	lines.Write(buf[:n])
	if err == nil {
		sp = tr.begin("fleetd.stream", root)
		_, err = io.CopyBuffer(lines, resp.Body, buf)
		tr.finish(sp)
	}
	if err != nil && err != io.EOF {
		return j, fmt.Errorf("rows of %s: %w", st.ID, err)
	}
	j.ttlr = time.Since(t0).Seconds()
	j.rows = lines.n
	j.digest = hex.EncodeToString(h.Sum(nil))
	j.body = kept.Bytes()

	sp = tr.begin("fleetd.report", root)
	resp, err = d.http.Get(d.base + "/v1/jobs/" + st.ID + "/report")
	if err == nil {
		_, err = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("report of %s: %s", st.ID, resp.Status)
		}
	}
	tr.finish(sp)
	return j, err
}

// finalState reads a job's event stream, which ends when the job does,
// and returns the last state it announced.
func (d *daemon) finalState(id string) (string, error) {
	resp, err := d.http.Get(d.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events of %s: %s", id, resp.Status)
	}
	var state string
	dec := json.NewDecoder(resp.Body)
	for {
		var ev struct {
			Type  string `json:"type"`
			State string `json:"state"`
		}
		switch err := dec.Decode(&ev); {
		case err == io.EOF:
			return state, nil
		case err != nil:
			return "", fmt.Errorf("events of %s: %w", id, err)
		case ev.Type == "state":
			state = ev.State
		}
	}
}

// lineCounter counts newline-terminated rows passing through to w.
type lineCounter struct {
	w io.Writer
	n int
}

func (c *lineCounter) Write(p []byte) (int, error) {
	c.n += bytes.Count(p, []byte{'\n'})
	return c.w.Write(p)
}
