package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the speed-probe process, which
// the workloads start by running their own executable with -probe.
func TestMain(m *testing.M) {
	if len(os.Args) == 3 && os.Args[1] == "-probe" {
		if err := serveProbes(os.Args[2], os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestNearestRank(t *testing.T) {
	xs := []float64{50, 15, 40, 20, 35}
	for _, c := range []struct{ p, want float64 }{
		{5, 15}, {30, 20}, {40, 20}, {50, 35}, {90, 50}, {100, 50},
	} {
		if got := nearestRank(xs, c.p); got != c.want {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if xs[0] != 50 {
		t.Error("nearestRank sorted its input in place")
	}
	if got := nearestRank([]float64{2.5}, 90); got != 2.5 {
		t.Errorf("single value p90 = %g", got)
	}
	if !math.IsNaN(nearestRank(nil, 50)) {
		t.Error("empty input should be NaN")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4) and
// statistics.median, which the spread rules are stated in.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 4, 3, 2, 1}, 1.5, 3, 4.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{7, 7}, 7, 7, 7},
	} {
		q1, med, q3 := quartiles(c.xs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	spans := []span{
		{name: "device", id: 0, parent: -1, start: 0, end: 100},
		{name: "exec.run", id: 1, parent: 0, start: 10, end: 40},
		{name: "fleet.encode", id: 2, parent: 0, start: 50, end: 60},
		{name: "exec.flash", id: 3, parent: 1, start: 20, end: 25},
		{name: "device", id: 4, parent: -1, start: 200, end: 210},
	}
	self := selfTimes(spans)
	want := map[string]layerTime{
		"device":       {selfNS: 60 + 10, count: 2},
		"exec.run":     {selfNS: 25, count: 1},
		"fleet.encode": {selfNS: 10, count: 1},
		"exec.flash":   {selfNS: 5, count: 1},
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("%s: self %+v, want %+v", name, self[name], w)
		}
	}
	if got := totalTimes(spans)["device"]; got.selfNS != 110 || got.count != 2 {
		t.Errorf("device total %+v, want 110 ns over 2", got)
	}
}

func TestTracerNests(t *testing.T) {
	tr := newTracer(time.Now())
	root := tr.begin("device", -1)
	child := tr.begin("exec.run", root)
	tr.finish(child)
	tr.finish(root)
	if len(tr.spans) != 2 || tr.spans[child].parent != root {
		t.Fatalf("spans %+v", tr.spans)
	}
	for _, s := range tr.spans {
		if s.end < s.start {
			t.Errorf("span %s ends before it starts", s.name)
		}
	}
	var none *tracer
	none.finish(none.begin("device", -1)) // a nil tracer records nothing
}

func TestCompareVerdicts(t *testing.T) {
	base := []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.2, 99.8}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	wide := []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}
	shuffled := append([]float64(nil), wide...)
	sort.Float64s(shuffled)
	for _, c := range []struct {
		name    string
		a, b    []float64
		better  string
		bound   float64
		bounded bool
		want    string
	}{
		{"faster", base, scale(base, 1.2), "higher", 0.1, true, improved},
		{"lower is better", base, scale(base, 0.8), "lower", 0.1, true, improved},
		{"slower beyond bound", base, scale(base, 0.85), "higher", 0.1, true, worse},
		{"slower within bound", base, scale(base, 0.97), "higher", 0.1, true, unchanged},
		{"same", base, base, "higher", 0.1, true, unchanged},
		{"parent spread wider than bound", wide, shuffled, "higher", 0.1, true, unresolved},
		{"per-layer regression", base, scale(base, 1.3), "lower", 0, false, worse},
		{"per-layer noise", wide, shuffled, "lower", 0, false, unchanged},
	} {
		if got, _ := verdict(c.a, c.b, c.better, c.bound, c.bounded); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestComparePairsBySeed checks that compare pairs runs by seed however
// the files order them, reports unpaired seeds, leaves incorrect runs
// out of the series, and never lets B improve with more incorrect runs.
func TestComparePairsBySeed(t *testing.T) {
	run := func(seed int64, rate float64, correct bool) record {
		return record{Workload: "city-warm", Seed: seed, Result: result{
			Correct: correct, Attempted: 1,
			Metrics: map[string]metricValue{"devices_per_s": {Value: rate, Unit: "devices/s"}},
		}}
	}
	write := func(dir string, recs ...record) {
		t.Helper()
		var lines []byte
		for _, r := range recs {
			line, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			lines = append(append(lines, line...), '\n')
		}
		if err := os.WriteFile(filepath.Join(dir, "runs.jsonl"), lines, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	compare := func(a, b []record) string {
		t.Helper()
		dirA, dirB := t.TempDir(), t.TempDir()
		write(dirA, a...)
		write(dirB, b...)
		var out strings.Builder
		if err := compareDirs(&out, "..", dirA, dirB); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}

	// A: seeds 1–10, each seed's rate 100+seed. B: seeds 2–11 in
	// reverse order, each 10% above A's run of the same seed.
	var a, b []record
	for s := int64(1); s <= 10; s++ {
		a = append(a, run(s, 100+float64(s), true))
	}
	for s := int64(11); s >= 2; s-- {
		b = append(b, run(s, 1.1*(100+float64(s)), true))
	}
	p := pairRuns(index(a), index(b))[group{"city-warm", false}]
	if len(p.pairs) != 9 || !slices.Equal(p.onlyA, []int64{1}) || !slices.Equal(p.onlyB, []int64{11}) {
		t.Fatalf("pairs %d, only A %v, only B %v", len(p.pairs), p.onlyA, p.onlyB)
	}
	for _, pr := range p.pairs {
		if pr[0].Seed != pr[1].Seed {
			t.Fatalf("seed %d paired with seed %d", pr[0].Seed, pr[1].Seed)
		}
	}
	if out := compare(a, b); !strings.Contains(out, improved) || !strings.Contains(out, "unpaired seeds A [1], B [11]") {
		t.Errorf("seed-paired 10%% gain:\n%s", out)
	}

	// One incorrect B run: it leaves the series, and B is worse.
	b[3] = run(b[3].Seed, 1e9, false)
	out := compare(a, b)
	if !strings.Contains(out, worse) || strings.Contains(out, improved) || !strings.Contains(out, "8 pairs") {
		t.Errorf("B with an incorrect run:\n%s", out)
	}

	dirA := t.TempDir()
	write(dirA, run(1, 100, true), run(1, 101, true))
	if _, err := loadRuns(dirA); err == nil {
		t.Error("a seed recorded twice was accepted")
	}
}

func index(recs []record) map[runKey]record {
	out := map[runKey]record{}
	for _, r := range recs {
		out[runKey{r.Workload, r.Trace, r.Seed}] = r
	}
	return out
}

func TestLabelChecksNamesAgainstSpec(t *testing.T) {
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	vals := map[string]float64{}
	for _, d := range spec.EndToEnd {
		vals[d.Name] = 1
	}
	if _, err := spec.label(vals, false); err != nil {
		t.Fatalf("every end-to-end metric given: %v", err)
	}
	delete(vals, "setup_s")
	if _, err := spec.label(vals, false); err == nil {
		t.Error("missing setup_s accepted")
	}
	vals["setup_s"], vals["setup_seconds"] = 1, 1
	if _, err := spec.label(vals, false); err == nil {
		t.Error("unlisted metric accepted")
	}
	got, err := spec.label(map[string]float64{"exec.run_us": 3}, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(spec.PerLayer) || got["exec.run_us"].Value != 3 || got["cli.at_ns"].Value != 0 {
		t.Errorf("traced labels: %v", got)
	}
}

// TestFleetdRowsOverOneMiB reproduces the ehfleetd defect the service
// workload's job size works around (README.md, "Known defects"):
// GET /v1/jobs/{id}/rows of a finished job whose rows file is over
// 1 MiB ends after the rows of the first 1 MiB. It fails until the
// defect is fixed, so it runs only with BENCH_FLEETD_DEFECTS=1.
func TestFleetdRowsOverOneMiB(t *testing.T) {
	if os.Getenv("BENCH_FLEETD_DEFECTS") == "" {
		t.Skip("reproduces a known ehfleetd defect; set BENCH_FLEETD_DEFECTS=1 to run it")
	}
	cfg := config{repo: "..", work: t.TempDir(), seed: 1, jobDevices: 20_000}
	if err := writeFixtureSized(cfg.repo, cfg.work, "", 60, 1); err != nil {
		t.Fatal(err)
	}
	bin, err := buildDaemon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	body, err := jobBody(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := startDaemon(bin, cfg.work, "svc", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	j, err := d.job(body, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if j.rows != cfg.jobDevices {
		t.Errorf("finished %d-device job streamed %d rows", cfg.jobDevices, j.rows)
	}
}

// TestWorkloadsSmoke runs every workload untraced and traced at toy
// size: rows must agree across every path the workload checks, and
// the reported names must be exactly BENCHMARK.json's.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model fixture and starts the daemon")
	}
	spec, err := loadSpec("..")
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	if err := writeFixtureSized("..", work, "", 60, 1); err != nil {
		t.Fatal(err)
	}
	driven := map[string]bool{}
	for _, name := range []string{"city-cold", "city-warm", "service"} {
		for _, trace := range []bool{false, true} {
			cfg := config{
				workload: name, seed: 7, seconds: 0.2, trace: trace, repo: "..", work: work, workers: 2,
				coldDevices: 200, warmDevices: 300, jobDevices: 200, maxJobs: 3, warmMirror: 300,
			}
			if name == "city-cold" && trace {
				// The declared fleet, thinned to 100 devices that span
				// every device spec and so every engine.
				cfg.coldDevices, cfg.traceStride = 0, 100
			}
			res, err := runChild(spec, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if want := len(spec.metrics(trace)); len(res.Metrics) != want {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", name, trace, len(res.Metrics), want)
			}
			for n, v := range res.Metrics {
				if trace && v.Value != 0 {
					driven[n] = true
				}
				if !trace && !(v.Value > 0) {
					t.Errorf("%s: end-to-end %s = %g, want > 0", name, n, v.Value)
				}
			}
		}
	}
	// Counts that are 0 on the citywide scenario itself: no device
	// fast-forwards, and no device is a compute-only memo hit.
	zeroOnCitywide := map[string]bool{"intermittent.ff_boot_pct": true, "memo.compute_hit_pct": true}
	for _, d := range spec.PerLayer {
		if !driven[d.Name] && !zeroOnCitywide[d.Name] {
			t.Errorf("per-layer metric %s is 0 on every workload", d.Name)
		}
	}
}
