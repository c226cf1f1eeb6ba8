package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ehdl/internal/core"
)

// aggFields strips the per-run fields (host time, materialized rows)
// so reports can be compared bit-for-bit.
func aggFields(r Report) Report {
	r.HostSeconds = 0
	r.Results = nil
	return r
}

// TestRunStreamMatchesRun: the streamed report must be bit-identical
// to the materializing wrapper on the same scenarios — percentiles,
// counters and breakdowns alike (the regression the refactor pins).
func TestRunStreamMatchesRun(t *testing.T) {
	m := tinyModel(t)
	scenarios := testFleet(t, m)

	ran := collectRun(t, scenarios, 4)
	streamed, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if streamed.Results != nil {
		t.Error("sink-less stream materialized rows")
	}
	if !streamed.PercentilesExact {
		t.Error("small fleet did not use exact percentiles")
	}
	if !reflect.DeepEqual(aggFields(ran), aggFields(streamed)) {
		t.Fatalf("streamed aggregates diverge from Run:\n%+v\nvs\n%+v",
			aggFields(ran), aggFields(streamed))
	}
}

// TestRunStreamDeterministicAcrossWorkers: shard merging must not
// depend on scheduling.
func TestRunStreamDeterministicAcrossWorkers(t *testing.T) {
	m := tinyModel(t)
	scenarios := testFleet(t, m)
	var reports []Report
	for _, workers := range []int{1, 3, 16} {
		rep, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, rep)
	}
	for i := 1; i < len(reports); i++ {
		if !reflect.DeepEqual(aggFields(reports[0]), aggFields(reports[i])) {
			t.Fatalf("report depends on worker count:\n%+v\nvs\n%+v",
				aggFields(reports[0]), aggFields(reports[i]))
		}
	}
}

// orderSink records the delivery order and fails fast on regressions.
type orderSink struct {
	t    *testing.T
	next int
	rows []Result
}

func (s *orderSink) Consume(i int, r Result) error {
	if i != s.next {
		s.t.Errorf("sink got row %d, want %d (order broken)", i, s.next)
	}
	s.next++
	s.rows = append(s.rows, r)
	return nil
}

// TestRunStreamSinkOrdered: rows reach the sink in scenario order for
// any worker count, and match the materialized rows field for field.
func TestRunStreamSinkOrdered(t *testing.T) {
	m := tinyModel(t)
	scenarios := testFleet(t, m)
	want := collectRun(t, scenarios, 1).Results
	for _, workers := range []int{1, 4, 16} {
		sink := &orderSink{t: t}
		if _, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: workers, Sink: sink}); err != nil {
			t.Fatal(err)
		}
		if len(sink.rows) != len(scenarios) {
			t.Fatalf("workers=%d: sink saw %d rows, want %d", workers, len(sink.rows), len(scenarios))
		}
		for i := range want {
			a, b := want[i], sink.rows[i]
			ae, be := fmt.Sprint(a.Err), fmt.Sprint(b.Err)
			a.Err, b.Err = nil, nil
			if !reflect.DeepEqual(a, b) || ae != be {
				t.Fatalf("workers=%d: row %d differs: %+v vs %+v", workers, i, want[i], sink.rows[i])
			}
		}
	}
}

// TestRunStreamInFlightBounded: with the sink stalled at row 0, the
// dispatcher must stop handing out chunks once 2×workers of them are
// in flight, so a slow consumer (or one slow device) never buffers the
// fleet behind it. The source checks the bound at every At(i), and the
// sink is released only once the last in-budget index has been
// requested: nothing depends on timing.
func TestRunStreamInFlightBounded(t *testing.T) {
	const (
		workers = 2
		chunk   = 1
		n       = 64
		budget  = 2 * workers * chunk
	)
	var delivered atomic.Int64
	release := make(chan struct{})
	src := FuncSource(n, func(i int) (Scenario, error) {
		if d := delivered.Load(); int64(i) >= d+budget {
			t.Errorf("At(%d) called with %d rows delivered: more than %d rows in flight", i, d, budget)
		}
		if i == budget-1 {
			close(release)
		}
		return Scenario{Name: fmt.Sprintf("dev%d", i)}, nil
	})
	rows := &orderSink{t: t}
	sink := SinkFunc(func(i int, r Result) error {
		if i == 0 {
			<-release
		}
		err := rows.Consume(i, r)
		delivered.Add(1)
		return err
	})
	if _, err := RunStream(src, StreamOptions{Workers: workers, ChunkSize: chunk, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	if len(rows.rows) != n {
		t.Fatalf("sink received %d rows, want %d", len(rows.rows), n)
	}
	for i, r := range rows.rows {
		if want := fmt.Sprintf("dev%d", i); r.Name != want {
			t.Fatalf("row %d is %q, want %q", i, r.Name, want)
		}
	}
}

// TestRunStreamWorkersCappedByPool: a run sharing a pool starts at
// most Pool.Size() workers whatever Workers asks for. Extra goroutines
// could only queue on the pool, and the fleet service passes a job's
// requested worker count straight through.
func TestRunStreamWorkersCappedByPool(t *testing.T) {
	const n = 4096
	pool := NewWorkerPool(2)
	src := FuncSource(n, func(i int) (Scenario, error) {
		return Scenario{Name: fmt.Sprintf("dev%d", i)}, nil
	})
	before := runtime.NumGoroutine()
	peak := 0
	sink := SinkFunc(func(i int, r Result) error {
		peak = max(peak, runtime.NumGoroutine())
		return nil
	})
	if _, err := RunStream(src, StreamOptions{Workers: 1 << 30, Pool: pool, Sink: sink}); err != nil {
		t.Fatal(err)
	}
	// The pool's workers plus the committer, with slack for runtime
	// helpers.
	if limit := before + pool.Size() + 8; peak > limit {
		t.Fatalf("peak %d goroutines (%d before the run), want at most %d for a %d-slot pool",
			peak, before, limit, pool.Size())
	}
}

// TestRunLargeFleetStaysExact: Run materializes every row, so its
// percentiles must stay exact past the streaming default threshold.
func TestRunLargeFleetStaysExact(t *testing.T) {
	// Results, not simulations: pipe synthetic rows through the same
	// aggregator configuration Run uses.
	n := DefaultExactPercentiles + 10
	agg := NewAgg(n)
	for _, r := range syntheticResults(1000, 3) {
		agg.Observe(r)
	}
	for i := 1000; i < n; i++ {
		agg.Observe(Result{WallSec: float64(i%97) * 1e-3, Completed: true})
	}
	if rep := agg.Report(); !rep.PercentilesExact {
		t.Fatal("aggregator sized to the fleet spilled to estimates")
	}
}

// TestRunStreamSourceErrorLandsInRow: a Source failure for one index
// becomes that row's Err — it must not abort the fleet.
func TestRunStreamSourceErrorLandsInRow(t *testing.T) {
	m := tinyModel(t)
	scenarios := testFleet(t, m)
	src := FuncSource(len(scenarios), func(i int) (Scenario, error) {
		if i == 2 {
			return Scenario{}, fmt.Errorf("generator broke")
		}
		return scenarios[i], nil
	})
	collect := &Collector{}
	rep, err := RunStream(src, StreamOptions{Workers: 4, Sink: collect})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Devices != len(scenarios) {
		t.Fatalf("devices = %d, want %d", rep.Devices, len(scenarios))
	}
	if collect.Rows[2].Err == nil || !strings.Contains(collect.Rows[2].Err.Error(), "generator broke") {
		t.Fatalf("row 2 err = %v", collect.Rows[2].Err)
	}
	if collect.Rows[3].Err != nil || !collect.Rows[3].Completed {
		t.Fatalf("row 3 should be unaffected: %+v", collect.Rows[3])
	}
}

// TestRunStreamSinkErrorAborts: a failing sink stops the run and the
// error reaches the caller.
func TestRunStreamSinkErrorAborts(t *testing.T) {
	m := tinyModel(t)
	scenarios := testFleet(t, m)
	sink := SinkFunc(func(i int, r Result) error {
		if i == 3 {
			return fmt.Errorf("disk full")
		}
		return nil
	})
	_, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: 4, Sink: sink})
	if err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("err = %v, want the sink error", err)
	}
}

// TestRunStreamProgress: the final progress callback reports the full
// fleet.
func TestRunStreamProgress(t *testing.T) {
	m := tinyModel(t)
	scenarios := testFleet(t, m)
	var mu sync.Mutex
	var last [2]int
	_, err := RunStream(SliceSource(scenarios), StreamOptions{
		Workers: 4,
		Progress: func(done, total int) {
			mu.Lock()
			last = [2]int{done, total}
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if last != [2]int{len(scenarios), len(scenarios)} {
		t.Fatalf("final progress = %v, want both %d", last, len(scenarios))
	}
}

// stepClock is a fake Clock that moves only when the test advances
// it.
type stepClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *stepClock) advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestRunStreamProgressPacedByClock: progress reports the commit
// frontier, paced on the injected clock and nothing else. A clock the
// sink advances past the interval on every row yields a report at
// each frontier advance — chunk boundaries, non-decreasing, ending at
// (total, total). A frozen clock yields only the final report.
func TestRunStreamProgressPacedByClock(t *testing.T) {
	const (
		n       = 64
		chunk   = 4
		workers = 2
	)
	src := FuncSource(n, func(i int) (Scenario, error) {
		return Scenario{Name: fmt.Sprintf("dev%d", i)}, nil
	})
	run := func(clock *stepClock, advance bool) [][2]int {
		t.Helper()
		var calls [][2]int
		inCall := false
		_, err := RunStream(src, StreamOptions{
			Workers:   workers,
			ChunkSize: chunk,
			Clock:     clock,
			Sink: SinkFunc(func(i int, r Result) error {
				if advance {
					clock.advance(progressEvery)
				}
				return nil
			}),
			Progress: func(done, total int) {
				if inCall {
					t.Error("concurrent Progress calls")
				}
				inCall = true
				calls = append(calls, [2]int{done, total})
				inCall = false
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return calls
	}

	paced := run(&stepClock{now: time.Unix(0, 0)}, true)
	// 2×workers chunks in flight bound each frontier advance, so the
	// frontier moves at least n/(chunk×2×workers) times. Every move but
	// the one to the end reports, and the final call adds one.
	if min := n / (chunk * 2 * workers); len(paced) < min {
		t.Fatalf("advancing clock gave %d reports, want at least %d: %v", len(paced), min, paced)
	}
	prev := 0
	for _, c := range paced {
		if c[1] != n || c[0] < prev || c[0]%chunk != 0 {
			t.Fatalf("reports %v: want non-decreasing chunk boundaries of %d", paced, n)
		}
		prev = c[0]
	}
	if last := paced[len(paced)-1]; last != [2]int{n, n} {
		t.Fatalf("final report %v, want (%d, %d)", last, n, n)
	}

	frozen := run(&stepClock{now: time.Unix(0, 0)}, false)
	if len(frozen) != 1 || frozen[0] != [2]int{n, n} {
		t.Fatalf("frozen clock gave reports %v, want exactly [(%d, %d)]", frozen, n, n)
	}
}

// syntheticResults builds a deterministic result multiset without
// simulating anything — wall times spread over several decades, mixed
// engines/profiles, a few failures.
func syntheticResults(n int, seed int64) []Result {
	rng := rand.New(rand.NewSource(seed))
	engines := []string{"ace+flex", "sonic", "tails"}
	profiles := []string{"square", "sine", "const"}
	out := make([]Result, n)
	for i := range out {
		out[i] = Result{
			Name:      fmt.Sprintf("dev%d", i),
			Engine:    core.EngineKind(engines[i%len(engines)]),
			Profile:   profiles[i%len(profiles)],
			Completed: i%7 != 0,
			Boots:     uint64(rng.Intn(30)),
			WallSec:   math.Pow(10, rng.Float64()*6-3), // 1 ms .. 1000 s
		}
		if !out[i].Completed {
			out[i].Err = fmt.Errorf("dnf")
			out[i].WallSec = 0
		}
	}
	return out
}

// TestAggMergeMatchesSequential: shards over arbitrary splits of the
// multiset must merge to the same report as one sequential aggregator
// — below and above the exact threshold.
func TestAggMergeMatchesSequential(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n         int
		threshold int
	}{
		{"exact", 60, 1000},
		{"spilled", 300, 64},
		{"boundary", 64, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			results := syntheticResults(tc.n, 5)
			seq := NewAgg(tc.threshold)
			for _, r := range results {
				seq.Observe(r)
			}

			shards := []*Agg{NewAgg(tc.threshold), NewAgg(tc.threshold), NewAgg(tc.threshold)}
			// Deal rows round-robin backwards: neither shard membership
			// nor order matches the sequential pass.
			for i := tc.n - 1; i >= 0; i-- {
				shards[i%3].Observe(results[i])
			}
			merged := NewAgg(tc.threshold)
			for _, s := range shards {
				merged.Merge(s)
			}

			a, b := seq.Report(), merged.Report()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("merged shards diverge from sequential:\n%+v\nvs\n%+v", a, b)
			}
			if wantExact := tc.n <= tc.threshold; a.PercentilesExact != wantExact {
				t.Fatalf("PercentilesExact = %v, want %v", a.PercentilesExact, wantExact)
			}
		})
	}
}

// TestHistogramEstimateWithinBound: above the threshold the
// percentiles become estimates, ordered and within the documented
// ~1% relative error of the exact values.
func TestHistogramEstimateWithinBound(t *testing.T) {
	results := syntheticResults(5000, 11)
	exact := NewAgg(100_000)
	est := NewAgg(100)
	for _, r := range results {
		exact.Observe(r)
		est.Observe(r)
	}
	re, rs := exact.Report(), est.Report()
	if !re.PercentilesExact || rs.PercentilesExact {
		t.Fatalf("exactness flags wrong: %v %v", re.PercentilesExact, rs.PercentilesExact)
	}
	if !(rs.WallP50Sec <= rs.WallP90Sec && rs.WallP90Sec <= rs.WallP99Sec) {
		t.Fatalf("estimated percentiles not ordered: %v %v %v",
			rs.WallP50Sec, rs.WallP90Sec, rs.WallP99Sec)
	}
	for _, pair := range [][2]float64{
		{re.WallP50Sec, rs.WallP50Sec},
		{re.WallP90Sec, rs.WallP90Sec},
		{re.WallP99Sec, rs.WallP99Sec},
	} {
		if rel := (pair[1] - pair[0]) / pair[0]; rel < -0.011 || rel > 0.011 {
			t.Fatalf("estimate %v vs exact %v: relative error %v", pair[1], pair[0], rel)
		}
	}
	// Everything but the percentiles must stay exact.
	re.WallP50Sec, re.WallP90Sec, re.WallP99Sec = 0, 0, 0
	rs.WallP50Sec, rs.WallP90Sec, rs.WallP99Sec = 0, 0, 0
	re.PercentilesExact, rs.PercentilesExact = false, false
	if !reflect.DeepEqual(re, rs) {
		t.Fatalf("non-percentile aggregates differ:\n%+v\nvs\n%+v", re, rs)
	}
}

// TestHistogramEdgeValues: zero (errored rows), sub-µs and absurdly
// large wall times all land in bins instead of corrupting the
// estimate.
func TestHistogramEdgeValues(t *testing.T) {
	a := NewAgg(2)
	for _, v := range []float64{0, 1e-9, 0.5, 1e9, 3} {
		a.Observe(Result{WallSec: v})
	}
	rep := a.Report()
	if rep.PercentilesExact {
		t.Fatal("expected spilled aggregator")
	}
	if rep.WallP50Sec <= 0 || rep.WallP50Sec > 1 {
		t.Fatalf("p50 = %v, want ~0.5", rep.WallP50Sec)
	}
	if rep.WallP99Sec != 1e7 {
		t.Fatalf("p99 = %v, want the overflow edge 1e7", rep.WallP99Sec)
	}
}

// TestPercentileEdgeCases: empty and single-element inputs — the
// edge cases the streaming refactor surfaced.
func TestPercentileEdgeCases(t *testing.T) {
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := percentile([]float64{7.5}, p); got != 7.5 {
			t.Errorf("single-element p%v = %v, want 7.5", p, got)
		}
	}
	// nearestRank never leaves [0, n-1], even for out-of-range p.
	for _, tc := range []struct {
		n    int
		p    float64
		want int
	}{
		{1, 0, 0}, {1, 100, 0}, {10, 0, 0}, {10, 100, 9}, {10, 200, 9}, {3, 50, 1},
	} {
		if got := nearestRank(tc.n, tc.p); got != tc.want {
			t.Errorf("nearestRank(%d, %v) = %d, want %d", tc.n, tc.p, got, tc.want)
		}
	}
}

// TestEmptyAndSingleFleet: Report must stay well-formed (no NaN, no
// panic) for the degenerate fleets.
func TestEmptyAndSingleFleet(t *testing.T) {
	empty := collectRun(t, nil, 4)
	if empty.Devices != 0 || empty.CompletionRate != 0 || empty.WallP99Sec != 0 {
		t.Fatalf("empty fleet report: %+v", empty)
	}
	if empty.CompletionRate != empty.CompletionRate {
		t.Fatal("NaN completion rate")
	}
	if s := RenderReport(empty); !strings.Contains(s, "0 devices") {
		t.Fatalf("render: %s", s)
	}

	m := tinyModel(t)
	one := testFleet(t, m)[:1]
	rep := collectRun(t, one, 4)
	if rep.Devices != 1 || len(rep.Results) != 1 {
		t.Fatalf("single fleet report: %+v", rep)
	}
	w := rep.Results[0].WallSec
	if rep.WallP50Sec != w || rep.WallP90Sec != w || rep.WallP99Sec != w {
		t.Fatalf("single-device percentiles %v %v %v, want all %v",
			rep.WallP50Sec, rep.WallP90Sec, rep.WallP99Sec, w)
	}
}

// TestNDJSONSchema pins the row wire format and scenario ordering.
func TestNDJSONSchema(t *testing.T) {
	m := tinyModel(t)
	scenarios := testFleet(t, m)
	var buf bytes.Buffer
	if _, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: 8, Sink: NewNDJSONSink(&buf)}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(scenarios) {
		t.Fatalf("%d NDJSON lines, want %d", len(lines), len(scenarios))
	}
	for i, line := range lines {
		var row NDJSONRow
		if err := json.Unmarshal([]byte(line), &row); err != nil {
			t.Fatalf("line %d: %v", i, err)
		}
		if row.Index != i || row.Device != scenarios[i].Name {
			t.Fatalf("line %d: index %d device %q (want %q)", i, row.Index, row.Device, scenarios[i].Name)
		}
	}
	// The dead device's sentinel must survive the trip; healthy rows
	// must omit the err key entirely.
	if !strings.Contains(lines[len(lines)-1], `"err":`) {
		t.Error("dead device row lost its error")
	}
	if strings.Contains(lines[1], `"err":`) {
		t.Error("healthy row carries an err key")
	}
	// The memo tag is strictly opt-in (NDJSONSink.TagMemo); an
	// unmemoized stream must never emit the key.
	if strings.Contains(buf.String(), `"memo"`) {
		t.Error("memo key present without TagMemo")
	}
}

// TestProfileLabel covers the breakdown keys.
func TestProfileLabel(t *testing.T) {
	m := tinyModel(t)
	rep := collectRun(t, testFleet(t, m), 0)
	for _, want := range []string{"square", "sine", "const"} {
		if _, ok := rep.Profiles[want]; !ok {
			t.Errorf("profile breakdown missing %q (have %v)", want, rep.Profiles)
		}
	}
	if rep.Engines["ace+flex"].Devices == 0 {
		t.Errorf("engine breakdown missing ace+flex: %v", rep.Engines)
	}
}
