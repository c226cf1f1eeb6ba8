package fleetd

// Concurrent-session suite: several jobs submitted simultaneously to
// one daemon, drawing from one shared worker pool, one shared run
// memo and one shared artifact cache, at worker counts 1/4/16. Run
// under `go test -race`. Each job's rows must equal its own solo
// reference run (per-job ordering and seed isolation hold no matter
// how the shared pool interleaves them), and at least three jobs must
// actually overlap on the pool.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"sync"
	"testing"
)

func TestConcurrentJobsSharedPoolDeterministic(t *testing.T) {
	base := writeFixtures(t)
	srv, ts := startServer(t, t.TempDir(), Config{BaseDir: base, Pool: 4, MaxActive: 4})

	// Two memo-off jobs with distinct seeds (seed isolation), plus two
	// identical memoized jobs that exercise the shared process-wide
	// memo across concurrent sessions.
	specs := []struct {
		seed    int64
		workers int
		devices int
		memo    bool
	}{
		{seed: 1, workers: 1, devices: 400, memo: false},
		{seed: 2, workers: 4, devices: 400, memo: false},
		{seed: 3, workers: 16, devices: 400, memo: true},
		{seed: 3, workers: 16, devices: 400, memo: true},
	}

	// Every job holds at device 200 until released, so when the last
	// one gets there all four are running at once on the shared pool
	// (each holds one of its four slots).
	g := gateJobs(t, srv, 200)
	ids := make([]string, len(specs))
	var wg sync.WaitGroup
	for i, sp := range specs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			js := postJob(t, ts, jobBody(t, scenarioDoc, map[string]any{
				"seed": sp.seed, "devices": sp.devices, "workers": sp.workers, "memo": sp.memo,
			}))
			ids[i] = js.ID
		}()
	}
	wg.Wait()

	// Read the scheduler while the jobs are held: with MaxActive 4 and
	// four jobs, at least three must be active at once.
	g.wait(t, len(specs))
	var held Metrics
	status, data := apiCall(t, ts, http.MethodGet, "/v1/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/metrics: %d %s", status, data)
	}
	if err := json.Unmarshal(data, &held); err != nil {
		t.Fatal(err)
	}
	maxActive := held.Active
	g.release()

	for i, id := range ids {
		if st := waitTerminal(t, ts, id); st != StateDone {
			t.Fatalf("job %d (%s) finished %s, want done", i, id, st)
		}
	}
	if maxActive < 3 {
		t.Errorf("observed at most %d simultaneously active jobs, want >= 3 on the shared pool", maxActive)
	}

	// Every job's rows match its solo reference (memo never changes
	// row bytes, so all references run memo-off); memo-off reports
	// match too (memoized reports carry shared-memo counters, which
	// are daemon-wide by design).
	rows := make([][]byte, len(specs))
	for i, sp := range specs {
		rows[i] = getRows(t, ts, ids[i])
		refRows, refReport := referenceRun(t, base, scenarioDoc, refOptions{
			seed: sp.seed, devices: sp.devices, workers: sp.workers,
		})
		if !bytes.Equal(rows[i], refRows) {
			t.Errorf("job %d rows diverge from its solo run (%d vs %d bytes)", i, len(rows[i]), len(refRows))
		}
		if !sp.memo {
			if report := getReport(t, ts, ids[i]); report != refReport {
				t.Errorf("job %d report diverges:\n--- daemon\n%s--- ref\n%s", i, report, refReport)
			}
		}
	}

	// Seed isolation: same scenario, different seeds, different rows.
	if bytes.Equal(rows[0], rows[1]) {
		t.Error("jobs with different seeds produced identical rows")
	}
	// The two identical memoized jobs are bit-identical to each other.
	if !bytes.Equal(rows[2], rows[3]) {
		t.Error("identical memoized jobs diverged")
	}

	// Shared-cache bookkeeping: the identical jobs must have hit the
	// process-wide memo, every job the shared artifact cache, and the
	// drained pool must have released every slot.
	var m Metrics
	status, data = apiCall(t, ts, http.MethodGet, "/v1/metrics", nil)
	if status != http.StatusOK {
		t.Fatalf("GET /v1/metrics: %d %s", status, data)
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if hits := m.Memo.FullHits + m.Memo.ComputeHits; hits == 0 {
		t.Error("identical concurrent memoized jobs produced zero shared-memo hits")
	}
	if m.ArtifactsCached == 0 {
		t.Error("no model artifacts cached after four jobs over one bundle")
	}
	if m.PoolSize != 4 {
		t.Errorf("pool size %d, want 4", m.PoolSize)
	}
	if m.PoolInUse != 0 {
		t.Errorf("%d pool slots still held after all jobs finished", m.PoolInUse)
	}
	if m.Jobs[string(StateDone)] != len(specs) {
		t.Errorf("metrics count %d done jobs, want %d", m.Jobs[string(StateDone)], len(specs))
	}
	if srv.Draining() {
		t.Error("server reports draining before Drain")
	}
}
