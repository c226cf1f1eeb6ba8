package fleetd

// API error contract: every failure carries a machine-readable code,
// table-tested here, plus the job-lifecycle conflicts (cancel after
// done, double cancel), the draining responses, and a fuzz target
// over the POST /v1/jobs envelope seeded from the scenario-schema
// fuzz corpus.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"ehdl/internal/cli"
	"ehdl/internal/fleet"
)

func TestAPIErrorContract(t *testing.T) {
	base := writeFixtures(t)
	_, ts := startServer(t, t.TempDir(), Config{BaseDir: base, MaxBody: 64 << 10})

	oversized := fmt.Sprintf(`{"scenario":{"devices":[{"count":1}]},"partition":"%s"}`,
		strings.Repeat("x", 96<<10))
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		code   string
	}{
		{"bad json", "POST", "/v1/jobs", `{`, 400, CodeBadJSON},
		{"empty body", "POST", "/v1/jobs", ``, 400, CodeBadJSON},
		{"non-object body", "POST", "/v1/jobs", `[1,2,3]`, 400, CodeBadJSON},
		{"trailing data", "POST", "/v1/jobs", `{"scenario":{"devices":[{"count":1}]}} extra`, 400, CodeBadJSON},
		{"unknown envelope field", "POST", "/v1/jobs", `{"scenario":{"devices":[{"count":1}]},"bogus":1}`, 400, CodeUnknownField},
		{"missing scenario", "POST", "/v1/jobs", `{"seed":1}`, 400, CodeBadRequest},
		{"empty device list", "POST", "/v1/jobs", `{"scenario":{"devices":[]}}`, 400, CodeBadScenario},
		{"unknown scenario field", "POST", "/v1/jobs", `{"scenario":{"devices":[{"count":1}],"unknown_field":1}}`, 400, CodeBadScenario},
		{"malformed partition", "POST", "/v1/jobs", `{"scenario":{"devices":[{"count":1}]},"partition":"2-8"}`, 400, CodeBadPartition},
		{"partition out of range", "POST", "/v1/jobs", `{"scenario":{"devices":[{"count":1}]},"partition":"3/2"}`, 400, CodeBadPartition},
		{"negative workers", "POST", "/v1/jobs", `{"scenario":{"devices":[{"count":1}]},"workers":-1}`, 400, CodeBadRequest},
		{"negative devices", "POST", "/v1/jobs", `{"scenario":{"devices":[{"count":1}]},"devices":-4}`, 400, CodeBadRequest},
		{"oversized body", "POST", "/v1/jobs", oversized, 413, CodeBodyTooLarge},
		{"unknown job status", "GET", "/v1/jobs/j999999", ``, 404, CodeJobNotFound},
		{"unknown job cancel", "DELETE", "/v1/jobs/j999999", ``, 404, CodeJobNotFound},
		{"unknown job rows", "GET", "/v1/jobs/j999999/rows", ``, 404, CodeJobNotFound},
		{"unknown job events", "GET", "/v1/jobs/j999999/events", ``, 404, CodeJobNotFound},
		{"unknown job report", "GET", "/v1/jobs/j999999/report", ``, 404, CodeJobNotFound},
		{"merge bad json", "POST", "/v1/merge", `[`, 400, CodeBadJSON},
		{"merge unknown field", "POST", "/v1/merge", `{"jobs":[],"bogus":1}`, 400, CodeUnknownField},
		{"merge empty set", "POST", "/v1/merge", `{"jobs":[]}`, 400, CodeBadRequest},
		{"merge unknown job", "POST", "/v1/merge", `{"jobs":["j999999"]}`, 404, CodeJobNotFound},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var body []byte
			if tc.body != "" {
				body = []byte(tc.body)
			}
			status, data := apiCall(t, ts, tc.method, tc.path, body)
			if status != tc.status {
				t.Fatalf("status %d, want %d (body %s)", status, tc.status, data)
			}
			eb := decodeErr(t, data)
			if eb.Code != tc.code {
				t.Errorf("code %q, want %q (%s)", eb.Code, tc.code, eb.Error)
			}
			if eb.Error == "" {
				t.Error("error response has no message")
			}
		})
	}
}

// TestCancelLifecycleConflicts: cancelling a finished job, cancelling
// twice, merging an unfinished job, and reading an absent report each
// return their typed conflict.
func TestCancelLifecycleConflicts(t *testing.T) {
	base := writeFixtures(t)
	srv, ts := startServer(t, t.TempDir(), Config{BaseDir: base, Pool: 1})

	// A small job runs to done; cancelling it then is a conflict.
	done := postJob(t, ts, jobBody(t, scenarioDoc, map[string]any{"seed": 1, "devices": 3}))
	if st := waitTerminal(t, ts, done.ID); st != StateDone {
		t.Fatalf("small job finished %s, want done", st)
	}
	status, data := apiCall(t, ts, http.MethodDelete, "/v1/jobs/"+done.ID, nil)
	if eb := decodeErr(t, data); status != http.StatusConflict || eb.Code != CodeJobFinished {
		t.Fatalf("cancel after done: %d %q, want 409 %q", status, eb.Code, CodeJobFinished)
	}

	// A long single-worker job exercises the real cancel path: DELETE
	// while it runs, then watch it reach cancelled at its frontier.
	// The gate holds it at device 64 until the cancel.
	gateJobs(t, srv, 64)
	long := postJob(t, ts, jobBody(t, scenarioDoc, map[string]any{
		"seed": 2, "devices": 3000, "workers": 1, "chunk_size": 64,
	}))
	waitRows(t, srv, ts, long.ID, 64)

	// No report exists before the job is done.
	status, data = apiCall(t, ts, http.MethodGet, "/v1/jobs/"+long.ID+"/report", nil)
	if eb := decodeErr(t, data); status != http.StatusConflict || eb.Code != CodeJobNotFinished {
		t.Fatalf("report of a running job: %d %q, want 409 %q", status, eb.Code, CodeJobNotFinished)
	}

	status, data = apiCall(t, ts, http.MethodDelete, "/v1/jobs/"+long.ID, nil)
	if status != http.StatusOK {
		t.Fatalf("cancel running job: %d %s", status, data)
	}
	if st := waitTerminal(t, ts, long.ID); st != StateCancelled {
		t.Fatalf("cancelled job finished %s, want cancelled", st)
	}
	status, data = apiCall(t, ts, http.MethodDelete, "/v1/jobs/"+long.ID, nil)
	if eb := decodeErr(t, data); status != http.StatusConflict || eb.Code != CodeJobFinished {
		t.Fatalf("cancel after cancelled: %d %q, want 409 %q", status, eb.Code, CodeJobFinished)
	}

	// Double cancel: a real run unwinds to cancelled in milliseconds,
	// so the cancelling window is staged — a running job whose cancel
	// hook never finishes — making the second DELETE deterministic.
	stuck := newJob("j900001", t.TempDir(), jobMeta{ID: "j900001", Kind: kindSweep, State: StateRunning})
	stuck.cancel = func() {}
	srv.mu.Lock()
	srv.jobs[stuck.id] = stuck
	srv.mu.Unlock()
	status, data = apiCall(t, ts, http.MethodDelete, "/v1/jobs/"+stuck.id, nil)
	if status != http.StatusOK {
		t.Fatalf("cancel staged running job: %d %s", status, data)
	}
	var js JobStatus
	if err := json.Unmarshal(data, &js); err != nil || js.State != StateCancelling {
		t.Fatalf("first cancel left state %q (%v), want cancelling", js.State, err)
	}
	status, data = apiCall(t, ts, http.MethodDelete, "/v1/jobs/"+stuck.id, nil)
	if eb := decodeErr(t, data); status != http.StatusConflict || eb.Code != CodeCancelPending {
		t.Fatalf("double cancel: %d %q, want 409 %q", status, eb.Code, CodeCancelPending)
	}

	// A cancelled job is not mergeable.
	status, data = apiCall(t, ts, http.MethodPost, "/v1/merge",
		[]byte(fmt.Sprintf(`{"jobs":["%s"]}`, long.ID)))
	if eb := decodeErr(t, data); status != http.StatusConflict || eb.Code != CodeJobNotFinished {
		t.Fatalf("merge of a cancelled job: %d %q, want 409 %q", status, eb.Code, CodeJobNotFinished)
	}
}

// TestDrainingResponses: a draining daemon refuses new work with the
// typed code and reports it on /healthz, while reads keep working.
func TestDrainingResponses(t *testing.T) {
	base := writeFixtures(t)
	srv, ts := startServer(t, t.TempDir(), Config{BaseDir: base})
	srv.Drain()

	status, data := apiCall(t, ts, http.MethodPost, "/v1/jobs", fmtJob(t, `"seed":1`))
	if eb := decodeErr(t, data); status != http.StatusServiceUnavailable || eb.Code != CodeDraining {
		t.Fatalf("submit while draining: %d %q, want 503 %q", status, eb.Code, CodeDraining)
	}
	status, data = apiCall(t, ts, http.MethodPost, "/v1/merge", []byte(`{"jobs":["j000001"]}`))
	if eb := decodeErr(t, data); status != http.StatusServiceUnavailable || eb.Code != CodeDraining {
		t.Fatalf("merge while draining: %d %q, want 503 %q", status, eb.Code, CodeDraining)
	}
	status, data = apiCall(t, ts, http.MethodGet, "/healthz", nil)
	if status != http.StatusOK || !strings.Contains(string(data), "draining") {
		t.Fatalf("healthz while draining: %d %s", status, data)
	}
	if status, _ = apiCall(t, ts, http.MethodGet, "/v1/jobs", nil); status != http.StatusOK {
		t.Fatalf("job list while draining: %d", status)
	}
}

// FuzzJobRequest fuzzes the full POST /v1/jobs validation path,
// seeded from the scenario-schema fuzz corpus wrapped in envelopes.
// decodeJobRequest must never panic, must classify every rejection
// with a 4xx status and a non-internal code, and must only accept
// envelopes whose scenario and knobs independently re-validate.
func FuzzJobRequest(f *testing.F) {
	scenarios := []string{
		`{"devices":[{"count":2,"engine":"sonic"}]}`,
		`{"seed":7,"devices":[{"count":1,"engine":"ace","cap_uF":100,
		"profile":{"kind":"sine","power_W":0.005,"period_s":0.1}}]}`,
		`{"devices":[]}`,
		`{"unknown_field":1}`,
		`{"devices":[{"count":2}]} trailing`,
		`[1,2,3]`,
		`{`,
		``,
	}
	for _, doc := range scenarios {
		f.Add(fmt.Sprintf(`{"scenario":%s}`, doc))
		f.Add(fmt.Sprintf(`{"scenario":%s,"seed":7,"partition":"0/2","workers":4}`, doc))
	}
	f.Add(`{"scenario":{"devices":[{"count":1}]},"bogus":true}`)
	f.Add(`{"scenario":{"devices":[{"count":1}]},"partition":"9/2"}`)
	f.Add(`{"scenario":{"devices":[{"count":1}]},"chunk_size":-1}`)
	f.Add(`{"seed":1}`)
	f.Add(`null`)

	f.Fuzz(func(t *testing.T, body string) {
		req, e := decodeJobRequest([]byte(body))
		if e != nil {
			if e.status < 400 || e.status > 499 {
				t.Fatalf("rejection status %d for %q, want 4xx", e.status, body)
			}
			switch e.code {
			case CodeBadJSON, CodeUnknownField, CodeBadRequest, CodeBadScenario, CodeBadPartition:
			default:
				t.Fatalf("rejection code %q for %q is not a validation code", e.code, body)
			}
			if e.msg == "" {
				t.Fatalf("empty rejection message for %q", body)
			}
			return
		}
		// Accepted: everything the daemon later relies on must hold.
		if _, err := cli.DecodeScenarioFile(bytes.NewReader(req.Scenario)); err != nil {
			t.Fatalf("accepted envelope with unloadable scenario: %v (%q)", err, body)
		}
		if _, err := fleet.ParsePartition(req.Partition); err != nil {
			t.Fatalf("accepted envelope with bad partition: %v (%q)", err, body)
		}
		if req.Devices < 0 || req.Workers < 0 || req.ChunkSize < 0 || req.CheckpointEvery < 0 {
			t.Fatalf("accepted envelope with negative knobs: %+v (%q)", req, body)
		}
	})
}
