package fleetd

// Job model and persistence. Every job owns one directory under the
// server's data dir holding the submitted scenario document byte for
// byte, a small atomically-rewritten metadata file, and the run's
// durable output — the NDJSON row file and the checkpoint. The output
// deliberately uses the fleet package's shard layout (fleet.ShardDir):
// a completed partitioned job's directory IS a valid shard artifact,
// so the merge endpoint feeds job directories straight into
// fleet.MergeDir.

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"ehdl/internal/cli"
	"ehdl/internal/fleet"
)

// State is a job's lifecycle state.
type State string

const (
	// StateQueued: accepted, waiting for a run slot (also the state a
	// drained or crashed daemon persists for in-flight jobs, so the
	// next process resumes them from their checkpoints).
	StateQueued State = "queued"
	// StateRunning: simulating on the shared worker pool.
	StateRunning State = "running"
	// StateCancelling: cancel requested, waiting for the run to stop
	// at its commit frontier.
	StateCancelling State = "cancelling"
	// StateDone, StateFailed, StateCancelled: terminal.
	StateDone      State = "done"
	StateFailed    State = "failed"
	StateCancelled State = "cancelled"
)

// Terminal reports whether the state is final.
func (s State) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// Job kinds.
const (
	kindSweep = "sweep" // a submitted scenario run
	kindMerge = "merge" // a server-side shard merge
)

// Job directory files (rows and checkpoint use the fleet shard names).
const (
	scenarioFile = "scenario.json"
	metaFile     = "job.json"
)

// jobMeta is the persisted job record (everything a restarted daemon
// needs to resume or report the job).
type jobMeta struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State State  `json:"state"`

	// Request knobs, as submitted.
	Seed            int64  `json:"seed"`
	Devices         int    `json:"devices,omitempty"` // requested resize (0: declared size)
	Workers         int    `json:"workers,omitempty"`
	ChunkSize       int    `json:"chunk_size,omitempty"`
	Partition       string `json:"partition,omitempty"`
	Memo            *bool  `json:"memo,omitempty"`
	CheckpointEvery int    `json:"checkpoint_every,omitempty"`

	// Resolved at run time.
	Fleet       int    `json:"fleet,omitempty"` // full fleet size across shards
	Start       int    `json:"start,omitempty"` // partition range [Start, End)
	End         int    `json:"end,omitempty"`
	Resumed     int    `json:"resumed,omitempty"` // rows restored from the checkpoint at the last (re)start
	Fingerprint string `json:"fingerprint,omitempty"`

	// Terminal results.
	Error  string   `json:"error,omitempty"`
	Report string   `json:"report,omitempty"` // rendered aggregate report
	Rows   int      `json:"rows,omitempty"`   // rows in the row file on completion
	Merged []string `json:"merged,omitempty"` // source job IDs (merge jobs)
}

// Event is one entry on a job's event stream: a state transition or a
// progress tick, serialized as NDJSON by GET /v1/jobs/{id}/events.
type Event struct {
	Type     string             `json:"type"` // "state" | "progress"
	State    State              `json:"state,omitempty"`
	Error    string             `json:"error,omitempty"`
	Progress *cli.ProgressEvent `json:"progress,omitempty"`
}

// eventCap bounds a job's retained event history; older progress
// ticks fall off the front (subscribers that far behind resync from
// the trimmed history — state transitions still reach them because
// terminal states persist in the job meta).
const eventCap = 1024

// Job is one tracked job: the persisted meta plus the live run state.
type Job struct {
	id  string
	dir string

	mu         sync.Mutex
	meta       jobMeta
	events     []Event
	eventBase  int    // absolute index of events[0]
	anyChange  signal // bumped on every committed chunk, event and state change
	eventAdded signal // bumped on every event, state changes included
	rows       int    // rows delivered this process (live metric)
	run        *fleet.DurableRun
	cancel     context.CancelFunc
	userCancel bool
}

func newJob(id, dir string, meta jobMeta) *Job {
	return &Job{id: id, dir: dir, meta: meta}
}

func (j *Job) rowsPath() string     { return fleet.ShardDir(j.dir).Rows }
func (j *Job) scenarioPath() string { return filepath.Join(j.dir, scenarioFile) }

// signal is a broadcast: bump closes the channel its waiters took. A
// bump with no waiter since the last one costs a nil check and makes
// no channel. The zero value is ready; the job's mutex guards it.
type signal struct {
	ch chan struct{}
}

// wait returns a channel closed at the next bump.
func (s *signal) wait() <-chan struct{} {
	if s.ch == nil {
		s.ch = make(chan struct{})
	}
	return s.ch
}

// bump wakes every waiter.
func (s *signal) bump() {
	if s.ch != nil {
		close(s.ch)
		s.ch = nil
	}
}

// changed returns a channel closed at the next state/event/row change.
func (j *Job) changed() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.anyChange.wait()
}

// eventsChanged returns a channel closed at the next event, state
// changes included; rows do not wake it.
func (j *Job) eventsChanged() <-chan struct{} {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.eventAdded.wait()
}

// addEvent appends to the bounded event history and wakes waiters.
func (j *Job) addEvent(ev Event) {
	j.mu.Lock()
	j.appendEventLocked(ev)
	j.mu.Unlock()
}

// appendEventLocked is addEvent under an already-held j.mu.
func (j *Job) appendEventLocked(ev Event) {
	j.events = append(j.events, ev)
	if over := len(j.events) - eventCap; over > 0 {
		j.events = j.events[over:]
		j.eventBase += over
	}
	j.eventAdded.bump()
	j.anyChange.bump()
}

// eventsSince copies history from absolute index cursor on, returning
// the batch, the next cursor, and whether the job is terminal.
func (j *Job) eventsSince(cursor int) ([]Event, int, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if cursor < j.eventBase {
		cursor = j.eventBase
	}
	batch := append([]Event(nil), j.events[cursor-j.eventBase:]...)
	return batch, cursor + len(batch), j.meta.State.Terminal()
}

// setState transitions the job, emits a state event, and persists the
// meta — all under the job lock, so concurrent transitions (a cancel
// racing the run's own completion) serialize and the metadata file is
// never rewritten by two goroutines at once. mutate, when non-nil,
// edits the meta first.
func (j *Job) setState(st State, mutate func(*jobMeta)) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if mutate != nil {
		mutate(&j.meta)
	}
	j.meta.State = st
	j.appendEventLocked(Event{Type: "state", State: st, Error: j.meta.Error})
	return writeJobMeta(j.dir, j.meta)
}

// snapshot returns a copy of the persisted meta plus the live
// delivered-row count.
func (j *Job) snapshot() (jobMeta, int) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.meta, j.rows
}

// flushRows forces delivered rows to the row file so a streaming
// reader sees them; a job whose run has not opened, or has already
// closed, has nothing buffered.
func (j *Job) flushRows() error {
	j.mu.Lock()
	run := j.run
	j.mu.Unlock()
	if run == nil {
		return nil
	}
	return run.Flush()
}

// writeJobMeta atomically rewrites the job's metadata file.
func writeJobMeta(dir string, meta jobMeta) error {
	data, err := json.MarshalIndent(meta, "", "  ")
	if err != nil {
		return fmt.Errorf("fleetd: encode job meta: %w", err)
	}
	data = append(data, '\n')
	tmp := filepath.Join(dir, metaFile+".tmp")
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return fmt.Errorf("fleetd: write job meta: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, metaFile)); err != nil {
		return fmt.Errorf("fleetd: write job meta: %w", err)
	}
	return nil
}

// readJobMeta loads a job directory's metadata file.
func readJobMeta(dir string) (jobMeta, error) {
	var meta jobMeta
	data, err := os.ReadFile(filepath.Join(dir, metaFile))
	if err != nil {
		return meta, fmt.Errorf("fleetd: read job meta: %w", err)
	}
	if err := json.Unmarshal(data, &meta); err != nil {
		return meta, fmt.Errorf("fleetd: decode job meta in %s: %w", dir, err)
	}
	return meta, nil
}
