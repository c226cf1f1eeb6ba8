package fleet

// Durable runs: the one way a streaming run's output reaches disk.
// Resuming one is the whole host-side checkpoint/restore sequence —
// load the checkpoint, truncate the row file back to its frontier,
// continue the run from there — shared by the CLI's -resume and shard
// directories and by the fleet service's restarted jobs.

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
)

// Output names where a durable run writes and how it checkpoints.
type Output struct {
	// Rows is the NDJSON row file ("" = none).
	Rows string
	// Checkpoint is the checkpoint file, rewritten atomically as the
	// commit frontier advances and on completion ("" = not resumable).
	Checkpoint string
	// Every is the minimum number of committed rows between checkpoint
	// writes (<= 0: DefaultCheckpointEvery).
	Every int
	// Fingerprint identifies the run's scenario/config; a resume whose
	// fingerprint differs from the checkpoint's fails with
	// ErrCheckpointMismatch. cli.FleetFingerprint builds it.
	Fingerprint string
	// TagMemo is NDJSONSink.TagMemo for the row file.
	TagMemo bool
}

// ShardDir is the shard-artifact layout of dir: ShardRowsFile next to
// ShardMetaFile, the checkpoint that MergeDir reads as shard meta.
func ShardDir(dir string) Output {
	return Output{Rows: filepath.Join(dir, ShardRowsFile), Checkpoint: filepath.Join(dir, ShardMetaFile)}
}

// DurableRun is an opened Output; Stream it once. Flush and Close are
// safe from any goroutine before, during and after the run.
type DurableRun struct {
	out   Output
	state *CheckpointState // the checkpoint being resumed; nil: fresh
	file  *NDJSONFile      // nil without a row file
}

// OpenRun opens out's files. With resume set, a checkpoint already at
// out.Checkpoint is loaded (none yet: a fresh start) and the row file
// truncated back to its frontier (ErrResumeRows if it holds fewer
// rows); otherwise the row file is created empty. Stream checks that
// the checkpoint matches the run.
func OpenRun(out Output, resume bool) (*DurableRun, error) {
	r := &DurableRun{out: out}
	if resume && out.Checkpoint != "" {
		st, err := LoadCheckpoint(out.Checkpoint)
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return nil, err
		}
		r.state = st
	}
	if out.Rows == "" {
		return r, nil
	}
	var err error
	if st := r.state; st != nil {
		r.file, err = resumeNDJSONFile(out.Rows, st.Rows-st.Start, st.Rows)
	} else {
		r.file, err = NewNDJSONFile(out.Rows, 0) // Stream sets the first index
	}
	if err != nil {
		return nil, err
	}
	r.file.TagMemo = out.TagMemo
	return r, nil
}

// Resumed reports whether OpenRun loaded a checkpoint and how many
// rows it restores (partition-relative).
func (r *DurableRun) Resumed() (rows int, ok bool) {
	if r.state == nil {
		return 0, false
	}
	return r.state.Rows - r.state.Start, true
}

// Stream runs RunStream over src with the row file attached ahead of
// opts.Sink, checkpointing to out.Checkpoint and continuing from the
// loaded checkpoint, then closes the row file. The first error wins.
func (r *DurableRun) Stream(src Source, opts StreamOptions) (Report, error) {
	rep, err := r.stream(src, opts)
	if cerr := r.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("fleet: close %s: %w", r.out.Rows, cerr)
	}
	return rep, err
}

func (r *DurableRun) stream(src Source, opts StreamOptions) (Report, error) {
	if r.file != nil {
		if r.state == nil {
			if err := opts.Partition.validate(); err != nil {
				return Report{}, err
			}
			r.file.sink.next, _ = opts.Partition.Range(src.Len())
		}
		if opts.Sink != nil {
			opts.Sink = MultiSink(r.file, opts.Sink)
		} else {
			opts.Sink = r.file
		}
	}
	var ck *checkpointing
	if r.out.Checkpoint != "" {
		ck = &checkpointing{path: r.out.Checkpoint, every: r.out.Every, fingerprint: r.out.Fingerprint, resume: r.state}
		if ck.every <= 0 {
			ck.every = DefaultCheckpointEvery
		}
	}
	return runStream(src, opts, ck)
}

// Flush forces delivered rows to the row file and stable storage (see
// Flusher). Without a row file, or once the run is closed, it is a
// no-op, so a reader following the file may call it at any time.
func (r *DurableRun) Flush() error {
	if r.file == nil {
		return nil
	}
	return r.file.Flush()
}

// Close closes the row file; only a run abandoned before Stream needs
// it.
func (r *DurableRun) Close() error {
	if r.file == nil {
		return nil
	}
	return r.file.Close()
}
