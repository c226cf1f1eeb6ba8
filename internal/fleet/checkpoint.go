package fleet

// Checkpointing and range partitioning for streaming fleet runs.
//
// A checkpoint is the consistent triple RunStream maintains as its
// commit frontier advances: the number of rows committed (contiguous
// from the partition start), the aggregator snapshot over exactly
// those rows, and the run's identity (fleet size, partition, exact
// threshold, and a caller-supplied scenario/config fingerprint).
// Checkpoints are written through internal/artifact — checksummed,
// versioned, temp-file + atomic rename — so a crash mid-write leaves
// the previous checkpoint intact, never a torn one. A DurableRun
// (run.go) is the one way to write and resume them.
//
// The same container doubles as the shard artifact of a partitioned
// run: a shard directory (ShardDir) holds the final checkpoint
// (Rows == End) under ShardMetaFile next to its NDJSON row file, and
// MergeDir folds a set of them back into the single-process report
// and row stream (see merge.go).

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"ehdl/internal/artifact"
)

// Partition restricts a run to one contiguous device range of the
// fleet: shard Index of Of equal splits. The zero value means "the
// whole fleet" (one shard of one). Global device indices are
// preserved — shard i of a scenario file simulates exactly the rows a
// single-process run would produce for its range, so k shards
// concatenate back bit-identically.
type Partition struct {
	Index, Of int
}

// norm maps the zero value to the whole-fleet partition.
func (p Partition) norm() Partition {
	if p.Of == 0 && p.Index == 0 {
		return Partition{Index: 0, Of: 1}
	}
	return p
}

// validate rejects malformed partitions.
func (p Partition) validate() error {
	p = p.norm()
	if p.Of < 1 || p.Index < 0 || p.Index >= p.Of {
		return fmt.Errorf("fleet: invalid partition %d/%d (want 0 <= index < of)", p.Index, p.Of)
	}
	return nil
}

// ParsePartition parses an "i/N" shard spec ("" is the whole fleet).
func ParsePartition(s string) (Partition, error) {
	var p Partition
	if s == "" {
		return p, nil
	}
	a, b, ok := strings.Cut(s, "/")
	if ok {
		var err1, err2 error
		p.Index, err1 = strconv.Atoi(a)
		p.Of, err2 = strconv.Atoi(b)
		ok = err1 == nil && err2 == nil
	}
	if !ok {
		return p, fmt.Errorf("partition must be i/N (e.g. 2/8), got %q", s)
	}
	if p.Of < 1 || p.Index < 0 || p.Index >= p.Of {
		return p, fmt.Errorf("partition %s out of range (want 0 <= i < N)", s)
	}
	return p, nil
}

// Range returns the partition's half-open global device range for a
// fleet of n devices: equal splits with the remainder spread over the
// leading shards, covering [0, n) exactly across all Of shards.
func (p Partition) Range(n int) (start, end int) {
	p = p.norm()
	return p.Index * n / p.Of, (p.Index + 1) * n / p.Of
}

// DefaultCheckpointEvery is the default row interval between
// checkpoint writes. At typical simulation rates (hundreds to
// thousands of devices per second per core) this bounds lost work to
// well under a minute while keeping the write itself invisible next
// to simulation time.
const DefaultCheckpointEvery = 100_000

// checkpointing is what RunStream needs to persist a durable run's
// commit frontier: where, how often, under which identity, and the
// loaded checkpoint to continue from (nil: a fresh start).
type checkpointing struct {
	path        string
	every       int
	fingerprint string
	resume      *CheckpointState
}

// checkpointKind is the artifact-container kind of checkpoint and
// shard-meta files.
const checkpointKind = "fleet.Checkpoint"

// checkpointVersion is the payload schema version inside the
// container.
const checkpointVersion = 1

// Typed checkpoint failures.
var (
	// ErrCheckpointMismatch: the checkpoint belongs to a different run
	// (fingerprint, fleet size, partition or percentile threshold
	// differ) — resuming it would silently corrupt the output.
	ErrCheckpointMismatch = errors.New("checkpoint does not match this run")
	// ErrCheckpointVersion: the checkpoint was written by an
	// incompatible version of this package.
	ErrCheckpointVersion = errors.New("incompatible checkpoint version")
)

// CheckpointState is a loaded checkpoint: the resumable state of a
// (possibly partitioned) streaming run. Rows [Start, Rows) are
// committed — aggregated into AggSnap and delivered to the sink — and
// a resumed run continues at Rows. A completed run or shard has
// Rows == End.
type CheckpointState struct {
	Version     int
	Fingerprint string
	// Devices is the full fleet size (src.Len()), across all shards.
	Devices int
	// Part is the partition this state belongs to; Start/End its
	// global device range.
	Part       Partition
	Start, End int
	// Rows is the commit frontier: global row indices [Start, Rows)
	// are aggregated and delivered.
	Rows int
	// Threshold is the resolved exact-percentile threshold the
	// aggregator ran with.
	Threshold int
	// AggSnap is the Agg.Snapshot over exactly rows [Start, Rows).
	AggSnap []byte
}

// write atomically persists the state (checksummed container, temp
// file + rename).
func (st *CheckpointState) write(path string) error {
	return artifact.WriteFile(path, checkpointKind, st)
}

// LoadCheckpoint reads and verifies the checkpoint (or shard meta)
// at path. Container-level corruption surfaces as the artifact
// package's typed errors; version drift as ErrCheckpointVersion.
func LoadCheckpoint(path string) (*CheckpointState, error) {
	var st CheckpointState
	if err := artifact.ReadFile(path, checkpointKind, &st); err != nil {
		return nil, err
	}
	if st.Version != checkpointVersion {
		return nil, fmt.Errorf("%s: %w: file has v%d, this build reads v%d",
			path, ErrCheckpointVersion, st.Version, checkpointVersion)
	}
	if st.Rows < st.Start || st.Rows > st.End || st.Start < 0 || st.End > st.Devices {
		return nil, fmt.Errorf("%s: %w: frontier %d outside range [%d, %d] of %d devices",
			path, ErrCheckpointVersion, st.Rows, st.Start, st.End, st.Devices)
	}
	return &st, nil
}

// compatible verifies the state matches the run being resumed.
func (st *CheckpointState) compatible(fingerprint string, n int, part Partition, threshold int) error {
	part = part.norm()
	start, end := part.Range(n)
	switch {
	case st.Fingerprint != fingerprint:
		return fmt.Errorf("%w: checkpoint fingerprint %.12s.. vs run %.12s..",
			ErrCheckpointMismatch, st.Fingerprint, fingerprint)
	case st.Devices != n:
		return fmt.Errorf("%w: checkpoint is for %d devices, run has %d",
			ErrCheckpointMismatch, st.Devices, n)
	case st.Part.norm() != part:
		return fmt.Errorf("%w: checkpoint is for shard %d/%d, run is %d/%d",
			ErrCheckpointMismatch, st.Part.norm().Index, st.Part.norm().Of, part.Index, part.Of)
	case st.Start != start || st.End != end:
		return fmt.Errorf("%w: checkpoint range [%d, %d) vs run [%d, %d)",
			ErrCheckpointMismatch, st.Start, st.End, start, end)
	case st.Threshold != threshold:
		return fmt.Errorf("%w: checkpoint exact-percentile threshold %d, run uses %d",
			ErrCheckpointMismatch, st.Threshold, threshold)
	}
	return nil
}
