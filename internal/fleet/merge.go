package fleet

// Merging shard artifacts back into the single-process result. A
// shard directory (ShardDir) is the self-describing output of one
// partitioned DurableRun: the final checkpoint (ShardMetaFile,
// Rows == End) next to the shard's ordered NDJSON rows
// (ShardRowsFile). MergeDir folds k of them into the report a
// single-process run over the whole fleet would have produced —
// bit-identically, because the aggregator is a function of the
// observed multiset alone — and concatenates the row files in device
// order into the byte-identical whole-fleet NDJSON file. Shards from
// different runs (fingerprint, fleet size or threshold drift),
// incomplete shards, and sets that do not tile the fleet exactly are
// rejected with typed errors before any output is created.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
)

// Shard directory layout: the meta/checkpoint artifact and the
// NDJSON row file a partitioned run writes.
const (
	ShardMetaFile = "shard.ehdl"
	ShardRowsFile = "rows.ndjson"
)

// Typed shard-merge failures.
var (
	// ErrShardMismatch: the shards do not come from the same run —
	// different scenario/config fingerprints, fleet sizes or
	// aggregator thresholds.
	ErrShardMismatch = errors.New("shard artifacts do not belong to the same run")
	// ErrShardIncomplete: a shard's commit frontier stops short of its
	// range — the run that wrote it was interrupted (resume it first).
	ErrShardIncomplete = errors.New("shard artifact is incomplete")
	// ErrShardLayout: the shard set does not tile the fleet exactly
	// (missing, duplicated or overlapping device ranges).
	ErrShardLayout = errors.New("shard set does not cover the fleet exactly")
	// ErrShardRows: a shard's row file disagrees with its meta (wrong
	// row count or a torn final line).
	ErrShardRows = errors.New("shard row file does not match its meta")
)

// LoadShard reads and verifies one shard directory's meta artifact.
func LoadShard(dir string) (*CheckpointState, error) {
	st, err := LoadCheckpoint(filepath.Join(dir, ShardMetaFile))
	if err != nil {
		return nil, err
	}
	if st.Rows != st.End {
		return nil, fmt.Errorf("%s: %w: committed %d of %d rows (resume it with the same -shard/-checkpoint setup)",
			dir, ErrShardIncomplete, st.Rows-st.Start, st.End-st.Start)
	}
	return st, nil
}

// MergeDir folds the shard directories into the whole-fleet report
// and writes the concatenated NDJSON rows (in global device order) to
// ShardDir(out).Rows, creating out if needed. The shard set must tile
// [0, fleet size) exactly; any grouping that does — the usual i/N
// split, or shards from different N as long as the ranges fit — is
// accepted, everything else rejected with a typed error before the
// row file is created. The merged report is bit-identical to a
// single-process run's (host time aside, read from clock; nil:
// SystemClock).
func MergeDir(out string, dirs []string, clock Clock) (Report, error) {
	clock = orClock(clock)
	start := clock.Now()
	if len(dirs) == 0 {
		return Report{}, fmt.Errorf("fleet: no shard directories to merge")
	}
	type shard struct {
		dir string
		st  *CheckpointState
	}
	shards := make([]shard, 0, len(dirs))
	for _, dir := range dirs {
		st, err := LoadShard(dir)
		if err != nil {
			return Report{}, err
		}
		shards = append(shards, shard{dir: dir, st: st})
	}
	first := shards[0]
	for _, s := range shards[1:] {
		switch {
		case s.st.Fingerprint != first.st.Fingerprint:
			return Report{}, fmt.Errorf("%w: %s and %s were produced by different scenario/config setups",
				ErrShardMismatch, first.dir, s.dir)
		case s.st.Devices != first.st.Devices:
			return Report{}, fmt.Errorf("%w: %s is from a %d-device fleet, %s from %d",
				ErrShardMismatch, first.dir, first.st.Devices, s.dir, s.st.Devices)
		case s.st.Threshold != first.st.Threshold:
			return Report{}, fmt.Errorf("%w: %s uses exact-percentile threshold %d, %s uses %d",
				ErrShardMismatch, first.dir, first.st.Threshold, s.dir, s.st.Threshold)
		}
	}
	sort.Slice(shards, func(i, j int) bool { return shards[i].st.Start < shards[j].st.Start })
	next := 0
	for _, s := range shards {
		if s.st.Start != next {
			return Report{}, fmt.Errorf("%w: device range [%d, %d) is %s, want a shard starting at %d",
				ErrShardLayout, s.st.Start, s.st.End, coverage(s.st.Start, next), next)
		}
		next = s.st.End
	}
	if next != first.st.Devices {
		return Report{}, fmt.Errorf("%w: shards cover [0, %d) of %d devices",
			ErrShardLayout, next, first.st.Devices)
	}

	agg := NewAgg(first.st.Threshold)
	for _, s := range shards {
		a, err := RestoreAgg(s.st.AggSnap)
		if err != nil {
			return Report{}, fmt.Errorf("%s: %w", s.dir, err)
		}
		agg.Merge(a)
	}
	if err := os.MkdirAll(out, 0o755); err != nil {
		return Report{}, fmt.Errorf("fleet: %w", err)
	}
	path := filepath.Join(out, ShardRowsFile)
	f, err := os.Create(path)
	if err != nil {
		return Report{}, fmt.Errorf("fleet: %w", err)
	}
	defer f.Close()
	for _, s := range shards {
		// copyShardRows already copies in 1 MiB blocks: f needs no buffer.
		if err := copyShardRows(f, s.dir, s.st.End-s.st.Start); err != nil {
			return Report{}, err
		}
	}
	if err := f.Close(); err != nil {
		return Report{}, fmt.Errorf("fleet: writing %s: %w", path, err)
	}
	rep := agg.Report()
	rep.HostSeconds = clock.Now().Sub(start).Seconds()
	return rep, nil
}

// coverage labels a tiling failure: a gap (next < start) or an
// overlap/duplicate (next > start).
func coverage(start, next int) string {
	if next < start {
		return "missing"
	}
	return "covered twice"
}

// copyShardRows streams one shard's row file into w, verifying it
// holds exactly want newline-terminated rows.
func copyShardRows(w io.Writer, dir string, want int) error {
	path := filepath.Join(dir, ShardRowsFile)
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("fleet: %w", err)
	}
	defer f.Close()
	var lines int
	lastNewline := true
	buf := make([]byte, 1<<20)
	for {
		n, err := f.Read(buf)
		if n > 0 {
			lines += bytes.Count(buf[:n], []byte{'\n'})
			lastNewline = buf[n-1] == '\n'
			if _, werr := w.Write(buf[:n]); werr != nil {
				return fmt.Errorf("fleet: merging %s: %w", path, werr)
			}
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return fmt.Errorf("fleet: %s: %w", path, err)
		}
	}
	if lines != want || !lastNewline {
		return fmt.Errorf("%s: %w: %d complete rows, meta declares %d", path, ErrShardRows, lines, want)
	}
	return nil
}
