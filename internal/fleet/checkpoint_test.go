package fleet

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestAggSnapshotRoundTrip: restore(snapshot(a)).Report() must equal
// a.Report() bit-for-bit across sizes and thresholds (exact, spilled,
// boundary, empty), and the restored aggregator must keep observing
// identically to the original.
func TestAggSnapshotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name      string
		n         int
		threshold int
	}{
		{"empty", 0, 64},
		{"single", 1, 64},
		{"exact", 60, 1000},
		{"spilled", 300, 64},
		{"boundary", 64, 64},
		{"tiny-threshold", 200, 1},
	} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", tc.name, seed), func(t *testing.T) {
				results := syntheticResults(tc.n, seed)
				a := NewAgg(tc.threshold)
				for _, r := range results {
					a.Observe(r)
				}
				snap, err := a.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				b, err := RestoreAgg(snap)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a.Report(), b.Report()) {
					t.Fatalf("restored report differs:\n%+v\nvs\n%+v", a.Report(), b.Report())
				}
				// The restored aggregator must keep accumulating exactly
				// like the original — including crossing the spill
				// threshold after restore.
				extra := syntheticResults(tc.threshold, seed+100)
				for _, r := range extra {
					a.Observe(r)
					b.Observe(r)
				}
				if !reflect.DeepEqual(a.Report(), b.Report()) {
					t.Fatalf("post-restore observations diverged")
				}
			})
		}
	}
}

// TestAggSnapshotOrderIndependent: snapshots of aggregators that saw
// the same multiset in different orders restore to equivalent state —
// they merge and report identically.
func TestAggSnapshotOrderIndependent(t *testing.T) {
	results := syntheticResults(120, 9)
	fwd, rev := NewAgg(50), NewAgg(50)
	for i := range results {
		fwd.Observe(results[i])
		rev.Observe(results[len(results)-1-i])
	}
	sf, err := fwd.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := rev.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	af, err := RestoreAgg(sf)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := RestoreAgg(sr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(af.Report(), ar.Report()) {
		t.Fatal("observation order leaked into the restored state")
	}
}

// TestAggSnapshotMixedStateMerge: a spilled shard, an exact shard and
// an empty shard, all round-tripped through snapshots, must merge to
// the sequential report in any merge order.
func TestAggSnapshotMixedStateMerge(t *testing.T) {
	const threshold = 64
	results := syntheticResults(150, 7)
	seq := NewAgg(threshold)
	for _, r := range results {
		seq.Observe(r)
	}
	want := seq.Report()

	spilled, exact, empty := NewAgg(threshold), NewAgg(threshold), NewAgg(threshold)
	for _, r := range results[:100] { // > threshold: spills to histogram
		spilled.Observe(r)
	}
	for _, r := range results[100:] { // 50 rows: stays exact
		exact.Observe(r)
	}
	// Spilling changes the percentile representation, so the
	// sequential reference must be spilled too for bit-identity.
	if spilled.hist == nil || exact.hist != nil {
		t.Fatal("test shards are not in the intended mixed states")
	}

	roundTrip := func(a *Agg) *Agg {
		t.Helper()
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		b, err := RestoreAgg(snap)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for _, order := range [][]*Agg{
		{spilled, exact, empty},
		{empty, exact, spilled},
		{exact, empty, spilled},
	} {
		total := NewAgg(threshold)
		for _, shard := range order {
			total.Merge(roundTrip(shard))
		}
		if !reflect.DeepEqual(total.Report(), want) {
			t.Fatalf("mixed-state merge differs from sequential report")
		}
	}
}

// TestRestoreAggRejectsBadSnapshots: version drift and garbage fail
// with ErrSnapshotVersion instead of decoding into wrong state.
func TestRestoreAggRejectsBadSnapshots(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(aggSnapV1{Version: 99, Threshold: 5}); err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreAgg(buf.Bytes()); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("future version: err = %v, want ErrSnapshotVersion", err)
	}
	if _, err := RestoreAgg([]byte("not a snapshot")); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("garbage: err = %v, want ErrSnapshotVersion", err)
	}
	if _, err := RestoreAgg(nil); !errors.Is(err, ErrSnapshotVersion) {
		t.Fatalf("empty: err = %v, want ErrSnapshotVersion", err)
	}
}

// TestPartitionRange: shards tile [0, n) exactly, in order, for fleet
// sizes that do and do not divide evenly.
func TestPartitionRange(t *testing.T) {
	for _, n := range []int{0, 1, 3, 19, 100} {
		for _, of := range []int{1, 2, 4, 7, 25} {
			next := 0
			for i := 0; i < of; i++ {
				start, end := (Partition{Index: i, Of: of}).Range(n)
				if start != next || end < start {
					t.Fatalf("n=%d of=%d: shard %d range [%d, %d), want start %d", n, of, i, start, end, next)
				}
				next = end
			}
			if next != n {
				t.Fatalf("n=%d of=%d: shards cover [0, %d)", n, of, next)
			}
		}
	}
	start, end := (Partition{}).Range(42)
	if start != 0 || end != 42 {
		t.Fatalf("zero partition = [%d, %d), want the whole fleet", start, end)
	}
}

// TestCheckpointResumeBitIdentical: a run that dies mid-stream (sink
// failure after the last checkpoint) and is resumed from the
// checkpoint must produce NDJSON and report bit-identical to an
// uninterrupted run — and resuming the completed run again is a no-op
// with identical output.
func TestCheckpointResumeBitIdentical(t *testing.T) {
	m := tinyModel(t)
	scenarios := testFleet(t, m)
	n := len(scenarios)
	dir := t.TempDir()

	// Uninterrupted reference.
	basePath := filepath.Join(dir, "base.ndjson")
	baseSink, err := NewNDJSONFile(basePath, 0)
	if err != nil {
		t.Fatal(err)
	}
	baseRep, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: 4, Sink: baseSink})
	if err != nil {
		t.Fatal(err)
	}
	if err := baseSink.Close(); err != nil {
		t.Fatal(err)
	}
	baseBytes, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}

	// Interrupted run: single worker and tiny chunks so the failure
	// point and checkpoint frontier are deterministic — the sink dies
	// at row 12, the last checkpoint covers rows [0, 12).
	rowsPath := filepath.Join(dir, "rows.ndjson")
	ckPath := filepath.Join(dir, "ck.ehdl")
	out := Output{Rows: rowsPath, Checkpoint: ckPath, Every: 4, Fingerprint: "test-run"}
	run, err := OpenRun(out, false)
	if err != nil {
		t.Fatal(err)
	}
	failer := SinkFunc(func(i int, r Result) error {
		if i == 12 {
			return fmt.Errorf("simulated crash")
		}
		return nil
	})
	// A SIGKILL would lose the unflushed tail; Stream closes the file
	// instead, leaving rows past the frontier on disk, which resume
	// must truncate away.
	_, err = run.Stream(SliceSource(scenarios), StreamOptions{
		Workers:   1,
		ChunkSize: 2,
		Sink:      failer,
	})
	if err == nil || !strings.Contains(err.Error(), "simulated crash") {
		t.Fatalf("interrupted run should fail with the sink error, got %v", err)
	}

	st, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rows != 12 || st.Start != 0 || st.End != n || st.Devices != n {
		t.Fatalf("checkpoint frontier = %+v, want rows 12 of [0, %d)", st, n)
	}

	// Resume with a different worker count: identical output anyway.
	resumed, err := OpenRun(out, true)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := resumed.Stream(SliceSource(scenarios), StreamOptions{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	gotBytes, err := os.ReadFile(rowsPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotBytes, baseBytes) {
		t.Fatalf("resumed NDJSON differs from uninterrupted run (%d vs %d bytes)", len(gotBytes), len(baseBytes))
	}
	if !reflect.DeepEqual(aggFields(rep), aggFields(baseRep)) {
		t.Fatalf("resumed report differs:\n%+v\nvs\n%+v", aggFields(rep), aggFields(baseRep))
	}

	// The final checkpoint has Rows == End; resuming it again must be
	// a no-op that reproduces the same output.
	st2, err := LoadCheckpoint(ckPath)
	if err != nil {
		t.Fatal(err)
	}
	if st2.Rows != n {
		t.Fatalf("final checkpoint frontier = %d, want %d", st2.Rows, n)
	}
	again, err := OpenRun(out, true)
	if err != nil {
		t.Fatal(err)
	}
	if rows, ok := again.Resumed(); !ok || rows != st2.Rows-st2.Start {
		t.Fatalf("Resumed() = %d, %v, want %d restored rows", rows, ok, st2.Rows-st2.Start)
	}
	rep2, err := again.Stream(SliceSource(scenarios), StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := os.ReadFile(rowsPath); !bytes.Equal(b, baseBytes) {
		t.Fatal("no-op resume modified the NDJSON output")
	}
	if !reflect.DeepEqual(aggFields(rep2), aggFields(baseRep)) {
		t.Fatal("no-op resume report differs")
	}
}

// TestResumeRejectsMismatchedCheckpoint: every identity field the
// checkpoint carries — fingerprint, fleet size, partition, threshold
// — must gate resume with ErrCheckpointMismatch.
func TestResumeRejectsMismatchedCheckpoint(t *testing.T) {
	m := tinyModel(t)
	scenarios := testFleet(t, m)
	n := len(scenarios)
	ckPath := filepath.Join(t.TempDir(), "ck.ehdl")
	out := Output{Checkpoint: ckPath, Every: 4, Fingerprint: "fp-a"}
	run, err := OpenRun(out, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.Stream(SliceSource(scenarios), StreamOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}
	alien := out
	alien.Fingerprint = "fp-b"

	for _, tc := range []struct {
		name string
		out  Output
		opts StreamOptions
		src  Source
	}{
		{"fingerprint", alien, StreamOptions{}, SliceSource(scenarios)},
		{"fleet-size", out, StreamOptions{}, SliceSource(scenarios[:n-1])},
		{"partition", out, StreamOptions{Partition: Partition{Index: 0, Of: 2}}, SliceSource(scenarios)},
		{"threshold", out, StreamOptions{ExactPercentiles: 7}, SliceSource(scenarios)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run, err := OpenRun(tc.out, true)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := run.Stream(tc.src, tc.opts); !errors.Is(err, ErrCheckpointMismatch) {
				t.Fatalf("err = %v, want ErrCheckpointMismatch", err)
			}
		})
	}
}

// runShard simulates one partition of the fleet into dir as a shard
// artifact (rows.ndjson + shard.ehdl).
func runShard(t *testing.T, scenarios []Scenario, part Partition, dir, fingerprint string) Report {
	t.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	out := ShardDir(dir)
	out.Fingerprint = fingerprint
	run, err := OpenRun(out, false)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := run.Stream(SliceSource(scenarios), StreamOptions{Workers: 2, Partition: part})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// readRows returns the row file MergeDir wrote into dir.
func readRows(t *testing.T, dir string) []byte {
	t.Helper()
	b, err := os.ReadFile(ShardDir(dir).Rows)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestPartitionShardsMergeBitIdentical: k sharded runs merged by
// MergeDir must reproduce the single-process NDJSON and report
// bit-identically — including splits with empty shards — and broken
// shard sets must be rejected with typed errors.
func TestPartitionShardsMergeBitIdentical(t *testing.T) {
	m := tinyModel(t)
	scenarios := testFleet(t, m)
	dir := t.TempDir()

	basePath := filepath.Join(dir, "base.ndjson")
	baseSink, err := NewNDJSONFile(basePath, 0)
	if err != nil {
		t.Fatal(err)
	}
	baseRep, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: 4, Sink: baseSink})
	if err != nil {
		t.Fatal(err)
	}
	if err := baseSink.Close(); err != nil {
		t.Fatal(err)
	}
	baseBytes, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}

	const of = 4
	dirs := make([]string, of)
	for i := 0; i < of; i++ {
		dirs[i] = filepath.Join(dir, fmt.Sprintf("shard%d", i))
		runShard(t, scenarios, Partition{Index: i, Of: of}, dirs[i], "fp")
	}

	mergedDir := filepath.Join(dir, "merged")
	rep, err := MergeDir(mergedDir, []string{dirs[2], dirs[0], dirs[3], dirs[1]}, nil) // any order
	if err != nil {
		t.Fatal(err)
	}
	merged := bytes.NewBuffer(readRows(t, mergedDir))
	if !bytes.Equal(merged.Bytes(), baseBytes) {
		t.Fatalf("merged NDJSON differs from single-process run (%d vs %d bytes)", merged.Len(), len(baseBytes))
	}
	if !reflect.DeepEqual(aggFields(rep), aggFields(baseRep)) {
		t.Fatalf("merged report differs:\n%+v\nvs\n%+v", aggFields(rep), aggFields(baseRep))
	}

	// A split wider than a tiny fleet produces empty shards; they must
	// merge cleanly too.
	tiny := scenarios[:3]
	tinyBase := filepath.Join(dir, "tiny.ndjson")
	tinySink, err := NewNDJSONFile(tinyBase, 0)
	if err != nil {
		t.Fatal(err)
	}
	tinyRep, err := RunStream(SliceSource(tiny), StreamOptions{Workers: 2, Sink: tinySink})
	if err != nil {
		t.Fatal(err)
	}
	if err := tinySink.Close(); err != nil {
		t.Fatal(err)
	}
	tinyDirs := make([]string, 5)
	for i := range tinyDirs {
		tinyDirs[i] = filepath.Join(dir, fmt.Sprintf("tiny%d", i))
		runShard(t, tiny, Partition{Index: i, Of: 5}, tinyDirs[i], "fp-tiny")
	}
	tinyMergedDir := filepath.Join(dir, "tiny-merged")
	tinyGot, err := MergeDir(tinyMergedDir, tinyDirs, nil)
	if err != nil {
		t.Fatal(err)
	}
	tinyMerged := bytes.NewBuffer(readRows(t, tinyMergedDir))
	if b, _ := os.ReadFile(tinyBase); !bytes.Equal(tinyMerged.Bytes(), b) {
		t.Fatal("empty-shard merge NDJSON differs")
	}
	if !reflect.DeepEqual(aggFields(tinyGot), aggFields(tinyRep)) {
		t.Fatal("empty-shard merge report differs")
	}

	t.Run("missing-shard", func(t *testing.T) {
		if _, err := MergeDir(t.TempDir(), []string{dirs[0], dirs[1], dirs[3]}, nil); !errors.Is(err, ErrShardLayout) {
			t.Fatalf("err = %v, want ErrShardLayout", err)
		}
	})
	t.Run("duplicate-shard", func(t *testing.T) {
		if _, err := MergeDir(t.TempDir(), append([]string{dirs[1]}, dirs...), nil); !errors.Is(err, ErrShardLayout) {
			t.Fatalf("err = %v, want ErrShardLayout", err)
		}
	})
	t.Run("mismatched-shard", func(t *testing.T) {
		alien := filepath.Join(dir, "alien")
		runShard(t, scenarios, Partition{Index: 1, Of: of}, alien, "other-fp")
		if _, err := MergeDir(t.TempDir(), []string{dirs[0], alien, dirs[2], dirs[3]}, nil); !errors.Is(err, ErrShardMismatch) {
			t.Fatalf("err = %v, want ErrShardMismatch", err)
		}
	})
	t.Run("incomplete-shard", func(t *testing.T) {
		st, err := LoadShard(dirs[1])
		if err != nil {
			t.Fatal(err)
		}
		st.Rows = st.Start // rewind the frontier: shard now incomplete
		stale := filepath.Join(dir, "stale")
		if err := os.MkdirAll(stale, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := st.write(filepath.Join(stale, ShardMetaFile)); err != nil {
			t.Fatal(err)
		}
		if _, err := MergeDir(t.TempDir(), []string{dirs[0], stale, dirs[2], dirs[3]}, nil); !errors.Is(err, ErrShardIncomplete) {
			t.Fatalf("err = %v, want ErrShardIncomplete", err)
		}
	})
	t.Run("short-row-file", func(t *testing.T) {
		// Meta says complete but the row file lost a row: ErrShardRows.
		clone := filepath.Join(dir, "shortrows")
		runShard(t, scenarios, Partition{Index: 1, Of: of}, clone, "fp")
		rows, err := os.ReadFile(filepath.Join(clone, ShardRowsFile))
		if err != nil {
			t.Fatal(err)
		}
		trimmed := bytes.TrimSuffix(rows, []byte("\n"))
		cut := bytes.LastIndexByte(trimmed, '\n')
		if err := os.WriteFile(filepath.Join(clone, ShardRowsFile), rows[:cut+1], 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := MergeDir(t.TempDir(), []string{dirs[0], clone, dirs[2], dirs[3]}, nil); !errors.Is(err, ErrShardRows) {
			t.Fatalf("err = %v, want ErrShardRows", err)
		}
	})
}

// TestPartitionEmptyShardsWriteMeta: a split wider than the fleet
// leaves shards with no devices. Each still lands its shard meta —
// complete, with an empty row file — resuming it is a no-op that
// rewrites the same meta, and the shards merge bit-identically to the
// single-process run.
func TestPartitionEmptyShardsWriteMeta(t *testing.T) {
	scenarios := testFleet(t, tinyModel(t))[:2]
	dir := t.TempDir()
	var base bytes.Buffer
	baseRep, err := RunStream(SliceSource(scenarios), StreamOptions{Sink: NewNDJSONSink(&base)})
	if err != nil {
		t.Fatal(err)
	}

	const of = 4 // shards 0 and 2 of 4 over 2 devices are empty
	dirs := make([]string, of)
	for i := range dirs {
		dirs[i] = filepath.Join(dir, fmt.Sprintf("shard%d", i))
		runShard(t, scenarios, Partition{Index: i, Of: of}, dirs[i], "fp")
	}
	for _, i := range []int{0, 2} {
		st, err := LoadShard(dirs[i])
		if err != nil {
			t.Fatalf("empty shard %d: %v", i, err)
		}
		if st.Start != st.End || st.Rows != st.End {
			t.Fatalf("empty shard %d meta covers [%d, %d) at frontier %d", i, st.Start, st.End, st.Rows)
		}
		if rows := readRows(t, dirs[i]); len(rows) != 0 {
			t.Fatalf("empty shard %d wrote %d row bytes", i, len(rows))
		}

		meta, err := os.ReadFile(ShardDir(dirs[i]).Checkpoint)
		if err != nil {
			t.Fatal(err)
		}
		out := ShardDir(dirs[i])
		out.Fingerprint = "fp"
		run, err := OpenRun(out, true)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := run.Stream(SliceSource(scenarios), StreamOptions{Partition: Partition{Index: i, Of: of}}); err != nil {
			t.Fatalf("resume empty shard %d: %v", i, err)
		}
		if again, err := os.ReadFile(out.Checkpoint); err != nil || !bytes.Equal(again, meta) {
			t.Fatalf("resumed empty shard %d rewrote different meta (err %v)", i, err)
		}
	}

	mergedDir := filepath.Join(dir, "merged")
	rep, err := MergeDir(mergedDir, dirs, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(readRows(t, mergedDir), base.Bytes()) {
		t.Fatal("merged NDJSON differs from the single-process run")
	}
	if !reflect.DeepEqual(aggFields(rep), aggFields(baseRep)) {
		t.Fatalf("merged report differs:\n%+v\nvs\n%+v", aggFields(rep), aggFields(baseRep))
	}
}

// TestSinkOrderingContract: every bundled sink rejects an index gap
// instead of silently accepting out-of-order rows.
func TestSinkOrderingContract(t *testing.T) {
	t.Run("collector", func(t *testing.T) {
		c := &Collector{}
		if err := c.Consume(0, Result{}); err != nil {
			t.Fatal(err)
		}
		if err := c.Consume(2, Result{}); err == nil {
			t.Fatal("gap accepted")
		}
		offset := &Collector{Start: 10}
		if err := offset.Consume(10, Result{}); err != nil {
			t.Fatal(err)
		}
		if err := offset.Consume(10, Result{}); err == nil {
			t.Fatal("duplicate accepted")
		}
	})
	t.Run("ndjson", func(t *testing.T) {
		var buf bytes.Buffer
		s := NewNDJSONSinkAt(&buf, 5)
		if err := s.Consume(5, Result{}); err != nil {
			t.Fatal(err)
		}
		if err := s.Consume(7, Result{}); err == nil {
			t.Fatal("gap accepted")
		}
	})
	t.Run("ndjson-file", func(t *testing.T) {
		f, err := NewNDJSONFile(filepath.Join(t.TempDir(), "rows.ndjson"), 0)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if err := f.Consume(0, Result{}); err != nil {
			t.Fatal(err)
		}
		if err := f.Consume(2, Result{}); err == nil {
			t.Fatal("gap accepted")
		}
	})
}

// TestResumeNDJSONFile: truncation back to the checkpointed row
// boundary, appending after it, and the typed error when the file is
// behind the checkpoint.
func TestResumeNDJSONFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rows.ndjson")
	f, err := NewNDJSONFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := f.Consume(i, Result{Name: fmt.Sprintf("dev%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Keep 3 of the 5 rows, then re-append rows 3 and 4: byte-identical.
	r, err := resumeNDJSONFile(path, 3, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Consume(3, Result{Name: "dev3"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Consume(4, Result{Name: "dev4"}); err != nil {
		t.Fatal(err)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, full) {
		t.Fatalf("truncate+reappend changed the file:\n%q\nvs\n%q", got, full)
	}

	if _, err := resumeNDJSONFile(path, 10, 10); !errors.Is(err, ErrResumeRows) {
		t.Fatalf("short file: err = %v, want ErrResumeRows", err)
	}
}

// TestRunStreamPartitionReport: a partitioned run aggregates its
// range only, and its report equals a direct run over that slice.
func TestRunStreamPartitionReport(t *testing.T) {
	m := tinyModel(t)
	scenarios := testFleet(t, m)
	part := Partition{Index: 1, Of: 3}
	start, end := part.Range(len(scenarios))

	collect := &Collector{Start: start}
	rep, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: 3, Partition: part, Sink: collect})
	if err != nil {
		t.Fatal(err)
	}
	want, err := RunStream(SliceSource(scenarios[start:end]), StreamOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(aggFields(rep), aggFields(want)) {
		t.Fatalf("partition report differs from direct run over its range")
	}
	if len(collect.Rows) != end-start {
		t.Fatalf("sink saw %d rows, want %d", len(collect.Rows), end-start)
	}
}
