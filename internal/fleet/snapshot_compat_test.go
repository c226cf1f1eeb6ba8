package fleet

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// aggSnapV1FF is the version-1 snapshot layout as written before the
// fast-forward counter was retired: aggSnapV1 plus FFBoots. Checkpoints
// and shard metas on disk may still carry it.
type aggSnapV1FF struct {
	Version   int
	Threshold int

	Devices   int
	Completed int
	Errors    int
	Boots     uint64
	FFBoots   uint64

	Exact     []float64
	Spilled   bool
	Hist      []int64
	HistCount int

	Engines   map[string]GroupStats
	Profiles  map[string]GroupStats
	Diagnoses map[string]int
}

// withFFBoots re-encodes a current snapshot in the old layout with
// FFBoots set, as an older build would have written it.
func withFFBoots(t *testing.T, snap []byte, ffBoots uint64) []byte {
	t.Helper()
	var old aggSnapV1FF
	if err := gob.NewDecoder(bytes.NewReader(snap)).Decode(&old); err != nil {
		t.Fatal(err)
	}
	old.FFBoots = ffBoots
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(old); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// rewriteCheckpointFF rewrites the checkpoint or shard meta at path so
// its aggregator snapshot uses the old layout.
func rewriteCheckpointFF(t *testing.T, path string) {
	t.Helper()
	st, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	st.AggSnap = withFFBoots(t, st.AggSnap, 4321)
	if err := st.write(path); err != nil {
		t.Fatal(err)
	}
}

// TestRestoreAggOldLayout: a snapshot written with the retired FFBoots
// field restores, at the same version, to an aggregator that reports
// and keeps observing exactly like the original.
func TestRestoreAggOldLayout(t *testing.T) {
	for _, tc := range []struct {
		name         string
		n, threshold int
	}{
		{"empty", 0, 64},
		{"exact", 60, 1000},
		{"spilled", 300, 64},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := NewAgg(tc.threshold)
			for _, r := range syntheticResults(tc.n, 1) {
				a.Observe(r)
			}
			snap, err := a.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			b, err := RestoreAgg(withFFBoots(t, snap, 1234))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Report(), b.Report()) {
				t.Fatalf("restored report differs:\n%+v\nvs\n%+v", b.Report(), a.Report())
			}
			for _, r := range syntheticResults(tc.threshold, 2) {
				a.Observe(r)
				b.Observe(r)
			}
			if !reflect.DeepEqual(a.Report(), b.Report()) {
				t.Fatal("post-restore observations diverged")
			}
		})
	}
}

// TestOldLayoutCheckpointResumesAndMerges: a checkpoint whose snapshot
// still carries FFBoots resumes to the uninterrupted run's rows and
// report, and old-layout shards merge with new ones bit-identically.
func TestOldLayoutCheckpointResumesAndMerges(t *testing.T) {
	m := tinyModel(t)
	scenarios := testFleet(t, m)
	dir := t.TempDir()

	basePath := filepath.Join(dir, "base.ndjson")
	baseSink, err := NewNDJSONFile(basePath, 0)
	if err != nil {
		t.Fatal(err)
	}
	baseRep, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: 2, Sink: baseSink})
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

	t.Run("resume", func(t *testing.T) {
		out := Output{
			Rows:        filepath.Join(dir, "rows.ndjson"),
			Checkpoint:  filepath.Join(dir, "ck.ehdl"),
			Every:       4,
			Fingerprint: "old-layout",
		}
		run, err := OpenRun(out, false)
		if err != nil {
			t.Fatal(err)
		}
		crash := SinkFunc(func(i int, r Result) error {
			if i == 12 {
				return fmt.Errorf("simulated crash")
			}
			return nil
		})
		_, err = run.Stream(SliceSource(scenarios), StreamOptions{Workers: 1, ChunkSize: 2, Sink: crash})
		if err == nil || !strings.Contains(err.Error(), "simulated crash") {
			t.Fatalf("interrupted run should fail with the sink error, got %v", err)
		}
		rewriteCheckpointFF(t, out.Checkpoint)

		resumed, err := OpenRun(out, true)
		if err != nil {
			t.Fatal(err)
		}
		if rows, ok := resumed.Resumed(); !ok || rows != 12 {
			t.Fatalf("Resumed() = %d, %v, want 12 restored rows", rows, ok)
		}
		rep, err := resumed.Stream(SliceSource(scenarios), StreamOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(out.Rows); !bytes.Equal(got, baseBytes) {
			t.Fatal("resumed NDJSON differs from the uninterrupted run")
		}
		if !reflect.DeepEqual(aggFields(rep), aggFields(baseRep)) {
			t.Fatalf("resumed report differs:\n%+v\nvs\n%+v", aggFields(rep), aggFields(baseRep))
		}
	})

	t.Run("merge", func(t *testing.T) {
		const of = 4
		dirs := make([]string, of)
		for i := range dirs {
			dirs[i] = filepath.Join(dir, fmt.Sprintf("shard%d", i))
			runShard(t, scenarios, Partition{Index: i, Of: of}, dirs[i], "fp")
			if i%2 == 0 {
				rewriteCheckpointFF(t, filepath.Join(dirs[i], ShardMetaFile))
			}
		}
		merged := filepath.Join(dir, "merged")
		rep, err := MergeDir(merged, dirs, nil)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(readRows(t, merged), baseBytes) {
			t.Fatal("merged NDJSON differs from the single-process run")
		}
		if !reflect.DeepEqual(aggFields(rep), aggFields(baseRep)) {
			t.Fatalf("merged report differs:\n%+v\nvs\n%+v", aggFields(rep), aggFields(baseRep))
		}
	})
}
