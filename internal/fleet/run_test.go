package fleet

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDurableRunSplitLayout: the CLI's -out/-checkpoint layout keeps
// the row file and the checkpoint in different directories. Resuming
// before any checkpoint exists starts fresh; a run interrupted after a
// checkpoint resumes from it across the two directories to the bytes
// of an uninterrupted run.
func TestDurableRunSplitLayout(t *testing.T) {
	scenarios := testFleet(t, tinyModel(t))
	src := SliceSource(scenarios)
	rowsDir, ckDir := t.TempDir(), t.TempDir()
	out := Output{
		Rows:        filepath.Join(rowsDir, "rows.ndjson"),
		Checkpoint:  filepath.Join(ckDir, "ck.ehdl"),
		Every:       2,
		Fingerprint: "split",
	}

	var base bytes.Buffer
	if _, err := RunStream(src, StreamOptions{Workers: 2, Sink: NewNDJSONSink(&base)}); err != nil {
		t.Fatal(err)
	}

	fresh, err := OpenRun(out, true)
	if err != nil {
		t.Fatalf("resume with no checkpoint yet: %v", err)
	}
	if rows, ok := fresh.Resumed(); ok || rows != 0 {
		t.Fatalf("Resumed() = %d, %v before any checkpoint, want a fresh start", rows, ok)
	}
	_, err = fresh.Stream(src, StreamOptions{
		Workers:   1,
		ChunkSize: 2,
		Sink: SinkFunc(func(i int, r Result) error {
			if i == 8 {
				return fmt.Errorf("simulated crash")
			}
			return nil
		}),
	})
	if err == nil || !strings.Contains(err.Error(), "simulated crash") {
		t.Fatalf("interrupted run should fail with the sink error, got %v", err)
	}

	resumed, err := OpenRun(out, true)
	if err != nil {
		t.Fatal(err)
	}
	if rows, ok := resumed.Resumed(); !ok || rows != 8 {
		t.Fatalf("Resumed() = %d, %v, want 8 restored rows", rows, ok)
	}
	if _, err := resumed.Stream(src, StreamOptions{Workers: 3}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(out.Rows)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, base.Bytes()) {
		t.Fatalf("split-layout resume differs from an uninterrupted run (%d vs %d bytes)", len(got), base.Len())
	}
	// A reader following the row file may flush or close after the run
	// has closed it: both are no-ops.
	if err := resumed.Flush(); err != nil {
		t.Fatalf("Flush after the run closed: %v", err)
	}
	if err := resumed.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
}
