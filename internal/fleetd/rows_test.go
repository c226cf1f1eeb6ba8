package fleetd

// Row-stream regressions: GET /v1/jobs/{id}/rows must deliver every
// row of the job's file — past the first read buffer, when one row is
// longer than the buffer, and when the follower's flush lands after
// the run has closed its row file.

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ehdl/internal/fleet"
)

// TestCopyNewRowsPastOneMiB: a row file over 2 MiB whose 1 MiB read
// boundaries fall mid-line is copied whole in one call, not cut off at
// the first partial tail.
func TestCopyNewRowsPastOneMiB(t *testing.T) {
	line := `{"i":0,"device":"` + strings.Repeat("x", 980) + `"}` + "\n" // 1000 bytes
	data := bytes.Repeat([]byte(line), 2200)                             // 2.2 MB
	if (1<<20)%len(line) == 0 {
		t.Fatal("fixture lines must not divide the 1 MiB read buffer")
	}
	path := filepath.Join(t.TempDir(), "rows.ndjson")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	var off int64
	buf := make([]byte, 1<<20)
	n, err := copyNewRows(&got, path, &off, &buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) || off != int64(len(data)) || !bytes.Equal(got.Bytes(), data) {
		t.Fatalf("copied %d bytes (offset %d) of %d", n, off, len(data))
	}

	// A trailing partial line still waits for its newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"i":1,`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n, err := copyNewRows(&got, path, &off, &buf); err != nil || n != 0 {
		t.Fatalf("partial tail: copied %d bytes, err %v; want nothing", n, err)
	}
}

// TestCopyNewRowsLongerThanBuffer: a row longer than the follower's
// read buffer grows the buffer and is copied whole, with the rows
// around it; until its newline lands, it waits like any partial line.
func TestCopyNewRowsLongerThanBuffer(t *testing.T) {
	short := `{"i":0}` + "\n"
	long := `{"i":1,"device":"` + strings.Repeat("x", 3*rowsReadSize) + `"}`
	path := filepath.Join(t.TempDir(), "rows.ndjson")
	if err := os.WriteFile(path, []byte(short+long), 0o644); err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	var off int64
	buf := make([]byte, rowsReadSize)
	if n, err := copyNewRows(&got, path, &off, &buf); err != nil || n != int64(len(short)) {
		t.Fatalf("before the long row's newline: copied %d bytes, err %v; want the short row", n, err)
	}

	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString("\n" + short); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := copyNewRows(&got, path, &off, &buf); err != nil {
		t.Fatal(err)
	}
	if want := short + long + "\n" + short; got.String() != want {
		t.Fatalf("copied %d bytes, want %d", got.Len(), len(want))
	}
	if len(buf) <= len(long) {
		t.Fatalf("buffer is %d bytes, shorter than the %d-byte row it read", len(buf), len(long))
	}
}

// TestRowsStreamAfterRunClosed: the run closes its row file before the
// job turns terminal, so a follower's flush can land after the close.
// That flush must succeed and the stream must still carry every row.
func TestRowsStreamAfterRunClosed(t *testing.T) {
	srv, ts := startServer(t, t.TempDir(), Config{})
	dir := t.TempDir()
	run, err := fleet.OpenRun(fleet.ShardDir(dir), true)
	if err != nil {
		t.Fatal(err)
	}
	const devices = 10000 // ~1.9 MB of rows: more than one read buffer
	src := fleet.FuncSource(devices, func(i int) (fleet.Scenario, error) {
		return fleet.Scenario{}, errors.New("no scenario") // a cheap, complete row
	})
	if _, err := run.Stream(src, fleet.StreamOptions{Workers: 2}); err != nil {
		t.Fatal(err)
	}

	const id = "j999999"
	j := newJob(id, dir, jobMeta{ID: id, Kind: kindSweep, State: StateDone})
	j.run = run
	if err := j.flushRows(); err != nil {
		t.Fatalf("flush after the run closed: %v", err)
	}
	srv.mu.Lock()
	srv.jobs[id] = j
	srv.mu.Unlock()

	want, err := os.ReadFile(j.rowsPath())
	if err != nil {
		t.Fatal(err)
	}
	got := getRows(t, ts, id)
	if lines := bytes.Count(got, []byte("\n")); lines != devices || !bytes.Equal(got, want) {
		t.Fatalf("row stream carried %d of %d rows (%d of %d bytes)", lines, devices, len(got), len(want))
	}
}
