package fleet

// NDJSON row sink: one JSON object per device, one line per object,
// in scenario order — the interchange format for fleet-scale runs
// (stream it to disk, split it across hosts, feed it to jq). The
// schema is pinned by TestNDJSONSchema and documented in the README's
// "Fleet at scale" section.
//
// Two sinks live here. NDJSONSink streams to any io.Writer.
// NDJSONFile owns a file: it buffers, implements Flusher (buffer
// flush + fsync, which checkpointing calls before every write), and
// can reopen an interrupted run's file truncated back to the last
// checkpointed row boundary, so a resumed DurableRun appends exactly
// where the checkpoint says the frontier is. Both enforce the Sink
// ordering contract: a row that is not exactly the next expected
// index is an error, so an out-of-order regression aborts the run
// instead of silently corrupting the output.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
)

// NDJSONRow is the wire form of one Result row.
type NDJSONRow struct {
	Index     int     `json:"i"`
	Device    string  `json:"device"`
	Engine    string  `json:"engine"`
	Profile   string  `json:"profile,omitempty"`
	Completed bool    `json:"completed"`
	Predicted int     `json:"predicted"`
	Boots     uint64  `json:"boots"`
	ActiveSec float64 `json:"active_s"`
	WallSec   float64 `json:"wall_s"`
	EnergyMJ  float64 `json:"energy_mj"`
	// Diag is the intermittent runner's verdict kind; FFBoots counts
	// boots skipped by the analytic fast-forward (present only when
	// non-zero; included in Boots).
	Diag    string `json:"diag,omitempty"`
	FFBoots uint64 `json:"ff_boots,omitempty"`
	Err     string `json:"err,omitempty"`
	// Memo tags how a memoized run obtained the row ("miss",
	// "hit-full", "hit-compute"); emitted only when the sink's
	// TagMemo is set, because the tag is scheduling-dependent and
	// would break the byte-identical memo-on/memo-off guarantee of
	// the default output.
	Memo string `json:"memo,omitempty"`
}

// makeRow builds the wire form of one result.
func makeRow(i int, r Result, tagMemo bool) NDJSONRow {
	row := NDJSONRow{
		Index:     i,
		Device:    r.Name,
		Engine:    string(r.Engine),
		Profile:   r.Profile,
		Completed: r.Completed,
		Predicted: r.Predicted,
		Boots:     r.Boots,
		ActiveSec: r.ActiveSec,
		WallSec:   r.WallSec,
		EnergyMJ:  r.EnergymJ,
		Diag:      r.Diagnosis,
		FFBoots:   r.FastForwarded,
	}
	if r.Err != nil {
		row.Err = r.Err.Error()
	}
	if tagMemo {
		row.Memo = r.Memo
	}
	return row
}

// NDJSONSink writes one row per line to w. It does not buffer: wrap w
// in a bufio.Writer (and flush it after RunStream returns) when
// writing to a file — or use NDJSONFile, which buffers, fsyncs on
// Flush, and supports checkpoint resume.
type NDJSONSink struct {
	enc  *json.Encoder
	next int

	// TagMemo opts rows into the "memo" hit/miss field. Off by
	// default so memoized and unmemoized runs emit byte-identical
	// output (the tag's hit/miss split varies with scheduling).
	TagMemo bool
}

// NewNDJSONSink returns a sink streaming rows to w, expecting rows
// from index 0.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	return &NDJSONSink{enc: json.NewEncoder(w)}
}

// NewNDJSONSinkAt returns a sink streaming rows to w, expecting the
// first row at global index start (a partitioned or resumed run).
func NewNDJSONSinkAt(w io.Writer, start int) *NDJSONSink {
	return &NDJSONSink{enc: json.NewEncoder(w), next: start}
}

// Consume implements Sink.
func (s *NDJSONSink) Consume(i int, r Result) error {
	if i != s.next {
		return fmt.Errorf("fleet: NDJSON sink got row %d, want %d", i, s.next)
	}
	s.next++
	return s.enc.Encode(makeRow(i, r, s.TagMemo))
}

// ErrResumeRows: the NDJSON file on disk holds fewer rows than the
// checkpoint's frontier — the file and checkpoint are not from the
// same run (or the file was truncated behind the checkpoint's back).
var ErrResumeRows = errors.New("NDJSON file is behind the checkpoint")

// NDJSONFile is a file-owning NDJSON sink for checkpointable runs:
// buffered writes, Flush = buffer flush + fsync (called by RunStream
// before every checkpoint write), ordering-checked like NDJSONSink,
// and safe for a concurrent Flush during delivery (it locks
// internally). Close flushes and closes the file; a Flush or Close
// after Close is a no-op.
type NDJSONFile struct {
	mu     sync.Mutex
	f      *os.File
	bw     *bufio.Writer
	enc    *json.Encoder
	next   int
	closed bool

	// TagMemo is NDJSONSink.TagMemo; leave it off for output that
	// must be byte-identical across memo on/off, shards and resumes.
	TagMemo bool
}

const ndjsonBufSize = 1 << 20

// NewNDJSONFile creates (truncating) the NDJSON file at path,
// expecting the first row at global index start.
func NewNDJSONFile(path string, start int) (*NDJSONFile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return newNDJSONFile(f, start), nil
}

// resumeNDJSONFile reopens the NDJSON file of an interrupted run and
// truncates it back to exactly keep rows — the checkpoint's frontier.
// (The file may hold more: rows flushed after the last checkpoint
// write are simply discarded and re-simulated.) The returned sink
// expects the first row at global index next. A file holding fewer
// than keep complete rows fails with ErrResumeRows.
func resumeNDJSONFile(path string, keep, next int) (*NDJSONFile, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("fleet: %w", err)
	}
	br := bufio.NewReaderSize(f, ndjsonBufSize)
	var off int64
	for row := 0; row < keep; row++ {
		line, err := br.ReadBytes('\n')
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("%s: %w: %d complete rows on disk, checkpoint frontier needs %d",
				path, ErrResumeRows, row, keep)
		}
		off += int64(len(line))
	}
	if err := f.Truncate(off); err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: truncate %s to row boundary: %w", path, err)
	}
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("fleet: %w", err)
	}
	return newNDJSONFile(f, next), nil
}

func newNDJSONFile(f *os.File, start int) *NDJSONFile {
	bw := bufio.NewWriterSize(f, ndjsonBufSize)
	return &NDJSONFile{f: f, bw: bw, enc: json.NewEncoder(bw), next: start}
}

// Consume implements Sink.
func (s *NDJSONFile) Consume(i int, r Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if i != s.next {
		return fmt.Errorf("fleet: NDJSON sink got row %d, want %d", i, s.next)
	}
	s.next++
	return s.enc.Encode(makeRow(i, r, s.TagMemo))
}

// Flush implements Flusher: drains the write buffer and fsyncs, so
// every row delivered up to the call survives a SIGKILL. The fsync
// runs outside the sink lock — concurrent Consume calls keep
// streaming while the disk syncs; their rows are past the checkpoint
// frontier anyway, and whether the sync happens to cover them is
// irrelevant (resume truncates back to the frontier). A Close landing
// during the unlocked fsync has already written every row, so its
// closed-file error is no failure (checkpoint flushes never race
// Close, which comes after RunStream returns).
func (s *NDJSONFile) Flush() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	err := s.bw.Flush()
	s.mu.Unlock()
	if err != nil {
		return err
	}
	if err := s.f.Sync(); err != nil && !errors.Is(err, os.ErrClosed) {
		return err
	}
	return nil
}

// Close flushes and closes the file.
func (s *NDJSONFile) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if err := s.bw.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}
