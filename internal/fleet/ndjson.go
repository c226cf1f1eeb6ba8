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
// instead of silently corrupting the output. In a RunStream both take
// whole chunks of lines that the workers encoded with the same
// functions Consume uses (see workerEncoder), so there is one encoder.

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"sync"
	"unsafe"
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
	// Diag is the intermittent runner's verdict kind.
	Diag string `json:"diag,omitempty"`
	// Deprecated: always 0; bench/ still reads it (ROADMAP item 2)
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
	}
	if r.Err != nil {
		row.Err = r.Err.Error()
	}
	if tagMemo {
		row.Memo = r.Memo
	}
	return row
}

// rowEncoder appends rows into one reused buffer and writes each with
// a single Write, byte for byte what json.Encoder.Encode writes.
type rowEncoder struct {
	w   io.Writer
	buf []byte
	lineEncoder
}

func (e *rowEncoder) encode(row *NDJSONRow) error {
	b, err := e.appendLine(e.buf[:0], row)
	if err != nil {
		return err
	}
	e.buf = b
	_, err = e.w.Write(b)
	return err
}

// lineEncoder appends rows as JSON lines through its own float and
// string caches. Each sink owns one, and so does each worker of a run
// whose sink takes encoded lines (see lineSink).
type lineEncoder struct {
	floats floatCache
	plain  plainCache
}

// appendLine appends row's JSON line to b: appendRow's bytes, or
// encoding/json's when appendRow declines the row. On an encoding
// error b comes back unchanged.
func (e *lineEncoder) appendLine(b []byte, row *NDJSONRow) ([]byte, error) {
	if out, ok := appendRow(b, row, &e.floats, &e.plain); ok {
		return out, nil
	}
	line, err := json.Marshal(*row)
	if err != nil {
		return b, err
	}
	return append(append(b, line...), '\n'), nil
}

// workerEncoder is a RunStream worker's lineEncoder, encoding with
// the TagMemo of the run's line sinks.
type workerEncoder struct {
	lineEncoder
	tagMemo bool
}

// append appends row i's line to b. A table replay (slot non-nil)
// whose name is plainJSON is a copy: its head, the slot's cached
// middle, its prediction and the slot's cached rest. Everything else
// in a replayed row is fixed by its trajectory class (equal handles
// mean equal engine, profile and outcome, and a table replay's memo
// tag is always hit-full), so the slot caches those bytes from its
// first replay. A slot whose row appendRow declines, and every other
// row, take appendLine.
func (e *workerEncoder) append(b []byte, i int, r *Result, slot *trajectorySlot) ([]byte, error) {
	if slot != nil && plainJSON(r.Name) && e.cached(slot, r) {
		b = append(appendHead(b, i, r.Name), slot.line[:slot.cut]...)
		b = strconv.AppendInt(b, int64(r.Predicted), 10)
		return append(b, slot.line[slot.cut:]...), nil
	}
	row := makeRow(i, *r, e.tagMemo)
	return e.appendLine(b, &row)
}

// cached reports whether slot holds its line bytes, encoding them
// from r, the slot's first replay, when it has not tried yet.
func (e *workerEncoder) cached(slot *trajectorySlot, r *Result) bool {
	if slot.line != nil || slot.general {
		return slot.line != nil
	}
	row := makeRow(0, *r, e.tagMemo)
	if !rowPlain(&row, &e.plain) {
		slot.general = true
		return false
	}
	slot.line = appendMiddle(make([]byte, 0, lineBytesHint), &row)
	slot.cut = len(slot.line)
	slot.line = appendRest(slot.line, &row, &e.floats)
	return true
}

// appendRow appends row's JSON line to b, its floats through fc and
// its strings checked through pc. ok is false when the row holds a
// non-finite float (an encoding error) or a string that needs
// escaping; the caller then encodes the row with encoding/json, so
// both cases keep its exact bytes and errors. The line is its head,
// its middle, the prediction and its rest, so a replayed row can copy
// the middle and the rest of an earlier row of its class.
func appendRow(b []byte, row *NDJSONRow, fc *floatCache, pc *plainCache) (_ []byte, ok bool) {
	if !rowPlain(row, pc) {
		return b, false
	}
	b = appendHead(b, row.Index, row.Device)
	b = strconv.AppendInt(appendMiddle(b, row), int64(row.Predicted), 10)
	return appendRest(b, row, fc), true
}

// rowPlain reports whether appendRow can encode row: every string
// plainJSON and every float finite.
func rowPlain(row *NDJSONRow, pc *plainCache) bool {
	for k, s := range [...]string{row.Device, row.Engine, row.Profile, row.Diag, row.Err, row.Memo} {
		if !pc.plain(k, s) {
			return false
		}
	}
	for _, v := range [...]float64{row.ActiveSec, row.WallSec, row.EnergyMJ} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// appendHead appends a line's opening through its device name; device
// must be plainJSON.
func appendHead(b []byte, i int, device string) []byte {
	b = strconv.AppendInt(append(b, `{"i":`...), int64(i), 10)
	return appendString(b, `,"device":`, device)
}

// appendMiddle appends row's fields from "engine" through the
// "predicted" key.
func appendMiddle(b []byte, row *NDJSONRow) []byte {
	b = appendString(b, `,"engine":`, row.Engine)
	if row.Profile != "" {
		b = appendString(b, `,"profile":`, row.Profile)
	}
	b = strconv.AppendBool(append(b, `,"completed":`...), row.Completed)
	return append(b, `,"predicted":`...)
}

// appendRest appends row's fields from "boots" on and the line's end.
func appendRest(b []byte, row *NDJSONRow, fc *floatCache) []byte {
	b = strconv.AppendUint(append(b, `,"boots":`...), row.Boots, 10)
	b = fc.append(append(b, `,"active_s":`...), row.ActiveSec)
	b = fc.append(append(b, `,"wall_s":`...), row.WallSec)
	b = fc.append(append(b, `,"energy_mj":`...), row.EnergyMJ)
	if row.Diag != "" {
		b = appendString(b, `,"diag":`, row.Diag)
	}
	if row.FFBoots != 0 {
		b = strconv.AppendUint(append(b, `,"ff_boots":`...), row.FFBoots, 10)
	}
	if row.Err != "" {
		b = appendString(b, `,"err":`, row.Err)
	}
	if row.Memo != "" {
		b = appendString(b, `,"memo":`, row.Memo)
	}
	return append(b, "}\n"...)
}

// appendString appends key and s quoted; s must be plainJSON.
func appendString(b []byte, key, s string) []byte {
	b = append(append(b, key...), '"')
	return append(append(b, s...), '"')
}

// appendFloat appends a finite v as encoding/json writes a float64:
// 'f' format, or 'e' below 1e-6 and from 1e21 up with a two-digit
// negative exponent shortened (e-07 to e-7).
func appendFloat(b []byte, v float64) []byte {
	format := byte('f')
	if abs := math.Abs(v); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, v, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1]
		b = b[:n-1]
	}
	return b
}

// floatCache is a direct-mapped cache from a float64's bits to its
// appendFloat bytes. Fleet rows repeat few distinct values (each
// harvest class's times and energies), so most floats are a copy
// instead of a shortest-digits conversion; a slot holds the bytes
// appendFloat wrote for exactly its bits, so a hit writes the same
// bytes by construction.
type floatCache [1 << floatCacheBits]floatSlot

const floatCacheBits = 9 // 512 slots, 20 KB per encoder

// floatSlot holds one cached encoding. n == 0 marks an empty slot: no
// float encodes to zero bytes. 31 bytes hold every finite float64
// appendFloat writes (25 at most).
type floatSlot struct {
	bits uint64
	n    uint8
	b    [31]byte
}

// append appends the finite v as appendFloat does.
func (c *floatCache) append(b []byte, v float64) []byte {
	bits := math.Float64bits(v)
	s := &c[floatSlotOf(bits)]
	if s.n != 0 && s.bits == bits {
		return append(b, s.b[:s.n]...)
	}
	start := len(b)
	b = appendFloat(b, v)
	if n := len(b) - start; n <= len(s.b) {
		s.bits, s.n = bits, uint8(copy(s.b[:], b[start:]))
	}
	return b
}

// floatSlotOf maps float bits to a slot: the top bits of a Fibonacci
// hash, so values differing only in low mantissa bits spread.
func floatSlotOf(bits uint64) int {
	return int((bits * 0x9e3779b97f4a7c15) >> (64 - floatCacheBits))
}

// plainCache holds, for each string field of a row, the last string
// plainJSON accepted there. Rows repeat the same strings (an engine
// name, a profile label, a replayed diagnosis), and a Go string never
// changes: a field whose data pointer and length equal the held
// string's holds the same bytes, and holding it keeps its memory from
// being reused, so such a field skips the scan.
type plainCache [6]string

// plain reports plainJSON(s) for string field k.
func (c *plainCache) plain(k int, s string) bool {
	if len(s) == len(c[k]) && unsafe.StringData(s) == unsafe.StringData(c[k]) {
		return true
	}
	if !plainJSON(s) {
		return false
	}
	c[k] = s
	return true
}

// plainJSON reports whether s encodes as itself between quotes:
// printable ASCII without the bytes encoding/json escapes (", \ and
// the HTML-sensitive <, >, &).
func plainJSON(s string) bool {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			return false
		}
	}
	return true
}

// plainByte marks the bytes plainJSON accepts.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c <= 0x7e; c++ {
		t[c] = true
	}
	for _, c := range `"\<>&` {
		t[c] = false
	}
	return t
}()

// NDJSONSink writes one row per line to w. It does not buffer: wrap w
// in a bufio.Writer (and flush it after RunStream returns) when
// writing to a file — or use NDJSONFile, which buffers, fsyncs on
// Flush, and supports checkpoint resume.
type NDJSONSink struct {
	enc  rowEncoder
	next int

	// TagMemo opts rows into the "memo" hit/miss field. Off by
	// default so memoized and unmemoized runs emit byte-identical
	// output (the tag's hit/miss split varies with scheduling).
	TagMemo bool
}

// NewNDJSONSink returns a sink streaming rows to w, expecting rows
// from index 0.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	return &NDJSONSink{enc: rowEncoder{w: w}}
}

// NewNDJSONSinkAt returns a sink streaming rows to w, expecting the
// first row at global index start (a partitioned or resumed run).
func NewNDJSONSinkAt(w io.Writer, start int) *NDJSONSink {
	return &NDJSONSink{enc: rowEncoder{w: w}, next: start}
}

// Consume implements Sink.
func (s *NDJSONSink) Consume(i int, r Result) error {
	if i != s.next {
		return fmt.Errorf("fleet: NDJSON sink got row %d, want %d", i, s.next)
	}
	s.next++
	row := makeRow(i, r, s.TagMemo)
	return s.enc.encode(&row)
}

func (s *NDJSONSink) tagMemo() bool { return s.TagMemo }

// writeLines writes rows [start, end), encoded as lines, in one Write.
func (s *NDJSONSink) writeLines(start, end int, lines []byte) error {
	if start != s.next {
		return fmt.Errorf("fleet: NDJSON sink got row %d, want %d", start, s.next)
	}
	s.next = end
	_, err := s.enc.w.Write(lines)
	return err
}

// ErrResumeRows: the NDJSON file on disk holds fewer rows than the
// checkpoint's frontier — the file and checkpoint are not from the
// same run (or the file was truncated behind the checkpoint's back).
var ErrResumeRows = errors.New("NDJSON file is behind the checkpoint")

// NDJSONFile is a file-owning NDJSON sink for checkpointable runs:
// an NDJSONSink over a buffered writer, Flush = buffer flush + fsync
// (called by RunStream before every checkpoint write), and safe for a
// concurrent Flush during delivery (it locks internally). Close
// flushes and closes the file; a Flush or Close after Close is a
// no-op.
type NDJSONFile struct {
	mu     sync.Mutex
	f      *os.File
	bw     *bufio.Writer
	sink   *NDJSONSink
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
	return &NDJSONFile{f: f, bw: bw, sink: NewNDJSONSinkAt(bw, start)}
}

// Consume implements Sink.
func (s *NDJSONFile) Consume(i int, r Result) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sink.TagMemo = s.TagMemo
	return s.sink.Consume(i, r)
}

func (s *NDJSONFile) tagMemo() bool { return s.TagMemo }

func (s *NDJSONFile) writeLines(start, end int, lines []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sink.writeLines(start, end, lines)
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
