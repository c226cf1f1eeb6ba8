package fleet

// This file is the streaming fleet core. Scenarios come from a lazy
// Source (so a million-device fleet is never materialized), workers
// claim deterministic contiguous chunks of devices and simulate each
// into its rows plus an aggregator shard, and a single committer puts
// finished chunks back into scenario order: it hands them to the
// optional Sink and merges their shards. An NDJSON sink (NDJSONSink,
// NDJSONFile, or one inside a MultiSink) takes a chunk as the JSON
// lines its worker encoded, in one write; a RowsFunc takes its range;
// any other sink takes its rows. Its contiguous commit frontier —
// together with the aggregator snapshot and the sink's delivered-row
// index — is what a DurableRun checkpoints and resumes from (see
// run.go). Dispatch tokens bound the chunks in flight.
// StreamOptions.Partition restricts a run to one device range of the
// fleet (global indices preserved), which is the multi-process
// sharding substrate (see checkpoint.go and merge.go). Attach a
// Collector to materialize every row.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"ehdl/internal/fleet/memo"
)

// Source lazily yields the fleet's scenarios. Len is the fleet size;
// At(i) builds scenario i and must be safe for concurrent calls with
// distinct (or equal) indices.
type Source interface {
	Len() int
	At(i int) (Scenario, error)
}

type sliceSource []Scenario

func (s sliceSource) Len() int                   { return len(s) }
func (s sliceSource) At(i int) (Scenario, error) { return s[i], nil }

// SliceSource adapts a materialized scenario slice.
func SliceSource(scenarios []Scenario) Source { return sliceSource(scenarios) }

type funcSource struct {
	n  int
	fn func(i int) (Scenario, error)
}

func (s funcSource) Len() int                   { return s.n }
func (s funcSource) At(i int) (Scenario, error) { return s.fn(i) }

// FuncSource adapts a generator function: n devices, scenario i built
// on demand by fn (which must be safe for concurrent calls).
func FuncSource(n int, fn func(i int) (Scenario, error)) Source {
	return funcSource{n: n, fn: fn}
}

// Sink consumes per-device rows as the fleet streams. Consume is
// called exactly once per scenario, in scenario order (i strictly
// increasing), never concurrently. A Consume error aborts the run.
// RunStream hands an NDJSONSink or NDJSONFile each chunk's encoded
// lines in one write, and a RowsFunc each chunk's row range in one
// call, instead of calling their Consume per row; the bytes, the rows
// covered and the order are the same.
type Sink interface {
	Consume(i int, r Result) error
}

// lineSink is a Sink that takes a chunk of rows as the JSON lines a
// worker encoded for them (NDJSONSink and NDJSONFile): writeLines
// writes rows [start, end) in one write after checking that start is
// the next row it expects, and tagMemo is the TagMemo the lines must
// be encoded with.
type lineSink interface {
	Sink
	tagMemo() bool
	writeLines(start, end int, lines []byte) error
}

// Flusher is the optional Sink upgrade checkpointing relies on: a
// sink that can force delivered rows to stable storage. When the
// run's Sink implements it, RunStream calls Flush immediately before
// every checkpoint write, so the persisted row frontier is always
// covered by durable sink output. Checkpoint writes happen on an
// async writer, so Flush may run concurrently with Consume —
// implementations must serialize internally (NDJSONFile does; its
// fsync deliberately runs outside the lock so delivery never stalls
// behind the disk).
type Flusher interface {
	Flush() error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(i int, r Result) error

// Consume implements Sink.
func (f SinkFunc) Consume(i int, r Result) error { return f(i, r) }

// RowsFunc is a Sink that takes rows by index range only, for a
// caller that counts rows and needs none of their contents. RunStream
// calls it once per committed chunk with the chunk's range [start,
// end), in scenario order, and builds no Results for it; Consume(i, r)
// calls f(i, i+1).
type RowsFunc func(start, end int) error

// Consume implements Sink.
func (f RowsFunc) Consume(i int, _ Result) error { return f(i, i+1) }

// MultiSink fans rows out to several sinks in argument order. In a
// RunStream, delivery goes chunk by chunk: every member takes a chunk,
// in argument order, before any takes the next — an NDJSON member as
// its lines, a RowsFunc as its range, any other member row by row —
// and a member's error stops the members after it from seeing that
// chunk. Its Flush flushes every constituent that implements Flusher,
// so checkpoint durability propagates through the fan-out.
func MultiSink(sinks ...Sink) Sink { return multiSink(sinks) }

type multiSink []Sink

// Consume implements Sink.
func (m multiSink) Consume(i int, r Result) error {
	for _, s := range m {
		if err := s.Consume(i, r); err != nil {
			return err
		}
	}
	return nil
}

// Flush implements Flusher.
func (m multiSink) Flush() error {
	for _, s := range m {
		if f, ok := s.(Flusher); ok {
			if err := f.Flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// Collector is a Sink that materializes rows — what ehdl.RunFleet uses
// to fill Report.Results. Only attach it to fleets you are
// willing to hold in memory. It enforces the Sink ordering contract:
// a row that is not exactly the next expected index is an error.
type Collector struct {
	// Start is the first expected row index: 0 for whole-fleet runs,
	// the partition's start for sharded ones.
	Start int
	Rows  []Result
}

// Consume implements Sink.
func (c *Collector) Consume(i int, r Result) error {
	if want := c.Start + len(c.Rows); i != want {
		return fmt.Errorf("fleet: collector got row %d, want %d", i, want)
	}
	c.Rows = append(c.Rows, r)
	return nil
}

// DefaultChunkSize is RunStream's dispatch granularity: workers claim
// this many consecutive devices at a time. Large enough to amortize
// the per-chunk aggregator shard, small enough that the commit
// frontier — and with it checkpoint coverage — advances promptly.
// Small fleets clamp it further so work still spreads across the
// pool.
const DefaultChunkSize = 256

// StreamOptions configures RunStream.
type StreamOptions struct {
	// Workers bounds the worker pool (<= 0: GOMAXPROCS).
	Workers int
	// ExactPercentiles is the fleet size up to which wall-time
	// percentiles are exact (<= 0: DefaultExactPercentiles). Larger
	// fleets switch to the histogram estimate.
	ExactPercentiles int
	// Sink, when set, receives every row in scenario order.
	Sink Sink
	// Progress, when set, is called with the commit frontier on
	// RunStream's calling goroutine, never concurrently: as chunks
	// commit, at most once per 2 s of Clock time, and once more on
	// completion. Totals are partition-relative: a resumed or sharded
	// run reports (committed-so-far, partition size), counting
	// checkpoint-restored rows as already done.
	Progress func(done, total int)
	// Memo, when set, dedups identical device runs: workers consult
	// the content-addressed memo before simulating and replay cached
	// outcomes (see internal/fleet/memo). Rows and report are
	// bit-identical with or without it; its counters land in
	// Report.Memo. The same memo may be shared across RunStream calls
	// to carry warm state between sweeps.
	Memo *memo.Memo
	// Partition restricts the run to one contiguous device range of
	// the fleet (zero value: the whole fleet). Global indices are
	// preserved — the sink sees exactly the (i, row) pairs a
	// whole-fleet run would produce for the range — so k shards'
	// outputs concatenate and merge bit-identically (see MergeDir).
	Partition Partition
	// ChunkSize overrides DefaultChunkSize (<= 0: default).
	ChunkSize int
	// Context, when set, cancels an in-flight run: workers stop at the
	// next device boundary, no further chunks commit, and RunStream
	// returns an error wrapping ctx.Err(). A cancelled checkpointed run
	// still writes one final checkpoint at its commit frontier — the
	// consistent (aggregator, delivered rows) prefix — so cancellation
	// (the fleet service's job abort and graceful drain) is resumable
	// exactly like a crash, minus the lost tail. nil: never cancelled.
	Context context.Context
	// Pool, when set, draws simulation slots from a WorkerPool shared
	// with other concurrent RunStream calls instead of giving this run
	// Workers unconditional goroutines: each worker holds a slot only
	// while simulating a chunk, so the pool bounds total simulation
	// concurrency across every run sharing it. Workers still bounds
	// this run's goroutine count (its maximum share of the pool);
	// <= 0 or above Pool.Size() means Pool.Size().
	Pool *WorkerPool
	// Clock supplies the host time used for Report.HostSeconds and
	// for pacing Progress — nothing simulated reads it, and no timer
	// paces anything else (nil: SystemClock).
	Clock Clock
}

// chunkDone is a worker's completion record for one fully simulated
// contiguous chunk: its half-open device range, the aggregator shard
// over exactly those rows, and what the sink takes of them (nil when
// the run has no sink).
type chunkDone struct {
	start, end int
	agg        *Agg
	buf        *chunkBuf
}

// chunkBuf holds what the run's sink takes of one chunk: its rows'
// JSON lines when a member takes lines, and the rows themselves when a
// member takes rows. A row whose line fails to encode ends the lines:
// they cover rows [start, bad), and err says why row bad failed.
// Buffers go back to the run's free list once committed.
type chunkBuf struct {
	lines []byte
	rows  []Result
	bad   int
	err   error
}

// lineBytesHint pre-sizes a chunk's line buffer per row: a citywide
// row is about 200 bytes.
const lineBytesHint = 224

// route is how the run's sink takes chunks: its members in argument
// order (a MultiSink flattened), and which buffers a worker fills.
// Lines are encoded with the first lineSink's TagMemo; a lineSink
// with the other TagMemo takes rows. A RowsFunc takes a chunk's range
// and needs neither buffer.
type route struct {
	members []member
	lines   bool
	rows    bool
	tagMemo bool
}

// member is one sink of a route: lines is set for a member that takes
// a chunk's lines, ranges for one that takes its range, neither for
// one that consumes its rows.
type member struct {
	sink   Sink
	lines  lineSink
	ranges RowsFunc
}

func newRoute(s Sink) *route {
	r := &route{}
	if s != nil {
		r.add(s)
	}
	return r
}

func (r *route) add(s Sink) {
	if ms, ok := s.(multiSink); ok {
		for _, m := range ms {
			r.add(m)
		}
		return
	}
	if ls, ok := s.(lineSink); ok && (!r.lines || ls.tagMemo() == r.tagMemo) {
		r.lines, r.tagMemo = true, ls.tagMemo()
		r.members = append(r.members, member{sink: s, lines: ls})
		return
	}
	if f, ok := s.(RowsFunc); ok {
		r.members = append(r.members, member{sink: s, ranges: f})
		return
	}
	r.rows = true
	r.members = append(r.members, member{sink: s})
}

// ckptJob is one queued checkpoint write: a commit frontier and the
// aggregator snapshot taken at exactly that frontier.
type ckptJob struct {
	rows int
	snap []byte
}

// ckptWriter persists checkpoints off the committer's critical path:
// the sink flush + fsync + atomic artifact write cost milliseconds of
// disk latency that would otherwise stall every chunk commit at the
// interval boundary. The committer snapshots the aggregator
// synchronously (the snapshot must capture the frontier state) and
// enqueues the write; at most one job is pending, and a newer frontier
// replaces an unstarted older one — every write is a full rewrite, so
// only the latest matters. The final checkpoint of a completed or
// cancelled run rides the same queue and RunStream drains the writer
// before returning, so a finished run's file always sits at its final
// frontier.
type ckptWriter struct {
	ch   chan ckptJob
	done chan struct{}
	err  error // the first failed write; read only after done closes
}

func newCkptWriter() *ckptWriter {
	return &ckptWriter{ch: make(chan ckptJob, 1), done: make(chan struct{})}
}

// drain closes the queue, waits for the pending write to land and
// returns the first write failure.
func (w *ckptWriter) drain() error {
	close(w.ch)
	<-w.done
	return w.err
}

// committer is RunStream's one ordering stage and the only caller of
// the sink and of Progress. Chunks complete out of order; the
// committer parks early arrivals and, for each gap-free prefix,
// delivers the chunk (one write of its lines to each NDJSON member,
// its range to each RowsFunc, its rows to each other member), merges
// its shard and advances the frontier, in that order. A frontier of R therefore means, by
// construction, that the sink has consumed exactly rows [Start, R) and
// the committed aggregator holds exactly that multiset — the invariant
// that makes each CheckpointState consistent and resume exact.
// Committing a chunk returns its dispatch token, which is what bounds
// the chunks in flight (see runStream).
type committer struct {
	ck         *checkpointing
	state      CheckpointState // identity template; Rows/AggSnap filled per write
	committed  *Agg
	rows       int               // commit frontier: rows [state.Start, rows) are committed
	lastQueued int               // frontier of the most recently queued checkpoint
	queued     bool              // whether this run has queued a checkpoint at all
	pending    map[int]chunkDone // parked chunks, keyed by start index
	route      *route
	free       chan *chunkBuf // committed chunks' buffers, for the workers to reuse
	flusher    Flusher
	writer     *ckptWriter     // nil unless ck is set
	tokens     chan struct{}   // dispatch tokens; one is returned per committed chunk
	abort      <-chan struct{} // closed once the run stops dispatching
	fail       func()          // aborts dispatch after a sink or checkpoint failure
	err        error

	progress func(done, total int) // StreamOptions.Progress
	clock    Clock
	reported time.Time // clock reading at the last progress report
}

// run drains the commits channel until it closes. Once the run has
// failed or aborted it keeps draining (workers must never block on a
// full channel) but stops committing.
func (c *committer) run(commits <-chan chunkDone) {
	for cd := range commits {
		c.pending[cd.start] = cd
		from := c.rows
		for c.err == nil && !c.aborted() {
			nxt, ok := c.pending[c.rows]
			if !ok {
				break
			}
			delete(c.pending, c.rows)
			if err := c.deliver(nxt); err != nil {
				c.err = err
				c.fail()
				break
			}
			c.committed.Merge(nxt.agg)
			c.rows = nxt.end
			<-c.tokens
		}
		if c.rows == from {
			continue
		}
		if c.err == nil && c.ck != nil && c.rows-c.lastQueued >= c.ck.every {
			if err := c.queueCheckpoint(); err != nil {
				c.err = err
				c.fail()
			}
		}
		if c.progress != nil && c.rows < c.state.End { // the final report covers the end
			if now := c.clock.Now(); now.Sub(c.reported) >= progressEvery {
				c.reported = now
				c.report()
			}
		}
	}
}

// report hands the commit frontier to the Progress callback,
// partition-relative.
func (c *committer) report() {
	c.progress(c.rows-c.state.Start, c.state.End-c.state.Start)
}

// aborted reports whether the run has stopped dispatching (a
// cancellation, or a sink or checkpoint failure).
func (c *committer) aborted() bool {
	select {
	case <-c.abort:
		return true
	default:
		return false
	}
}

// deliver hands one chunk to the sink's members in argument order,
// then returns its buffers to the free list.
func (c *committer) deliver(cd chunkDone) error {
	b := cd.buf
	for _, m := range c.route.members {
		if m.ranges != nil {
			if err := m.ranges(cd.start, cd.end); err != nil {
				return fmt.Errorf("fleet: sink at row %d: %w", cd.start, err)
			}
			continue
		}
		if m.lines == nil {
			for k := range b.rows {
				if err := m.sink.Consume(cd.start+k, b.rows[k]); err != nil {
					return fmt.Errorf("fleet: sink at row %d: %w", cd.start+k, err)
				}
			}
			continue
		}
		end := cd.end
		if b.err != nil {
			end = b.bad
		}
		if err := m.lines.writeLines(cd.start, end, b.lines); err != nil {
			return fmt.Errorf("fleet: sink at row %d: %w", cd.start, err)
		}
		if b.err != nil {
			return fmt.Errorf("fleet: sink at row %d: %w", b.bad, b.err)
		}
	}
	if b != nil {
		select {
		case c.free <- b:
		default:
		}
	}
	return nil
}

// queueCheckpoint snapshots the committed aggregator at the current
// frontier and hands the write to the async writer, replacing an
// unstarted older job (single producer, so the replace never races
// another enqueue).
func (c *committer) queueCheckpoint() error {
	snap, err := c.committed.Snapshot()
	if err != nil {
		return err
	}
	job := ckptJob{rows: c.rows, snap: snap}
	select {
	case c.writer.ch <- job:
	default:
		select {
		case <-c.writer.ch:
		default:
		}
		c.writer.ch <- job
	}
	c.lastQueued, c.queued = c.rows, true
	return nil
}

// writeLoop is the async writer goroutine: flush the sink, then land
// the checkpoint atomically. After a failure it keeps draining the
// queue (the committer must never block on a full one) but stops
// writing.
func (c *committer) writeLoop() {
	w := c.writer
	defer close(w.done)
	for job := range w.ch {
		if w.err != nil {
			continue
		}
		if w.err = c.writeCheckpoint(job); w.err != nil {
			c.fail()
		}
	}
}

// writeCheckpoint forces delivered rows to stable storage, then
// atomically rewrites the checkpoint file at job's frontier. By the
// time a checkpoint at frontier R is queued, rows [Start, R) have all
// been handed to the sink, so a flush at any later moment covers them;
// rows past the frontier flushed along the way are harmless (resume
// truncates the sink back to the checkpointed boundary). Flush may run
// concurrently with delivery — see the Flusher contract.
func (c *committer) writeCheckpoint(job ckptJob) error {
	if c.flusher != nil {
		if err := c.flusher.Flush(); err != nil {
			return fmt.Errorf("fleet: flush sink before checkpoint: %w", err)
		}
	}
	st := c.state
	st.Rows = job.rows
	st.AggSnap = job.snap
	if err := st.write(c.ck.path); err != nil {
		return fmt.Errorf("fleet: write checkpoint %s: %w", c.ck.path, err)
	}
	return nil
}

// RunStream simulates the fleet without materializing it: scenarios
// are generated on demand, rows stream through the optional sink in
// scenario order, and the report is aggregated online. Memory is
// O(workers × chunk) rows in flight plus the aggregator (O(exact-
// percentile threshold) worst case), independent of fleet size.
// Scenario-level failures (bad profile, missing model, DNF, a Source
// error for one index) land in that row's Err and do not abort the
// fleet; only a Sink or checkpoint error aborts, returning that error
// (the sink's takes precedence). A cancelled run returns an error
// wrapping ctx.Err(), unless a sink or checkpoint error that does not
// itself wrap ctx.Err() got there first.
//
// The report is bit-identical for any worker count and chunk size,
// and — for fleets within the exact-percentile threshold —
// bit-identical to a collected run with ExactPercentiles set to the
// fleet size (ehdl.RunFleet). A partitioned
// run reports over its device range only; a resumed run's report
// covers restored and newly simulated rows alike, bit-identical to
// the uninterrupted run's.
func RunStream(src Source, opts StreamOptions) (Report, error) {
	return runStream(src, opts, nil)
}

// runStream is RunStream for a DurableRun. A non-nil ck persists the
// commit frontier to ck.path every ck.every rows (on the async
// ckptWriter, flushing a Flusher sink first, so a SIGKILL at any point
// leaves a checkpoint covered by the sink's durable output) and once
// more when the run completes or is cancelled. ck.resume, when set,
// must match this run — fingerprint, fleet size, partition,
// exact-percentile threshold — or the run fails with
// ErrCheckpointMismatch; otherwise it continues at the frontier with
// the restored aggregator, the Sink already positioned there.
//
// Workers always draw simulation slots from a WorkerPool: opts.Pool,
// or a private one of opts.Workers slots. A worker takes a dispatch
// token, claims the next chunk from an atomic cursor, simulates it
// under a pool slot and hands it to the committer, which runs on the
// calling goroutine. A chunk holds its token until it commits, so at
// most 2×workers chunks are simulating or parked in the committer.
func runStream(src Source, opts StreamOptions, ck *checkpointing) (Report, error) {
	clock := orClock(opts.Clock)
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}
	start := clock.Now()
	n := src.Len()
	part := opts.Partition.norm()
	if err := part.validate(); err != nil {
		return Report{}, err
	}
	pstart, pend := part.Range(n)
	threshold := opts.ExactPercentiles
	if threshold <= 0 {
		threshold = DefaultExactPercentiles
	}

	base := pstart
	committed := NewAgg(threshold)
	if ck != nil && ck.resume != nil {
		st := ck.resume
		if err := st.compatible(ck.fingerprint, n, part, threshold); err != nil {
			return Report{}, err
		}
		restored, err := RestoreAgg(st.AggSnap)
		if err != nil {
			return Report{}, err
		}
		committed = restored
		base = st.Rows
	}
	span := pend - base

	pool := opts.Pool
	if pool == nil {
		pool = NewWorkerPool(opts.Workers)
	}
	workers := opts.Workers
	if workers <= 0 || workers > pool.Size() {
		// Goroutines beyond the pool's slots would only queue on it.
		workers = pool.Size()
	}
	workers = min(workers, span)
	chunk := opts.ChunkSize
	if chunk <= 0 {
		chunk = DefaultChunkSize
	}
	if span > 0 {
		chunk = min(chunk, (span+4*workers-1)/(4*workers))
	}

	abort := make(chan struct{})
	var abortOnce sync.Once
	flusher, _ := opts.Sink.(Flusher)
	cm := &committer{
		ck:         ck,
		committed:  committed,
		rows:       base,
		lastQueued: base,
		pending:    make(map[int]chunkDone),
		route:      newRoute(opts.Sink),
		free:       make(chan *chunkBuf, 2*workers), // one per dispatch token
		flusher:    flusher,
		tokens:     make(chan struct{}, 2*workers),
		abort:      abort,
		fail:       func() { abortOnce.Do(func() { close(abort) }) },
		progress:   opts.Progress,
		clock:      clock,
		reported:   start,
	}
	cm.state = CheckpointState{
		Version:   checkpointVersion,
		Devices:   n,
		Part:      part,
		Start:     pstart,
		End:       pend,
		Threshold: threshold,
	}
	if ck != nil {
		cm.state.Fingerprint = ck.fingerprint
		cm.writer = newCkptWriter()
		go cm.writeLoop()
	}

	// A cancelled context stops dispatch and commits.
	defer context.AfterFunc(ctx, cm.fail)()

	// One slot per worker: a worker finishing a chunk rarely waits on
	// the committer.
	commits := make(chan chunkDone, workers)
	var cursor atomic.Int64
	cursor.Store(int64(base))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w := worker{ctx: ctx, src: src, opts: &opts, threshold: threshold, chunk: chunk, route: cm.route, free: cm.free}
			if cm.route.lines {
				w.enc = &workerEncoder{tagMemo: cm.route.tagMemo}
			}
			for {
				select {
				case cm.tokens <- struct{}{}:
				case <-abort:
					return
				}
				cs := int(cursor.Add(int64(chunk))) - chunk
				if cs >= pend {
					<-cm.tokens // nothing left to claim: hand the token back
					return
				}
				if !pool.acquire(ctx, abort) {
					cm.fail()
					return
				}
				cd, ok := w.simulate(cs, min(cs+chunk, pend))
				pool.Release()
				if !ok {
					cm.fail()
					return
				}
				commits <- cd
			}
		}()
	}
	go func() {
		wg.Wait()
		close(commits)
	}()
	cm.run(commits)

	// A sink or checkpoint failure unrelated to a cancellation breaks
	// the run. Otherwise — completed, or cancelled — one final
	// checkpoint lands at the commit frontier: rows [Start, frontier)
	// are aggregated and delivered, and the writer flushes them first,
	// so a cancelled run resumes exactly like a crashed one (anything
	// the sink holds past the frontier is truncated back on resume),
	// and a completed run's file, at the partition end, doubles as the
	// shard artifact's meta and makes its resume a no-op.
	cerr := ctx.Err()
	err := cm.err
	if err != nil && cerr != nil && errors.Is(err, cerr) {
		err = nil
	}
	if err == nil && ck != nil && !(cm.queued && cm.lastQueued == cm.rows) {
		err = cm.queueCheckpoint()
	}
	if cm.writer != nil {
		if werr := cm.writer.drain(); err == nil {
			err = werr
		}
	}
	if err != nil {
		return Report{}, err
	}
	if cerr != nil {
		return Report{}, fmt.Errorf("fleet: run cancelled: %w", cerr)
	}

	rep := committed.Report()
	if opts.Memo != nil {
		st := opts.Memo.Stats()
		rep.Memo = &st
	}
	rep.HostSeconds = clock.Now().Sub(start).Seconds()
	if cm.progress != nil {
		cm.report()
	}
	return rep, nil
}

// worker is one RunStream worker's state across its chunks.
type worker struct {
	ctx       context.Context
	src       Source
	opts      *StreamOptions
	threshold int
	chunk     int
	route     *route
	free      chan *chunkBuf
	table     replayTable
	enc       *workerEncoder // nil unless a sink member takes lines
}

// simulate runs devices [cs, ce) into one chunk's aggregator shard and
// what the sink takes of it, replaying memoized devices through the
// worker's table and adding its replays to the memo's counters once
// per chunk. It reports false when the context is cancelled part-way:
// a partial chunk must never commit, so the frontier never covers a
// half-simulated chunk.
func (w *worker) simulate(cs, ce int) (chunkDone, bool) {
	cd := chunkDone{start: cs, end: ce, agg: newShard(w.threshold, ce-cs)}
	if w.route.lines || w.route.rows {
		cd.buf = w.buffer()
	}
	m := w.opts.Memo
	if m != nil {
		defer func() {
			m.CountReplays(w.table.hits)
			w.table.hits = 0
		}()
	}
	b := cd.buf
	var r Result
	for i := cs; i < ce; i++ {
		if w.ctx.Err() != nil {
			return chunkDone{}, false
		}
		var slot *trajectorySlot
		s, err := w.src.At(i)
		if err != nil {
			// The scenario never existed, so label its breakdown
			// groups explicitly instead of leaving them blank.
			r = Result{
				Name:      fmt.Sprintf("dev%d", i),
				Engine:    "unknown",
				Profile:   "unknown",
				Predicted: -1,
				Diagnosis: SetupErrorDiagnosis,
				Err:       fmt.Errorf("fleet: scenario %d: %w", i, err),
			}
		} else if m != nil {
			slot = w.table.run(&s, m, &r)
		} else {
			r = runOne(s)
		}
		cd.agg.observe(&r)
		if b == nil {
			continue
		}
		if w.route.rows {
			b.rows = append(b.rows, r)
		}
		if w.enc != nil && b.err == nil {
			if b.lines, err = w.enc.append(b.lines, i, &r, slot); err != nil {
				b.bad, b.err = i, err
			}
		}
	}
	return cd, true
}

// buffer takes an emptied chunk buffer from the free list, or makes
// one sized for a chunk.
func (w *worker) buffer() *chunkBuf {
	select {
	case b := <-w.free:
		b.lines, b.rows, b.err = b.lines[:0], b.rows[:0], nil
		return b
	default:
	}
	b := &chunkBuf{}
	if w.route.lines {
		b.lines = make([]byte, 0, w.chunk*lineBytesHint)
	}
	if w.route.rows {
		b.rows = make([]Result, 0, w.chunk)
	}
	return b
}

// progressEvery is the minimum host time between two progress
// reports, read on StreamOptions.Clock.
const progressEvery = 2 * time.Second
