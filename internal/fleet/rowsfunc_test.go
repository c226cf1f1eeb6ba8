package fleet

import (
	"bytes"
	"fmt"
	"math"
	"testing"

	"ehdl/internal/fleet/memo"
	"ehdl/internal/harvest"
)

// rangeLog is a RowsFunc that records every range it takes.
type rangeLog struct{ ranges [][2]int }

func (l *rangeLog) sink() RowsFunc {
	return func(start, end int) error {
		l.ranges = append(l.ranges, [2]int{start, end})
		return nil
	}
}

// covers checks that the ranges are non-empty, contiguous and in order,
// and cover [start, end) exactly once.
func (l *rangeLog) covers(t *testing.T, start, end int) {
	t.Helper()
	next := start
	for _, r := range l.ranges {
		if r[0] != next || r[1] <= r[0] {
			t.Fatalf("range [%d, %d) after rows up to %d: ranges %v", r[0], r[1], next, l.ranges)
		}
		next = r[1]
	}
	if next != end {
		t.Fatalf("ranges end at %d, want %d: %v", next, end, l.ranges)
	}
}

// TestRunStreamRowsFuncSink: a RowsFunc takes each committed chunk as
// one contiguous range, alone and behind an NDJSON file, for every
// worker count and chunk size, whole-fleet and partitioned; a run
// whose only row-consuming member is a RowsFunc builds no Result
// chunk; and the NDJSON bytes are per-row Consume's.
func TestRunStreamRowsFuncSink(t *testing.T) {
	scenarios := chunkFleet(t, 210)
	ref := &Collector{}
	if _, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: 1, Sink: ref}); err != nil {
		t.Fatal(err)
	}
	for _, withFile := range []bool{false, true} {
		for _, part := range []Partition{{}, {Index: 1, Of: 3}} {
			for _, workers := range []int{1, 2, 4} {
				for _, chunk := range []int{1, 7, 256} {
					name := fmt.Sprintf("file-%v/part%d-%d/w%d/c%d", withFile, part.Index, part.Of, workers, chunk)
					t.Run(name, func(t *testing.T) {
						start, end := part.norm().Range(len(scenarios))
						var log rangeLog
						var sink Sink = log.sink()
						var read func() []byte
						if withFile {
							f, r := openChunkFile(t, false)
							f.sink.next = start
							sink, read = MultiSink(f, log.sink()), r
						}
						if rt := newRoute(sink); rt.rows {
							t.Fatal("a route of NDJSON and RowsFunc members builds Result chunks")
						}
						if _, err := RunStream(SliceSource(scenarios), StreamOptions{
							Workers: workers, ChunkSize: chunk, Memo: memo.New(0), Sink: sink, Partition: part,
						}); err != nil {
							t.Fatal(err)
						}
						log.covers(t, start, end)
						if !withFile {
							return
						}
						if got, want := read(), consumeLines(t, ref.Rows[start:end], start, false); !bytes.Equal(got, want) {
							t.Fatalf("NDJSON bytes differ from per-row Consume at byte %d", firstDiff(got, want))
						}
					})
				}
			}
		}
	}
}

// TestRunStreamRowsFuncSinkAfterFailure: a RowsFunc behind an NDJSON
// member that fails on a NaN row never sees that row's chunk: its
// ranges stop at the chunk's start, which the file's rows reach.
func TestRunStreamRowsFuncSinkAfterFailure(t *testing.T) {
	scenarios := chunkFleet(t, 60)
	const bad = 23
	nan := &scenarios[bad]
	nan.Setup.Profile = harvest.ConstantProfile{Watts: 2.5e-3}
	nan.TrajectoryHandle = 8
	for _, workers := range []int{1, 2, 4} {
		for _, chunk := range []int{1, 7, 256} {
			t.Run(fmt.Sprintf("w%d/c%d", workers, chunk), func(t *testing.T) {
				mm := memo.New(0)
				var probe memo.Probe
				if !probe.Reset(memoDevice(nan)) {
					t.Fatal("the NaN device cannot be probed")
				}
				mm.Fill(&probe, memo.Outcome{
					Profile: "const", Completed: true, Boots: 1, ActiveSec: 0.5, WallSec: 1,
					EnergymJ: math.NaN(), Diagnosis: "completed", CleanResumes: true,
				})
				f, read := openChunkFile(t, false)
				var log rangeLog
				if _, err := RunStream(SliceSource(scenarios), StreamOptions{
					Workers: workers, ChunkSize: chunk, Memo: mm, Sink: MultiSink(f, log.sink()),
				}); err == nil {
					t.Fatal("a NaN row did not fail the run")
				}
				frontier := 0
				if n := len(log.ranges); n > 0 {
					frontier = log.ranges[n-1][1]
				}
				log.covers(t, 0, frontier)
				if frontier > bad {
					t.Fatalf("RowsFunc saw rows up to %d, past the failing row %d", frontier, bad)
				}
				if lines := bytes.Count(read(), []byte("\n")); lines != bad {
					t.Fatalf("file holds %d rows, want the %d before the failing row", lines, bad)
				}
			})
		}
	}
}

// TestRowsFuncConsume: outside a RunStream a RowsFunc takes each row
// as a one-row range.
func TestRowsFuncConsume(t *testing.T) {
	var log rangeLog
	s := MultiSink(log.sink())
	for i := 5; i < 8; i++ {
		if err := s.Consume(i, Result{}); err != nil {
			t.Fatal(err)
		}
	}
	log.covers(t, 5, 8)
	if len(log.ranges) != 3 {
		t.Fatalf("ranges %v, want one per row", log.ranges)
	}
}
