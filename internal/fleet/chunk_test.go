package fleet

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ehdl/internal/core"
	"ehdl/internal/fixed"
	"ehdl/internal/fleet/memo"
	"ehdl/internal/harvest"
)

// chunkFleet builds n devices over seven trajectory classes (three
// engines on a small capacitor under a square wave and on a large one
// under constant power, plus a dead device) and three inputs, with
// the replay handles a compiled source would give them, so a memoized
// run replays most devices from its workers' tables. Device 11 is
// named `a"b<`, which takes encoding/json's escapes.
func chunkFleet(t *testing.T, n int) []Scenario {
	t.Helper()
	m := tinyModel(t)
	inputs := make([][]fixed.Q15, 3)
	for k := range inputs {
		inputs[k] = make([]fixed.Q15, 16)
		for j := range inputs[k] {
			inputs[k][j] = fixed.FromFloat(0.9 * math.Sin(float64(7*k+j)))
		}
	}
	engines := []core.EngineKind{core.EngineACEFLEX, core.EngineSONIC, core.EngineTAILS}
	var classes []core.HarvestSetup
	var classEngine []core.EngineKind
	for _, e := range engines {
		square, constant := core.PaperHarvestSetup(), core.PaperHarvestSetup()
		square.Profile = harvest.SquareProfile{PeakWatts: 4e-3, Period: 0.1, Duty: 0.5}
		square.Config.CapacitanceF = 1e-6 // several boots
		constant.Profile = harvest.ConstantProfile{Watts: 3e-3}
		classes = append(classes, square, constant)
		classEngine = append(classEngine, e, e)
	}
	dead := core.PaperHarvestSetup()
	dead.Profile = harvest.ConstantProfile{}
	dead.Config.CapacitanceF = 5e-7
	classes = append(classes, dead)
	classEngine = append(classEngine, core.EngineACEFLEX)

	scenarios := make([]Scenario, n)
	for i := range scenarios {
		c, k := i%len(classes), (i/len(classes))%len(inputs)
		scenarios[i] = Scenario{
			Name:             fmt.Sprintf("dev/%d", i),
			Engine:           classEngine[c],
			Model:            m,
			Input:            inputs[k],
			Setup:            classes[c],
			TrajectoryHandle: uint32(c + 1),
			PredictionHandle: uint32(int(memo.Discipline(classEngine[c]))*len(inputs) + k + 1),
		}
	}
	scenarios[11].Name = `a"b<`
	return scenarios
}

// consumeLines is the per-row reference: rows fed one at a time
// through NDJSONSink.Consume, from global index start.
func consumeLines(t *testing.T, rows []Result, start int, tagMemo bool) []byte {
	t.Helper()
	var buf bytes.Buffer
	sink := NewNDJSONSinkAt(&buf, start)
	sink.TagMemo = tagMemo
	for k, r := range rows {
		if err := sink.Consume(start+k, r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// chunkSinkShape builds one of the sinks a run can deliver into, and
// reads back what it received once the run returns.
type chunkSinkShape struct {
	name string
	open func(t *testing.T, tagMemo bool) (Sink, func() ([]byte, []Result))
}

var chunkSinkShapes = []chunkSinkShape{
	{"ndjson", func(t *testing.T, tagMemo bool) (Sink, func() ([]byte, []Result)) {
		var buf bytes.Buffer
		s := NewNDJSONSink(&buf)
		s.TagMemo = tagMemo
		return s, func() ([]byte, []Result) { return buf.Bytes(), nil }
	}},
	{"file", func(t *testing.T, tagMemo bool) (Sink, func() ([]byte, []Result)) {
		f, read := openChunkFile(t, tagMemo)
		return f, func() ([]byte, []Result) { return read(), nil }
	}},
	{"file+collector", func(t *testing.T, tagMemo bool) (Sink, func() ([]byte, []Result)) {
		f, read := openChunkFile(t, tagMemo)
		c := &Collector{}
		return MultiSink(f, c), func() ([]byte, []Result) { return read(), c.Rows }
	}},
}

func openChunkFile(t *testing.T, tagMemo bool) (*NDJSONFile, func() []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rows.ndjson")
	f, err := NewNDJSONFile(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.TagMemo = tagMemo
	return f, func() []byte {
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
}

// memoTags reads each line's memo tag, failing on a tag no run writes.
func memoTags(t *testing.T, lines []byte) []string {
	t.Helper()
	var tags []string
	for _, line := range bytes.SplitAfter(lines, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		var row NDJSONRow
		if err := json.Unmarshal(line, &row); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		switch row.Memo {
		case memo.Miss.String(), memo.HitFull.String(), memo.HitCompute.String():
		default:
			t.Fatalf("line %q: memo tag %q", line, row.Memo)
		}
		tags = append(tags, row.Memo)
	}
	return tags
}

// TestRunStreamChunkLines: NDJSON sinks take each chunk as the lines
// its worker encoded, and the bytes are what feeding the rows one at a
// time through NDJSONSink.Consume writes, for every sink shape, worker
// count, chunk size, memo state and TagMemo. Warm runs replay most
// rows from slots whose bytes were cached under another device's name
// and prediction.
func TestRunStreamChunkLines(t *testing.T) {
	scenarios := chunkFleet(t, 210)
	ref := &Collector{}
	if _, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: 1, Sink: ref}); err != nil {
		t.Fatal(err)
	}
	// The fixture must reuse a slot under other predictions: some
	// completed class predicts more than one argmax.
	preds := map[uint32]map[int]bool{}
	for i, r := range ref.Rows {
		h := scenarios[i].TrajectoryHandle
		if preds[h] == nil {
			preds[h] = map[int]bool{}
		}
		preds[h][r.Predicted] = true
	}
	reused := false
	for _, p := range preds {
		reused = reused || len(p) > 1
	}
	if !reused {
		t.Fatal("no trajectory class predicts more than one class: the fixture cannot catch a cached prediction")
	}
	if ref.Rows[11].Name != `a"b<` || ref.Rows[11].Err != nil {
		t.Fatalf("row 11 %+v: want the escaped name on a plain row", ref.Rows[11])
	}

	for _, shape := range chunkSinkShapes {
		for _, workers := range []int{1, 2, 4} {
			for _, chunk := range []int{1, 7, 256} {
				for _, memoState := range []string{"off", "cold", "warm"} {
					for _, tagMemo := range []bool{false, true} {
						name := fmt.Sprintf("%s/w%d/c%d/memo-%s/tag-%v", shape.name, workers, chunk, memoState, tagMemo)
						t.Run(name, func(t *testing.T) {
							var mm *memo.Memo
							if memoState != "off" {
								mm = memo.New(0)
							}
							if memoState == "warm" {
								if _, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: workers, Memo: mm}); err != nil {
									t.Fatal(err)
								}
							}
							sink, read := shape.open(t, tagMemo)
							if _, err := RunStream(SliceSource(scenarios), StreamOptions{
								Workers: workers, ChunkSize: chunk, Memo: mm, Sink: sink,
							}); err != nil {
								t.Fatal(err)
							}
							got, collected := read()
							rows := ref.Rows
							switch {
							case collected != nil:
								if !reflect.DeepEqual(stripRowTags(collected), stripRowTags(ref.Rows)) {
									t.Fatal("collected rows differ from the reference")
								}
								rows = collected
							case tagMemo && mm != nil:
								// Which rows miss is up to the schedule: take
								// each row's tag from its line.
								tags := memoTags(t, got)
								if len(tags) != len(rows) {
									t.Fatalf("%d lines, want %d", len(tags), len(rows))
								}
								rows = stripRowTags(rows)
								for k := range rows {
									rows[k].Memo = tags[k]
									if memoState == "warm" && tags[k] != memo.HitFull.String() {
										t.Fatalf("row %d tagged %q on a warm memo", k, tags[k])
									}
								}
							}
							if want := consumeLines(t, rows, 0, tagMemo); !bytes.Equal(got, want) {
								t.Fatalf("chunk lines differ from per-row Consume at byte %d:\n got %.300s\nwant %.300s",
									firstDiff(got, want), got[lineStart(got, firstDiff(got, want)):],
									want[lineStart(want, firstDiff(got, want)):])
							}
						})
					}
				}
			}
		}
	}
}

func firstDiff(a, b []byte) int {
	for k := 0; k < len(a) && k < len(b); k++ {
		if a[k] != b[k] {
			return k
		}
	}
	return min(len(a), len(b))
}

func lineStart(b []byte, at int) int {
	return bytes.LastIndexByte(b[:min(at, len(b))], '\n') + 1
}

// TestRunStreamChunkLinesNaN: a row whose energy is NaN fails the run
// with the error per-row delivery gives — encoding/json's, at that
// row — and every row before it is written. The memo serves the NaN:
// its class's trajectory entry is filled with it before the run.
func TestRunStreamChunkLinesNaN(t *testing.T) {
	scenarios := chunkFleet(t, 60)
	const bad = 23
	nan := &scenarios[bad]
	nan.Setup.Profile = harvest.ConstantProfile{Watts: 2.5e-3}
	nan.TrajectoryHandle = 8
	ref := &Collector{}
	if _, err := RunStream(SliceSource(scenarios[:bad]), StreamOptions{Workers: 1, Sink: ref}); err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("fleet: sink at row %d: json: unsupported value: NaN", bad)

	for _, shape := range chunkSinkShapes {
		for _, workers := range []int{1, 2, 4} {
			for _, chunk := range []int{1, 7, 256} {
				t.Run(fmt.Sprintf("%s/w%d/c%d", shape.name, workers, chunk), func(t *testing.T) {
					mm := memo.New(0)
					var probe memo.Probe
					if !probe.Reset(memoDevice(nan)) {
						t.Fatal("the NaN device cannot be probed")
					}
					mm.Fill(&probe, memo.Outcome{
						Profile: "const", Completed: true, Boots: 1, ActiveSec: 0.5, WallSec: 1,
						EnergymJ: math.NaN(), Diagnosis: "completed", CleanResumes: true,
					})
					sink, read := shape.open(t, false)
					_, err := RunStream(SliceSource(scenarios), StreamOptions{
						Workers: workers, ChunkSize: chunk, Memo: mm, Sink: sink,
					})
					if err == nil || err.Error() != want {
						t.Fatalf("err = %v, want %q", err, want)
					}
					got, collected := read()
					if !bytes.Equal(got, consumeLines(t, ref.Rows, 0, false)) {
						t.Fatalf("wrote %d lines before the failing row, want the %d rows before it",
							bytes.Count(got, []byte("\n")), bad)
					}
					if len(collected) > bad || !reflect.DeepEqual(stripRowTags(collected), stripRowTags(ref.Rows[:len(collected)])) {
						t.Fatalf("collector took %d rows, want a prefix of the %d before the failing row", len(collected), bad)
					}
				})
			}
		}
	}
}

// TestRunStreamChunkLinesTagMix: a MultiSink whose NDJSON members
// disagree on TagMemo gives each its own bytes: the first member's
// TagMemo sets the workers' encoding, and the other member takes rows.
func TestRunStreamChunkLinesTagMix(t *testing.T) {
	scenarios := chunkFleet(t, 40)
	var plain, tagged bytes.Buffer
	a, b := NewNDJSONSink(&plain), NewNDJSONSink(&tagged)
	b.TagMemo = true
	c := &Collector{}
	if _, err := RunStream(SliceSource(scenarios), StreamOptions{
		Workers: 2, ChunkSize: 3, Memo: memo.New(0), Sink: MultiSink(a, MultiSink(b, c)),
	}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(plain.Bytes(), consumeLines(t, c.Rows, 0, false)) {
		t.Error("untagged member's bytes differ from per-row Consume")
	}
	if !bytes.Equal(tagged.Bytes(), consumeLines(t, c.Rows, 0, true)) {
		t.Error("tagged member's bytes differ from per-row Consume")
	}
	if !strings.Contains(tagged.String(), `"memo":"hit-full"`) {
		t.Error("tagged member carries no memo tags")
	}
}
