package fleet

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"ehdl/internal/fleet/memo"
)

// memoFields additionally strips the memo-dependent diagnostics
// (stats snapshot, per-row hit tags) that are scheduling-dependent by
// design — everything else must be bit-identical memo-on vs memo-off.
func memoFields(r Report) Report {
	r = aggFields(r)
	r.Memo = nil
	return r
}

func stripRowTags(rows []Result) []Result {
	out := make([]Result, len(rows))
	for i, r := range rows {
		r.Memo = ""
		out[i] = r
	}
	return out
}

// TestMemoBitIdentical is the tentpole's core contract: with the memo
// on, the report and every NDJSON row are byte-identical to the
// unmemoized pipeline, for any worker count. testFleet mixes all five
// engines, three waveforms and a dead device, so both tiers and the
// miss path are exercised.
func TestMemoBitIdentical(t *testing.T) {
	m := tinyModel(t)
	scenarios := testFleet(t, m)

	var baseBuf bytes.Buffer
	base, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: 4, Sink: NewNDJSONSink(&baseBuf)})
	if err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 4, 16} {
		var buf bytes.Buffer
		sink := NewNDJSONSink(&buf)
		rep, err := RunStream(SliceSource(scenarios), StreamOptions{
			Workers: workers,
			Sink:    sink,
			Memo:    memo.New(0),
		})
		if err != nil {
			t.Fatal(err)
		}
		if rep.Memo == nil {
			t.Fatalf("workers=%d: memoized run reported no memo stats", workers)
		}
		if got := rep.Memo.Hits() + rep.Memo.Misses; got != uint64(len(scenarios)) {
			t.Errorf("workers=%d: %d lookups for %d devices", workers, got, len(scenarios))
		}
		if !reflect.DeepEqual(memoFields(base), memoFields(rep)) {
			t.Fatalf("workers=%d: memoized report diverges:\n%+v\nvs\n%+v",
				workers, memoFields(base), memoFields(rep))
		}
		if !bytes.Equal(baseBuf.Bytes(), buf.Bytes()) {
			t.Fatalf("workers=%d: memoized NDJSON differs from unmemoized", workers)
		}
	}
}

// TestMemoHitCounters: with one worker the schedule is sequential, so
// the counter split is exact — a fleet of identical devices is one
// miss and N-1 full hits.
func TestMemoHitCounters(t *testing.T) {
	m := tinyModel(t)
	proto := testFleet(t, m)[1] // sonic on a square wave
	const n = 12
	scenarios := make([]Scenario, n)
	for i := range scenarios {
		scenarios[i] = proto
		scenarios[i].Name = fmt.Sprintf("clone/%02d", i)
	}
	mm := memo.New(0)
	rep, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: 1, Memo: mm})
	if err != nil {
		t.Fatal(err)
	}
	s := rep.Memo
	if s.Misses != 1 || s.FullHits != n-1 || s.Fills == 0 {
		t.Fatalf("stats %+v, want 1 miss and %d full hits", s, n-1)
	}
	if rep.CompletionRate != 1 {
		t.Fatalf("replayed clones did not all complete: %+v", rep)
	}
}

// TestMemoComputeTier: the same (engine, model, input) across
// different waveforms must cross-hit on Tier 2 when the run fits a
// single charge — and the synthesized rows must equal simulated ones.
func TestMemoComputeTier(t *testing.T) {
	m := tinyModel(t)
	all := testFleet(t, m)
	// testFleet devices 1, 7, 13: sonic with ample square, sine and
	// const power — same model and input, three waveforms.
	scenarios := []Scenario{all[1], all[7], all[13]}

	want := collectRun(t, scenarios, 1).Results

	mm := memo.New(0)
	sink := &orderSink{t: t}
	rep, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: 1, Memo: mm, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Memo.ComputeHits != 2 || rep.Memo.Misses != 1 {
		t.Fatalf("stats %+v, want 1 miss then 2 compute hits", rep.Memo)
	}
	for i := range want {
		a, b := want[i], sink.rows[i]
		b.Memo = ""
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("row %d: synthesized %+v, simulated %+v", i, sink.rows[i], want[i])
		}
	}
}

// TestMemoEvictionBitIdentity: a memo far smaller than the fleet
// thrashes its LRU, yet refills reproduce the same bits — capacity
// only trades host time.
func TestMemoEvictionBitIdentity(t *testing.T) {
	m := tinyModel(t)
	scenarios := testFleet(t, m)
	// Visit the fleet twice so evicted keys get re-filled.
	doubled := append(append([]Scenario(nil), scenarios...), scenarios...)

	base, err := RunStream(SliceSource(doubled), StreamOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	mm := memo.New(2)
	rep, err := RunStream(SliceSource(doubled), StreamOptions{Workers: 1, Memo: mm})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Memo.Evictions == 0 {
		t.Fatal("capacity-2 memo over a mixed fleet never evicted")
	}
	if !reflect.DeepEqual(memoFields(base), memoFields(rep)) {
		t.Fatalf("thrashing memo changed the report:\n%+v\nvs\n%+v",
			memoFields(base), memoFields(rep))
	}
}

// TestMemoSharedAcrossRuns: the same memo instance carries warm state
// between RunStream calls — a repeat sweep is all hits and the same
// report.
func TestMemoSharedAcrossRuns(t *testing.T) {
	m := tinyModel(t)
	scenarios := testFleet(t, m)
	mm := memo.New(0)
	first, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: 1, Memo: mm})
	if err != nil {
		t.Fatal(err)
	}
	second, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: 1, Memo: mm})
	if err != nil {
		t.Fatal(err)
	}
	delta := second.Memo.Misses - first.Memo.Misses
	if delta != 0 {
		t.Fatalf("warm sweep missed %d times", delta)
	}
	if !reflect.DeepEqual(memoFields(first), memoFields(second)) {
		t.Fatalf("warm sweep changed the report:\n%+v\nvs\n%+v",
			memoFields(first), memoFields(second))
	}
}

// TestMemoTagRows: opting into TagMemo annotates each NDJSON row with
// its hit kind; the default sink must never emit the key (that is
// what keeps default output byte-identical memo-on/off).
func TestMemoTagRows(t *testing.T) {
	m := tinyModel(t)
	proto := testFleet(t, m)[1]
	scenarios := []Scenario{proto, proto, proto}

	var buf bytes.Buffer
	sink := NewNDJSONSink(&buf)
	sink.TagMemo = true
	if _, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: 1, Memo: memo.New(0), Sink: sink}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if !strings.Contains(lines[0], `"memo":"miss"`) {
		t.Errorf("first row not tagged miss: %s", lines[0])
	}
	for _, line := range lines[1:] {
		if !strings.Contains(line, `"memo":"hit-full"`) {
			t.Errorf("replayed row not tagged hit-full: %s", line)
		}
	}

	// Untagged sink on a memoized run: no memo key anywhere.
	buf.Reset()
	if _, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: 1, Memo: memo.New(0), Sink: NewNDJSONSink(&buf)}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), `"memo"`) {
		t.Error("default sink leaked memo tags into NDJSON")
	}
}

// TestMemoRender: the report renderer surfaces the memo counters.
func TestMemoRender(t *testing.T) {
	m := tinyModel(t)
	rep, err := RunStream(SliceSource(testFleet(t, m)), StreamOptions{Workers: 2, Memo: memo.New(0)})
	if err != nil {
		t.Fatal(err)
	}
	out := RenderReport(rep)
	if !strings.Contains(out, "memo:") {
		t.Fatalf("render lost the memo line:\n%s", out)
	}
	if out2 := RenderReport(collectRun(t, testFleet(t, m), 2)); strings.Contains(out2, "memo:") {
		t.Fatal("unmemoized render shows a memo line")
	}
}
