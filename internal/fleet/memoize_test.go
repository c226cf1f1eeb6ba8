package fleet

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ehdl/internal/core"
	"ehdl/internal/exec"
	"ehdl/internal/exec/exectest"
	"ehdl/internal/fixed"
	"ehdl/internal/fleet/memo"
	"ehdl/internal/flex"
	"ehdl/internal/harvest"
	"ehdl/internal/quant"
)

// runMemoized executes one scenario through the memo alone, without a
// worker's replay table: the path of a device the table cannot serve.
func runMemoized(s Scenario, m *memo.Memo) Result {
	r, _ := lookup(s, m)
	return r
}

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

// TestMemoStaleResumeRows: ACE+FLEX on the dense model resumes onto
// overwritten inputs on the smallest capacitors, and then completes
// with logits off the reference executor's on some inputs (the
// knownWrongLogits cases of internal/exec). Those runs must not be
// replayed from the trajectory cache with the reference prediction:
// over the trajectory test's nine inputs, memo-on rows equal memo-off
// rows byte for byte. Rows carry the prediction, not the logits, and
// on the nine inputs the wrong logits keep the reference's argmax, so
// a tenth input of full-scale signs whose stale resumes flip it on all
// three supplies makes the rows show a replay that ignores the flag.
func TestMemoStaleResumeRows(t *testing.T) {
	m := exectest.Model(t, exectest.DenseArch(), 31)
	supplies := []struct {
		name    string
		capF    float64
		profile harvest.Profile
	}{
		{"const-0.68uF", 0.68e-6, harvest.ConstantProfile{Watts: 4e-4}},
		{"sine-0.68uF", 0.68e-6, harvest.SineProfile{PeakWatts: 8e-4, Period: 0.05}},
		{"sine-1.0uF", 1.0e-6, harvest.SineProfile{PeakWatts: 8e-4, Period: 0.05}},
	}
	rng := rand.New(rand.NewSource(307))
	signs := make([]fixed.Q15, 64)
	for i := range signs {
		signs[i] = fixed.One
		if rng.Intn(2) != 0 {
			signs[i] = fixed.MinusOne
		}
	}
	inputs := append(exectest.TrajectoryInputs(m), exectest.Input{Name: "signs-307", X: signs})
	ref := quant.NewExecutor(m)
	var scenarios []Scenario
	offReference := 0
	for _, sup := range supplies {
		cfg := harvest.PaperConfig()
		cfg.CapacitanceF = sup.capF
		for _, in := range inputs {
			s := Scenario{
				Name:   sup.name + "/" + in.Name,
				Engine: core.EngineACEFLEX,
				Model:  m,
				Input:  in.X,
				Setup: core.HarvestSetup{Config: cfg, Profile: sup.profile,
					FlexConfig: &flex.Config{VWarn: 3.0, SampleStride: 2}},
			}
			scenarios = append(scenarios, s)
			if r := runOne(s); r.Completed && r.Predicted != exec.Argmax(ref.Forward(in.X)) {
				offReference++
			}
		}
	}
	if offReference == 0 {
		t.Fatal("no run predicts off the reference; the test no longer exercises stale resumes")
	}
	rows := func(workers int, mm *memo.Memo) []byte {
		var buf bytes.Buffer
		if _, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: workers, Sink: NewNDJSONSink(&buf), Memo: mm}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	want := rows(1, nil)
	for _, workers := range []int{1, 4} {
		if got := rows(workers, memo.New(0)); !bytes.Equal(got, want) {
			t.Errorf("workers=%d: memo-on rows differ from memo-off:\n%s\nvs\n%s", workers, got, want)
		}
	}
}

// TestMemoTrajectoryAcrossInputs: devices that differ only in their
// input share one trajectory class, so the memo simulates the first
// and replays the rest with each input's reference prediction.
func TestMemoTrajectoryAcrossInputs(t *testing.T) {
	m := tinyModel(t)
	proto := testFleet(t, m)[1] // sonic on a square wave
	const n = 8
	scenarios := make([]Scenario, n)
	for i := range scenarios {
		scenarios[i] = proto
		scenarios[i].Name = fmt.Sprintf("input/%d", i)
		in := make([]fixed.Q15, len(proto.Input))
		for j := range in {
			in[j] = fixed.FromFloat(0.11 * float64((i*7+j)%9-4))
		}
		scenarios[i].Input = in
	}
	want := collectRun(t, scenarios, 1).Results
	mm := memo.New(0)
	sink := &orderSink{t: t}
	rep, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: 1, Memo: mm, Sink: sink})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Memo.Misses != 1 || rep.Memo.FullHits != n-1 {
		t.Fatalf("stats %+v, want 1 miss and %d full hits", rep.Memo, n-1)
	}
	preds := map[int]bool{}
	for i := range want {
		got := sink.rows[i]
		got.Memo = ""
		if !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("row %d: replayed %+v, simulated %+v", i, got, want[i])
		}
		preds[want[i].Predicted] = true
	}
	if len(preds) < 2 {
		t.Fatalf("every input predicts the same class %v; the replay's prediction is untested", preds)
	}
}

// TestMemoPointerProfileIsSetupError: a pointer to a value profile is
// outside the capacitor's profile set, so its device is a setup error.
// The memo must not key it like the equal value profile and replay
// that device's completed row.
func TestMemoPointerProfileIsSetupError(t *testing.T) {
	m := tinyModel(t)
	value := testFleet(t, m)[0] // a square wave
	sq := value.Setup.Profile.(harvest.SquareProfile)
	pointer := value
	pointer.Name = "pointer"
	pointer.Setup.Profile = &sq
	scenarios := []Scenario{value, pointer}

	rows := func(mm *memo.Memo) []byte {
		var buf bytes.Buffer
		if _, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: 1, Sink: NewNDJSONSink(&buf), Memo: mm}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	if off, on := rows(nil), rows(memo.New(0)); !bytes.Equal(off, on) {
		t.Fatalf("memo-on rows differ from memo-off:\n%s\nvs\n%s", on, off)
	}
	res := collectRun(t, scenarios, 1).Results
	if !res[0].Completed {
		t.Fatalf("value-profile device did not complete: %+v", res[0])
	}
	if r := res[1]; r.Diagnosis != SetupErrorDiagnosis || r.Profile != "custom" {
		t.Fatalf("pointer-profile row: diagnosis %q, profile %q; want %q, \"custom\"", r.Diagnosis, r.Profile, SetupErrorDiagnosis)
	}
}

// TestMemoUnknownEngineBypasses: a key has no code for an engine
// outside core.AllEngines, so its devices bypass the memo: memo-on
// rows equal memo-off rows byte for byte, two different unknown
// engines both run for real (neither fills nor replays the other's
// row), and a tagged sink leaves their rows untagged, as it does for
// every device the memo cannot address.
func TestMemoUnknownEngineBypasses(t *testing.T) {
	m := tinyModel(t)
	known := testFleet(t, m)[1] // sonic on a square wave
	var scenarios []Scenario
	for i, engine := range []core.EngineKind{"warp", "zoom", "warp", "zoom"} {
		s := known
		s.Name, s.Engine = fmt.Sprintf("unknown/%d", i), engine
		scenarios = append(scenarios, s)
	}
	scenarios = append(scenarios, known)

	rows := func(mm *memo.Memo, tag bool) (Report, []byte) {
		var buf bytes.Buffer
		sink := NewNDJSONSink(&buf)
		sink.TagMemo = tag
		rep, err := RunStream(SliceSource(scenarios), StreamOptions{Workers: 1, Sink: sink, Memo: mm})
		if err != nil {
			t.Fatal(err)
		}
		return rep, buf.Bytes()
	}
	_, off := rows(nil, false)
	rep, on := rows(memo.New(0), false)
	if !bytes.Equal(off, on) {
		t.Fatalf("memo-on rows differ from memo-off:\n%s\nvs\n%s", on, off)
	}
	for _, engine := range []string{"warp", "zoom"} {
		if n := strings.Count(string(on), fmt.Sprintf(`unknown engine \"%s\"`, engine)); n != 2 {
			t.Errorf("%d rows report engine %s unknown, want 2", n, engine)
		}
	}
	if s := rep.Memo; s.Misses != 1 || s.Hits() != 0 || s.Entries == 0 || s.Fills != uint64(s.Entries) {
		t.Errorf("stats %+v: want the one known device alone to miss and fill", s)
	}

	_, tagged := rows(memo.New(0), true)
	lines := strings.Split(strings.TrimSpace(string(tagged)), "\n")
	for _, line := range lines[:4] {
		if strings.Contains(line, `"memo"`) {
			t.Errorf("unaddressable device's row tagged: %s", line)
		}
	}
	if !strings.Contains(lines[4], `"memo":"miss"`) {
		t.Errorf("known device's row not tagged miss: %s", lines[4])
	}
}

// TestMemoHitAllocatesNothing: replaying a device from a filled memo —
// probe, lookup and row — makes no heap allocation, whether it hits
// its class's trajectory, an input-keyed outcome or the compute tier.
func TestMemoHitAllocatesNothing(t *testing.T) {
	m := tinyModel(t)
	all := testFleet(t, m)
	mm := memo.New(0)
	for _, s := range all {
		runMemoized(s, mm)
	}
	kinds := map[string]bool{}
	for _, s := range all {
		r := runMemoized(s, mm)
		if r.Memo == memo.Miss.String() {
			t.Fatalf("%s missed a filled memo", s.Name)
		}
		kinds[r.Memo] = true
		if a := testing.AllocsPerRun(50, func() { r = runMemoized(s, mm) }); a != 0 {
			t.Errorf("%s (%s): a replay allocates %v times, want 0", s.Name, r.Memo, a)
		}
	}
	if !kinds[memo.HitFull.String()] || !kinds[memo.HitCompute.String()] {
		t.Fatalf("replays covered only %v", kinds)
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

// TestReplayTable: a worker's table replays a device once its class's
// trajectory-tier hit has filled the device's slots, with the same row
// the memo serves, and never fills a slot from an input-keyed hit.
// The stale device is an ACE+FLEX run of TestMemoStaleResumeRows that
// resumes stale and predicts off the reference; the clean one runs the
// same model and input on a large capacitor, under the same
// prediction handle. Were the stale device's input-keyed hit recorded,
// the clean device's next replay would take its prediction.
func TestReplayTable(t *testing.T) {
	m := exectest.Model(t, exectest.DenseArch(), 31)
	rng := rand.New(rand.NewSource(307))
	signs := make([]fixed.Q15, 64)
	for i := range signs {
		signs[i] = fixed.One
		if rng.Intn(2) != 0 {
			signs[i] = fixed.MinusOne
		}
	}
	flexCfg := &flex.Config{VWarn: 3.0, SampleStride: 2}
	staleCfg := harvest.PaperConfig()
	staleCfg.CapacitanceF = 0.68e-6
	stale := Scenario{
		Name: "stale", Engine: core.EngineACEFLEX, Model: m, Input: signs,
		Setup:            core.HarvestSetup{Config: staleCfg, Profile: harvest.ConstantProfile{Watts: 4e-4}, FlexConfig: flexCfg},
		TrajectoryHandle: 1, PredictionHandle: 1,
	}
	clean := stale
	clean.Name = "clean"
	clean.Setup.Config = harvest.PaperConfig()
	clean.TrajectoryHandle = 2
	want := runOne(clean)
	if got := runOne(stale); got.CleanResumes || !got.Completed || got.Predicted == want.Predicted {
		t.Fatalf("stale device: clean resumes %v, completed %v, predicted %d (clean %d); want a stale completion off the reference",
			got.CleanResumes, got.Completed, got.Predicted, want.Predicted)
	}
	if !want.CleanResumes || !want.Completed {
		t.Fatalf("clean device: clean resumes %v, completed %v", want.CleanResumes, want.Completed)
	}

	mm := memo.New(0)
	var table replayTable
	for k, step := range []struct {
		s      Scenario
		tabled bool // served from the table
	}{
		{clean, false}, // miss
		{clean, false}, // trajectory-tier hit: fills slots 2 and 1
		{clean, true},
		{stale, false}, // miss
		{stale, false}, // input-keyed hit: fills nothing
		{stale, false},
		{clean, true},
	} {
		before := table.hits
		var got Result
		table.run(&step.s, mm, &got)
		if tabled := table.hits > before; tabled != step.tabled {
			t.Errorf("step %d (%s): served from the table %v, want %v", k, step.s.Name, tabled, step.tabled)
		}
		ref := runOne(step.s)
		got.Memo = ""
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("step %d (%s): row %+v, want %+v", k, step.s.Name, got, ref)
		}
	}
	mm.CountReplays(table.hits)
	if st := mm.Stats(); st.Hits()+st.Misses != 7 {
		t.Errorf("stats %+v count %d devices, want 7", st, st.Hits()+st.Misses)
	}
}
