package fleet

import (
	"errors"
	"reflect"
	"sort"
	"testing"

	"ehdl/internal/core"
)

// aggFuzzRow decodes one fuzzed row from two bytes: engine, profile
// and diagnosis (one of them "") from small sets, completion and an
// error from two bits, and a wall time from a set that holds 0.
func aggFuzzRow(b0, b1 byte) Result {
	engines := [...]core.EngineKind{core.EngineACEFLEX, core.EngineSONIC, core.EngineTAILS}
	profiles := [...]string{"square", "const", ""}
	diagnoses := [...]string{"", "completed", "boot-limit", "frozen-progress"}
	walls := [...]float64{0, 1e-7, 2.5e-3, 0.125, 0.125, 3, 47.5, 1e8}
	r := Result{
		Engine:    engines[int(b0&3)%len(engines)],
		Profile:   profiles[int(b0>>2&3)%len(profiles)],
		Diagnosis: diagnoses[b0>>4&3],
		Completed: b0&0x40 != 0,
		Boots:     uint64(b1 >> 3),
		WallSec:   walls[b1&7],
	}
	if b0&0x80 != 0 {
		r.Err = errors.New("dnf")
	}
	return r
}

// FuzzAggShards: rows observed into shards of fuzzed sizes and merged
// in fuzzed order and grouping — some shards first into a neighbour,
// the rest into one aggregate whose small threshold makes it spill
// partway — report the counts, breakdowns and percentiles the test
// computes from the rows itself (over histBin's bins once spilled).
// The aggregate then observes a tail of rows directly, so a diagnosis
// run is pending when it is snapshotted; the restored aggregate
// reports the same.
func FuzzAggShards(f *testing.F) {
	f.Add(byte(5), []byte{3, 0, 0x11, 9, 0x11, 9, 0x21, 2, 2, 1, 0x90, 0, 0x31, 7}, []byte{0x10, 1})
	f.Add(byte(1), []byte{0, 0, 4, 7, 0x55, 0x0a, 0x55, 0x0a, 0x56, 0x0b, 0x5f, 0x0c, 0x13, 0x0d}, []byte{0x13, 0x0d, 0x13, 0x0d})
	f.Add(byte(40), []byte{7, 3, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 1, 2, 9, 9, 0x20, 0x21}, []byte{})
	f.Fuzz(func(t *testing.T, threshold byte, shardBytes, tail []byte) {
		th := 1 + int(threshold)%48
		var rows []Result
		type shard struct {
			agg   *Agg
			order byte
		}
		var shards []shard
		for k := 0; k+1 < len(shardBytes); {
			n, order := int(shardBytes[k]%8), shardBytes[k+1]
			k += 2
			s := shard{agg: newShard(th, n), order: order}
			for ; n > 0 && k+1 < len(shardBytes); n-- {
				r := aggFuzzRow(shardBytes[k], shardBytes[k+1])
				k += 2
				rows = append(rows, r)
				s.agg.observe(&r)
			}
			shards = append(shards, s)
		}
		sort.SliceStable(shards, func(i, j int) bool { return shards[i].order>>1 < shards[j].order>>1 })
		a := NewAgg(th)
		for k, s := range shards {
			if s.order&1 != 0 && k+1 < len(shards) {
				shards[k+1].agg.Merge(s.agg)
				continue
			}
			a.Merge(s.agg)
		}
		for k := 0; k+1 < len(tail); k += 2 {
			r := aggFuzzRow(tail[k], tail[k+1])
			rows = append(rows, r)
			a.Observe(r)
		}

		want := aggFuzzReport(rows, th)
		snap, err := a.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		restored, err := RestoreAgg(snap)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Report(); !reflect.DeepEqual(got, want) {
			t.Fatalf("report over %d rows at threshold %d:\n got %+v\nwant %+v", len(rows), th, got, want)
		}
		if got := restored.Report(); !reflect.DeepEqual(got, want) {
			t.Fatalf("restored report:\n got %+v\nwant %+v", got, want)
		}
	})
}

// aggFuzzReport is the report over rows computed without an Agg:
// nearest-rank percentiles over the sorted wall times while the rows
// fit the threshold, over their histogram bins beyond it.
func aggFuzzReport(rows []Result, threshold int) Report {
	rep := Report{
		Devices:          len(rows),
		PercentilesExact: len(rows) <= threshold,
		Engines:          map[string]GroupStats{},
		Profiles:         map[string]GroupStats{},
		Diagnoses:        map[string]int{},
	}
	walls := make([]float64, 0, len(rows))
	for _, r := range rows {
		add := func(g GroupStats) GroupStats {
			g.Devices++
			g.Boots += r.Boots
			if r.Completed {
				g.Completed++
			}
			if r.Err != nil {
				g.Errors++
			}
			return g
		}
		total := add(GroupStats{Completed: rep.Completed, Errors: rep.Errors, Boots: rep.TotalBoots})
		rep.Completed, rep.Errors, rep.TotalBoots = total.Completed, total.Errors, total.Boots
		rep.Engines[string(r.Engine)] = add(rep.Engines[string(r.Engine)])
		rep.Profiles[r.Profile] = add(rep.Profiles[r.Profile])
		if r.Diagnosis != "" {
			rep.Diagnoses[r.Diagnosis]++
		}
		w := r.WallSec
		if !rep.PercentilesExact {
			w = histValue(histBin(w))
		}
		walls = append(walls, w)
	}
	if len(rows) == 0 {
		return rep
	}
	rep.CompletionRate = float64(rep.Completed) / float64(len(rows))
	sort.Float64s(walls)
	at := func(p float64) float64 {
		rank := int(float64(len(walls))*p/100+0.5) - 1
		return walls[max(0, min(rank, len(walls)-1))]
	}
	rep.WallP50Sec, rep.WallP90Sec, rep.WallP99Sec = at(50), at(90), at(99)
	return rep
}
