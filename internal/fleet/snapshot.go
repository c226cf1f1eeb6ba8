package fleet

// Aggregator serialization: a versioned, gob-based snapshot of Agg
// state, the unit that checkpoints and shard artifacts are built
// from. A snapshot captures the observed multiset exactly — integer
// counters, retained exact wall times, histogram bins, group maps —
// and canonicalizes the one piece of state whose in-memory layout
// depends on observation order (the retained exact values are stored
// sorted), so two aggregators that observed the same multiset in any
// order snapshot to equivalent state and restore to aggregators that
// continue identically. Restore(Snapshot(a)).Report() is bit-for-bit
// a.Report() (pinned by TestAggSnapshotRoundTrip).

import (
	"bytes"
	"encoding/gob"
	"errors"
	"fmt"
	"sort"
)

// aggSnapshotVersion is the snapshot schema version. Bump it when the
// encoded layout changes incompatibly; old snapshots then fail with
// ErrSnapshotVersion instead of decoding into silently wrong state.
// Dropping a field is compatible: gob skips an encoded field the
// destination lacks, so snapshots that still carry the retired FFBoots
// counter restore unchanged at version 1.
const aggSnapshotVersion = 1

// ErrSnapshotVersion: the snapshot was written by an incompatible
// aggregator version (or is not an aggregator snapshot at all).
var ErrSnapshotVersion = errors.New("incompatible aggregator snapshot version")

// aggSnapV1 is the wire form of an Agg. Group maps are stored by
// value; the exact slice is stored sorted (canonical, and what Report
// would produce anyway).
type aggSnapV1 struct {
	Version   int
	Threshold int

	Devices   int
	Completed int
	Errors    int
	Boots     uint64

	Exact     []float64
	Spilled   bool
	Hist      []int64
	HistCount int

	Engines   map[string]GroupStats
	Profiles  map[string]GroupStats
	Diagnoses map[string]int
}

// Snapshot serializes the aggregator's full state. The aggregator is
// still usable afterwards: the encoding is done before Snapshot
// returns, so it shares nothing with the bytes.
func (a *Agg) Snapshot() ([]byte, error) {
	a.flushDiag()
	s := aggSnapV1{
		Version:   aggSnapshotVersion,
		Threshold: a.threshold,
		Devices:   a.devices,
		Completed: a.completed,
		Errors:    a.errors,
		Boots:     a.boots,
		Spilled:   a.hist != nil,
		HistCount: a.histCount,
		Engines:   make(map[string]GroupStats, len(a.engines)),
		Profiles:  make(map[string]GroupStats, len(a.profiles)),
		Diagnoses: make(map[string]int, len(a.diagnoses)),
	}
	if len(a.exact) > 0 {
		// Sorting in place changes no report: the retained values are
		// a multiset, which Report sorts too.
		sort.Float64s(a.exact)
		s.Exact = a.exact
	}
	s.Hist = a.hist
	for k, g := range a.engines {
		s.Engines[k] = *g
	}
	for k, g := range a.profiles {
		s.Profiles[k] = *g
	}
	for k, n := range a.diagnoses {
		s.Diagnoses[k] = n
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		return nil, fmt.Errorf("fleet: encode aggregator snapshot: %w", err)
	}
	return buf.Bytes(), nil
}

// RestoreAgg rebuilds an aggregator from a Snapshot. The restored
// aggregator reports bit-identically to the snapshotted one and may
// keep observing/merging — state is equivalent regardless of the
// order the original observed its rows in.
func RestoreAgg(snap []byte) (*Agg, error) {
	var s aggSnapV1
	if err := gob.NewDecoder(bytes.NewReader(snap)).Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSnapshotVersion, err)
	}
	if s.Version != aggSnapshotVersion {
		return nil, fmt.Errorf("%w: snapshot has v%d, this build reads v%d",
			ErrSnapshotVersion, s.Version, aggSnapshotVersion)
	}
	if s.Threshold <= 0 {
		return nil, fmt.Errorf("%w: non-positive threshold %d", ErrSnapshotVersion, s.Threshold)
	}
	if s.Spilled && len(s.Hist) != histBins {
		return nil, fmt.Errorf("%w: spilled snapshot has %d bins, want %d",
			ErrSnapshotVersion, len(s.Hist), histBins)
	}
	a := NewAgg(s.Threshold)
	a.devices = s.Devices
	a.completed = s.Completed
	a.errors = s.Errors
	a.boots = s.Boots
	a.exact = s.Exact
	if s.Spilled {
		a.hist = s.Hist
		a.histCount = s.HistCount
		a.exact = nil
	}
	for k, g := range s.Engines {
		g := g
		a.engines[k] = &g
	}
	for k, g := range s.Profiles {
		g := g
		a.profiles[k] = &g
	}
	for k, n := range s.Diagnoses {
		a.diagnoses[k] = n
	}
	return a, nil
}
