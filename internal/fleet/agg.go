package fleet

// This file holds the fleet's online aggregator: constant-memory
// per-row accumulation of everything Report publishes, so a streaming
// run never needs a []Result of fleet size. Wall-time percentiles are
// exact (nearest-rank over retained values) while the fleet is small,
// and switch to a fixed-bin logarithmic histogram estimate once the
// value count passes the exact threshold. Aggregator state is
// mergeable: a sharded run combines per-shard aggregators with Merge
// and gets the same report as a single-aggregator run, because every
// published quantity is a function of the observed multiset alone —
// integer counters, sorted exact values, and histogram bin counts are
// all independent of both observation and merge order.
//
// A replayed fleet observes long runs of rows with the same engine,
// profile and diagnosis, so a shard hashes none of them per row: it
// keeps the last engine and profile group it touched, and counts a run
// of equal diagnoses before adding it to the diagnosis map. Merge
// (on both sides), Report and Snapshot flush that pending run first.
// Merging a shard that has not spilled into an aggregate that has
// bins the shard's exact values straight into the aggregate's
// histogram; the shard never spills.

import (
	"math"
	"sort"
)

// DefaultExactPercentiles is the fleet size up to which wall-time
// percentiles are computed exactly. Above it the aggregator spills
// into the fixed-bin histogram (see histBinsPerDecade for the
// resolution bound). 100k float64s is ~800 KB — the constant ceiling
// of per-aggregator memory, regardless of fleet size.
const DefaultExactPercentiles = 100_000

// Histogram geometry: logarithmic bins over [1 µs, 1e7 s] of
// simulated wall time, histBinsPerDecade bins per decade, plus an
// underflow bin (zero and sub-µs values, e.g. errored rows) and an
// overflow bin. At 128 bins/decade the relative quantization error of
// an estimated percentile is bounded by 10^(1/256)−1 ≈ 0.9%.
const (
	histBinsPerDecade = 128
	histMinExp        = -6 // left edge 1e-6 s
	histMaxExp        = 7  // right edge 1e7 s
	histLogBins       = (histMaxExp - histMinExp) * histBinsPerDecade
	histBins          = histLogBins + 2 // + underflow, + overflow
	histLoEdge        = 1e-6            // 10^histMinExp
	histHiEdge        = 1e7             // 10^histMaxExp
)

// GroupStats is one line of the per-engine / per-profile breakdown.
type GroupStats struct {
	Devices   int
	Completed int
	// Errors counts rows whose Err is set — setup failures and DNF
	// sentinels alike.
	Errors int
	Boots  uint64
}

func (g *GroupStats) observe(r *Result) {
	g.Devices++
	if r.Completed {
		g.Completed++
	}
	if r.Err != nil {
		g.Errors++
	}
	g.Boots += r.Boots
}

// Agg accumulates a fleet report row by row in constant memory. The
// zero value is not ready; use NewAgg. An Agg is not goroutine-safe —
// streaming runs give each chunk its own shard and Merge them. Its
// one-entry group caches and pending diagnosis run are internal: every
// method that reads or hands on the diagnosis map flushes the run
// first.
type Agg struct {
	threshold int

	devices   int
	completed int
	errors    int
	boots     uint64

	// exact holds every observed wall time while the aggregate is
	// below threshold; nil after spilling into hist.
	exact []float64
	hist  []int64
	// histCount is the number of values represented by hist.
	histCount int

	engines   map[string]*GroupStats
	profiles  map[string]*GroupStats
	diagnoses map[string]int

	// engine and profile are the groups of the last row observed,
	// under their keys; nil before the first row. A group pointer
	// stays valid for the Agg's life: the maps never replace one.
	engineKey, profileKey string
	engine, profile       *GroupStats
	// diag has been the diagnosis of the diagRun rows observed since
	// the run was last flushed into diagnoses.
	diag    string
	diagRun int
}

// NewAgg returns an aggregator that keeps exact percentiles up to
// exactThreshold observed rows (<= 0 selects DefaultExactPercentiles).
func NewAgg(exactThreshold int) *Agg {
	if exactThreshold <= 0 {
		exactThreshold = DefaultExactPercentiles
	}
	return &Agg{
		threshold: exactThreshold,
		engines:   map[string]*GroupStats{},
		profiles:  map[string]*GroupStats{},
		diagnoses: map[string]int{},
	}
}

// newShard returns an aggregator for one chunk of n rows, its exact
// values sized for the chunk.
func newShard(threshold, n int) *Agg {
	a := NewAgg(threshold)
	a.exact = make([]float64, 0, min(n, a.threshold))
	return a
}

// Observe folds one scenario result into the aggregate.
func (a *Agg) Observe(r Result) { a.observe(&r) }

// observe is Observe without copying the row: the workers' path.
func (a *Agg) observe(r *Result) {
	a.devices++
	if r.Completed {
		a.completed++
	}
	if r.Err != nil {
		a.errors++
	}
	a.boots += r.Boots
	if a.engine == nil || string(r.Engine) != a.engineKey {
		a.engineKey = string(r.Engine)
		a.engine = group(a.engines, a.engineKey)
	}
	a.engine.observe(r)
	if a.profile == nil || r.Profile != a.profileKey {
		a.profileKey = r.Profile
		a.profile = group(a.profiles, a.profileKey)
	}
	a.profile.observe(r)
	if r.Diagnosis != "" {
		if r.Diagnosis != a.diag {
			a.flushDiag()
			a.diag = r.Diagnosis
		}
		a.diagRun++
	}
	a.observeWall(r.WallSec)
}

// flushDiag adds the pending diagnosis run to the diagnosis map.
func (a *Agg) flushDiag() {
	if a.diagRun > 0 {
		a.diagnoses[a.diag] += a.diagRun
		a.diagRun = 0
	}
}

func group(m map[string]*GroupStats, key string) *GroupStats {
	g, ok := m[key]
	if !ok {
		g = &GroupStats{}
		m[key] = g
	}
	return g
}

func (a *Agg) observeWall(v float64) {
	if a.hist == nil {
		if len(a.exact) < a.threshold {
			a.exact = append(a.exact, v)
			return
		}
		a.spill()
	}
	a.hist[histBin(v)]++
	a.histCount++
}

// spill moves the retained exact values into the histogram; from here
// on percentiles are estimates.
func (a *Agg) spill() {
	a.hist = make([]int64, histBins)
	for _, v := range a.exact {
		a.hist[histBin(v)]++
	}
	a.histCount += len(a.exact)
	a.exact = nil
}

// histBin maps a wall time to its bin index.
func histBin(v float64) int {
	if !(v > histLoEdge) { // zero, negative, NaN → underflow
		return 0
	}
	idx := int(math.Floor((math.Log10(v) - histMinExp) * histBinsPerDecade))
	if idx < 0 {
		return 0
	}
	if idx >= histLogBins {
		return histBins - 1
	}
	return idx + 1
}

// histValue returns the representative wall time of a bin: the
// geometric midpoint of its edges, 0 for underflow, the right edge
// for overflow.
func histValue(bin int) float64 {
	if bin == 0 {
		return 0
	}
	if bin == histBins-1 {
		return histHiEdge
	}
	lo := float64(bin-1)/histBinsPerDecade + histMinExp
	hi := float64(bin)/histBinsPerDecade + histMinExp
	return math.Pow(10, (lo+hi)/2)
}

// add folds another group's counters into g.
func (g *GroupStats) add(o *GroupStats) {
	g.Devices += o.Devices
	g.Completed += o.Completed
	g.Errors += o.Errors
	g.Boots += o.Boots
}

func mergeGroups(dst, src map[string]*GroupStats) {
	for k, g := range src { //ehdl:unordered per-key fold: each iteration only adds into dst[k], and GroupStats.add is commutative integer addition
		group(dst, k).add(g)
	}
}

// Merge folds shard b into a. b must not be observed afterwards.
// Merging is deterministic in the combined multiset: shards may be
// merged in any grouping/order and yield the same report.
func (a *Agg) Merge(b *Agg) {
	a.flushDiag()
	b.flushDiag()
	a.devices += b.devices
	a.completed += b.completed
	a.errors += b.errors
	a.boots += b.boots
	mergeGroups(a.engines, b.engines)
	mergeGroups(a.profiles, b.profiles)
	for k, n := range b.diagnoses {
		a.diagnoses[k] += n
	}
	if a.hist == nil {
		if b.hist == nil && len(a.exact)+len(b.exact) <= a.threshold {
			a.exact = append(a.exact, b.exact...)
			return
		}
		a.spill()
	}
	if b.hist == nil {
		for _, v := range b.exact {
			a.hist[histBin(v)]++
		}
		a.histCount += len(b.exact)
		return
	}
	for i, c := range b.hist {
		a.hist[i] += c
	}
	a.histCount += b.histCount
}

// Report materializes the aggregate. Results and HostSeconds are left
// for the caller. The exact path sorts the retained values in place,
// so Report is not idempotent with further Observe calls.
func (a *Agg) Report() Report {
	a.flushDiag()
	rep := Report{
		Devices:          a.devices,
		Completed:        a.completed,
		Errors:           a.errors,
		TotalBoots:       a.boots,
		PercentilesExact: a.hist == nil,
		Engines:          map[string]GroupStats{},
		Profiles:         map[string]GroupStats{},
		Diagnoses:        map[string]int{},
	}
	for k, g := range a.engines {
		rep.Engines[k] = *g
	}
	for k, g := range a.profiles {
		rep.Profiles[k] = *g
	}
	for k, n := range a.diagnoses {
		rep.Diagnoses[k] = n
	}
	if a.devices > 0 {
		rep.CompletionRate = float64(a.completed) / float64(a.devices)
	}
	if a.hist == nil {
		sort.Float64s(a.exact)
		rep.WallP50Sec = percentile(a.exact, 50)
		rep.WallP90Sec = percentile(a.exact, 90)
		rep.WallP99Sec = percentile(a.exact, 99)
	} else {
		rep.WallP50Sec = a.histPercentile(50)
		rep.WallP90Sec = a.histPercentile(90)
		rep.WallP99Sec = a.histPercentile(99)
	}
	return rep
}

// histPercentile is the nearest-rank percentile over the histogram,
// mapped to each bin's representative value.
func (a *Agg) histPercentile(p float64) float64 {
	if a.histCount == 0 {
		return 0
	}
	rank := nearestRank(a.histCount, p)
	var seen int64
	for bin, c := range a.hist {
		seen += c
		if int64(rank) < seen {
			return histValue(bin)
		}
	}
	return histValue(histBins - 1)
}
