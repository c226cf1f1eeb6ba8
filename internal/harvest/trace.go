package harvest

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// TraceProfile replays a measured ambient-energy trace — solar,
// RF, vibration — as a piecewise-linear power curve, the scenario
// realism that synthetic waveforms lack. Between breakpoints the power
// is interpolated linearly; past the last breakpoint the trace either
// repeats from the start (a diurnal cycle) or holds its final value.
//
// The trace file format accepted by LoadTraceCSV is one
// "seconds,watts" pair per line, seconds strictly increasing from 0,
// watts non-negative; blank lines and lines starting with '#' are
// ignored:
//
//	# time_s,power_w
//	0,0
//	2.5,4e-3
//	10,1e-3
type TraceProfile struct {
	times  []float64 // strictly increasing, times[0] == 0
	watts  []float64
	cum    []float64 // cum[i] = ∫ power over [0, times[i]]
	repeat bool

	// fp caches Fingerprint (0 = not yet computed; a computed value
	// of 0 is remapped to 1). The breakpoints are immutable after
	// construction, so racing computations store the same value.
	fp atomic.Uint64
}

// NewTraceProfile builds a validated trace profile from breakpoint
// times (seconds, strictly increasing, starting at 0) and powers
// (watts, non-negative). repeat selects wrap-around replay; otherwise
// the final power holds forever.
func NewTraceProfile(times, watts []float64, repeat bool) (*TraceProfile, error) {
	if len(times) != len(watts) {
		return nil, fmt.Errorf("harvest: trace needs matching times/watts, got %d/%d", len(times), len(watts))
	}
	if len(times) < 2 {
		return nil, fmt.Errorf("harvest: trace needs at least 2 points, got %d", len(times))
	}
	if times[0] != 0 {
		return nil, fmt.Errorf("harvest: trace must start at t=0, got %g", times[0])
	}
	for i := range times {
		if math.IsNaN(times[i]) || math.IsInf(times[i], 0) || math.IsNaN(watts[i]) || math.IsInf(watts[i], 0) {
			return nil, fmt.Errorf("harvest: trace point %d not finite: (%g, %g)", i, times[i], watts[i])
		}
		if watts[i] < 0 {
			return nil, fmt.Errorf("harvest: trace power must be >= 0, got %g at point %d", watts[i], i)
		}
		if i > 0 && times[i] <= times[i-1] {
			return nil, fmt.Errorf("harvest: trace times must increase strictly: %g after %g", times[i], times[i-1])
		}
	}
	p := &TraceProfile{
		times:  append([]float64(nil), times...),
		watts:  append([]float64(nil), watts...),
		cum:    make([]float64, len(times)),
		repeat: repeat,
	}
	for i := 1; i < len(times); i++ {
		p.cum[i] = p.cum[i-1] + 0.5*(watts[i-1]+watts[i])*(times[i]-times[i-1])
	}
	// Every point is finite, but the trapezoid integral can still
	// overflow for pathological magnitudes; such a trace would poison
	// every downstream energy computation with +Inf.
	if math.IsInf(p.cum[len(p.cum)-1], 0) {
		return nil, fmt.Errorf("harvest: trace energy integral overflows float64")
	}
	return p, nil
}

// LoadTraceCSV parses the "seconds,watts" trace format described on
// TraceProfile from r.
func LoadTraceCSV(r io.Reader, repeat bool) (*TraceProfile, error) {
	var times, watts []float64
	sc := bufio.NewScanner(r)
	line := 0
	for sc.Scan() {
		line++
		s := strings.TrimSpace(sc.Text())
		if s == "" || strings.HasPrefix(s, "#") {
			continue
		}
		f := strings.Split(s, ",")
		if len(f) != 2 {
			return nil, fmt.Errorf("harvest: trace line %d: want \"seconds,watts\", got %q", line, s)
		}
		t, err := strconv.ParseFloat(strings.TrimSpace(f[0]), 64)
		if err != nil {
			return nil, fmt.Errorf("harvest: trace line %d: bad time: %w", line, err)
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(f[1]), 64)
		if err != nil {
			return nil, fmt.Errorf("harvest: trace line %d: bad power: %w", line, err)
		}
		times = append(times, t)
		watts = append(watts, w)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("harvest: reading trace: %w", err)
	}
	return NewTraceProfile(times, watts, repeat)
}

// LoadTraceFile reads a trace CSV from disk.
func LoadTraceFile(path string, repeat bool) (*TraceProfile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	p, err := LoadTraceCSV(f, repeat)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return p, nil
}

// Scale returns a copy of the trace with every power multiplied by f
// (f >= 0) — per-device irradiance spread in fleet simulations.
func (p *TraceProfile) Scale(f float64) (*TraceProfile, error) {
	if f < 0 || math.IsNaN(f) || math.IsInf(f, 0) {
		return nil, fmt.Errorf("harvest: trace scale must be finite and >= 0, got %g", f)
	}
	watts := make([]float64, len(p.watts))
	for i, w := range p.watts {
		watts[i] = w * f
	}
	return NewTraceProfile(p.times, watts, p.repeat)
}

// Fingerprint returns a 64-bit FNV-1a content hash of the trace —
// every breakpoint time and power plus the repeat flag — computed
// once and cached. Fleet memoization uses it to content-address
// devices sharing a waveform: two traces with equal fingerprints
// drive bit-identical supply arithmetic (hash collisions across
// distinct real-world traces in one fleet are vanishingly unlikely
// and cost at most one reused row, the same exposure the 64-bit
// fingerprint has for synthetic profiles).
func (p *TraceProfile) Fingerprint() uint64 {
	if fp := p.fp.Load(); fp != 0 {
		return fp
	}
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	put(uint64(len(p.times)))
	for i := range p.times {
		put(math.Float64bits(p.times[i]))
		put(math.Float64bits(p.watts[i]))
	}
	if p.repeat {
		put(1)
	}
	fp := h.Sum64()
	if fp == 0 {
		fp = 1 // keep 0 as the not-yet-computed sentinel
	}
	p.fp.Store(fp)
	return fp
}

// Len returns the number of breakpoints.
func (p *TraceProfile) Len() int { return len(p.times) }

// Duration returns the trace length in seconds (one cycle when
// repeating).
func (p *TraceProfile) Duration() float64 { return p.times[len(p.times)-1] }

// Repeats reports whether the trace wraps around.
func (p *TraceProfile) Repeats() bool { return p.repeat }

// local maps absolute time to a position within [0, Duration] plus the
// number of completed cycles (0 when holding).
func (p *TraceProfile) local(t float64) (r float64, cycles float64) {
	if t <= 0 {
		return 0, 0
	}
	d := p.Duration()
	if !p.repeat {
		return math.Min(t, d), 0
	}
	cycles = math.Floor(t / d)
	r = t - cycles*d
	// t/d can overflow to +Inf (or t-cycles*d to NaN) for extreme
	// query times; clamp to a defined in-cycle position instead of
	// handing NaN to the binary search below.
	if math.IsNaN(r) || r < 0 {
		r = 0
	}
	if r > d {
		r = d
	}
	return r, cycles
}

// localPower interpolates the trace at r in [0, Duration].
func (p *TraceProfile) localPower(r float64) float64 {
	i := sort.SearchFloat64s(p.times, r)
	if i < len(p.times) && p.times[i] == r {
		return p.watts[i]
	}
	return p.interp(i-1, r) // i-1 >= 0 since times[0]=0
}

// interp is the linear power at r strictly inside segment (i, i+1).
func (p *TraceProfile) interp(i int, r float64) float64 {
	f := (r - p.times[i]) / (p.times[i+1] - p.times[i])
	return p.watts[i] + (p.watts[i+1]-p.watts[i])*f
}

// localCum returns ∫ power over [0, r] for r in [0, Duration], with
// one breakpoint search.
func (p *TraceProfile) localCum(r float64) float64 {
	return p.cumIn(p.segment(r), r)
}

// segment returns the last breakpoint index i with times[i] <= r, for
// r in [0, Duration]: the breakpoint r sits on, or the start of the
// segment (i, i+1) it lies strictly inside.
//
//ehdl:hotpath
func (p *TraceProfile) segment(r float64) int {
	i := sort.SearchFloat64s(p.times, r)
	if i < len(p.times) && p.times[i] == r {
		return i
	}
	return i - 1 // i >= 1 since times[0] = 0 <= r
}

// cumIn returns ∫ power over [0, r] given r's segment i.
//
//ehdl:hotpath
func (p *TraceProfile) cumIn(i int, r float64) float64 {
	if p.times[i] == r {
		return p.cum[i]
	}
	dt := r - p.times[i]
	return p.cum[i] + 0.5*(p.watts[i]+p.interp(i, r))*dt
}

// PowerAt implements Profile.
func (p *TraceProfile) PowerAt(t float64) float64 {
	if !p.repeat && t >= p.Duration() {
		return p.watts[len(p.watts)-1]
	}
	r, _ := p.local(t)
	return p.localPower(r)
}

// cumEnergy returns ∫ PowerAt over [0, t].
func (p *TraceProfile) cumEnergy(t float64) float64 {
	if t <= 0 {
		return 0
	}
	d := p.Duration()
	total := p.cum[len(p.cum)-1]
	if !p.repeat && t >= d {
		return total + p.watts[len(p.watts)-1]*(t-d)
	}
	r, cycles := p.local(t)
	return cycles*total + p.localCum(r)
}

// EnergyBetween implements Profile: trapezoid closed form per
// breakpoint segment.
func (p *TraceProfile) EnergyBetween(t0, t1 float64) float64 {
	return p.cumEnergy(t1) - p.cumEnergy(t0)
}

// NextChange implements Profile: the next breakpoint.
func (p *TraceProfile) NextChange(t float64) float64 {
	d := p.Duration()
	if !p.repeat && t >= d {
		return math.Inf(1)
	}
	r, cycles := p.local(t)
	base := cycles * d
	i := sort.SearchFloat64s(p.times, r)
	for ; i < len(p.times); i++ {
		if c := base + p.times[i]; c > t {
			return c
		}
	}
	return base + d + p.times[1] // wrapped past the cycle's last point
}

// MeanPower implements Profile.
func (p *TraceProfile) MeanPower() float64 {
	if p.repeat {
		return p.cum[len(p.cum)-1] / p.Duration()
	}
	return p.watts[len(p.watts)-1]
}

// ProfilePeriod implements Profile.
func (p *TraceProfile) ProfilePeriod() float64 {
	if p.repeat {
		return p.Duration()
	}
	return 0
}
