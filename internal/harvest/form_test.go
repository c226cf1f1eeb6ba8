package harvest

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// profileCum is the profile's own cumEnergy, the oracle for cumAt,
// and the end of the range its draw form evaluates directly: one
// repetition period, or the whole trace. ok is false for profiles
// without a cumulative.
func profileCum(p Profile) (cum func(float64) float64, span float64, ok bool) {
	switch p := p.(type) {
	case SquareProfile:
		return p.cumEnergy, p.Period, true
	case SineProfile:
		return p.cumEnergy, p.Period / 2, true
	case *TraceProfile:
		return p.cumEnergy, p.Duration(), true
	}
	return nil, 0, false
}

// formTimes returns the times the exactness table probes for a form
// whose direct range is [0, span): both ends of the range and their
// neighbours, every multiple of span up to 4 and one ulp either side,
// and random times in [0, 4·span], first ascending (the order draws
// come in, so the trace hint mostly hits) then shuffled.
func formTimes(span float64, rng *rand.Rand) []float64 {
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	down := func(x float64) float64 { return math.Nextafter(x, 0) }
	ts := []float64{0, math.SmallestNonzeroFloat64, down(span), span, up(span)}
	for k := 1.0; k <= 4; k++ {
		ts = append(ts, down(k*span), k*span, up(k*span))
	}
	random := make([]float64, 2000)
	for i := range random {
		random[i] = rng.Float64() * 4 * span
	}
	sort.Float64s(random)
	ts = append(ts, random...)
	rng.Shuffle(len(random), func(i, j int) { random[i], random[j] = random[j], random[i] })
	return append(ts, random...)
}

// TestDrawFormMatchesCumEnergy requires every resolved draw form to
// equal its profile's cumEnergy bit for bit, inside the direct range,
// on its edges and past it, with the trace hint carried from one
// lookup to the next as draws carry it.
func TestDrawFormMatchesCumEnergy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, pr := range drawProfiles(t) {
		want, span, ok := profileCum(pr.p)
		if !ok {
			continue
		}
		c, err := NewCapacitor(PaperConfig(), pr.p)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(pr.name, func(t *testing.T) {
			if c.form.kind < formSquare {
				t.Fatalf("%T resolved to form %d, not a cumulative form", pr.p, c.form.kind)
			}
			ts := formTimes(span, rng)
			if tr, ok := pr.p.(*TraceProfile); ok && !tr.Repeats() {
				// Hold-last: the constant tail far past the trace.
				ts = append(ts, 10*span, 1e6, 0.5*span)
			}
			// Each time is looked up twice: the second lookup starts
			// from the trace segment the first one left.
			for _, at := range ts {
				w := want(at)
				for range 2 {
					if g := c.cumAt(at); math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("cumAt(%v) = %v, cumEnergy = %v", at, g, w)
					}
				}
			}
		})
	}
}
