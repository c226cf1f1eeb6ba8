package harvest

import (
	"fmt"
	"math"
)

// formKind names the closed form a draw evaluates for the capacitor's
// profile. The cumulative forms, whose energy over a window is a
// difference of cumAt values, are formSquare and every kind after it.
type formKind uint8

const (
	formConstant formKind = iota // Watts·dt
	formSquare                   // cumulative PeakWatts·min(t, duty·Period)
	formSine                     // cumulative A·(1 − cos(πt/h))
	formTrace                    // cumulative trapezoid, hinted segment
)

// drawForm is a built-in profile resolved by NewCapacitor into the
// constants its draw-time closed form needs, so a draw pays no
// interface call and recomputes nothing that is fixed per profile.
//
// The cumulative forms (square, sine, trace) equal the profile's
// cumEnergy bit for bit. They are evaluated directly on [0, span) —
// one profile period, or the whole trace when it holds its last value
// — where cumEnergy's period reduction is an identity: t/period rounds
// below 1, so n = +0, r = t − n·period = t and 2n+1 = 1, all exact
// even when the compiler fuses the multiply-adds. Any other time takes
// the profile's own cumEnergy.
type drawForm struct {
	kind     formKind
	span     float64 // end of the direct range [0, span)
	spanBits uint64  // math.Float64bits(span)
	// a and b are the fixed factors: constant Watts; square PeakWatts
	// and duty()·Period; sine PeakWatts·h/π (h = Period/2, the span).
	a, b  float64
	trace *TraceProfile
	seg   int // trace: the segment of the last lookup
}

// resolveForm validates p and returns its draw form. It is the one
// place that knows the profile set: the built-in value profiles and a
// built *TraceProfile. Anything else — nil, a nil or zero trace, a
// pointer to a value profile — is an error naming the type. The
// factors are computed by the same expressions, in the same order, as
// the profiles' own cumEnergy, so they carry the same bits.
func resolveForm(p Profile) (drawForm, error) {
	switch p := p.(type) {
	case ConstantProfile:
		return drawForm{kind: formConstant, a: p.Watts}, p.Validate()
	case SquareProfile:
		return drawForm{kind: formSquare, span: p.Period, spanBits: math.Float64bits(p.Period),
			a: p.PeakWatts, b: p.duty() * p.Period}, p.Validate()
	case SineProfile:
		h := p.Period / 2
		return drawForm{kind: formSine, span: h, spanBits: math.Float64bits(h), a: p.PeakWatts * h / math.Pi}, p.Validate()
	case *TraceProfile:
		if p != nil && len(p.times) >= 2 {
			d := p.Duration()
			return drawForm{kind: formTrace, span: d, spanBits: math.Float64bits(d), trace: p}, nil
		}
	}
	return drawForm{}, fmt.Errorf("harvest: profile %T is not one of ConstantProfile, SquareProfile, SineProfile or a built *TraceProfile", p)
}

// cumAt returns the cumulative form at t: the profile's cumEnergy(t)
// with the same bits. The range test compares bit patterns, which
// order like the values for non-negative floats and put −0, negative
// times and NaN above every span, so those take the full formula too.
// Each result is rounded by an explicit conversion, as the profile's
// method return is, so the caller's subtraction is never fused into
// the form's final multiply.
//
//ehdl:hotpath
func (c *Capacitor) cumAt(t float64) float64 {
	f := &c.form
	if math.Float64bits(t) >= f.spanBits {
		return c.cumFull(t)
	}
	switch f.kind {
	case formSquare:
		return float64(f.a * min(t, f.b))
	case formSine:
		return float64(f.a * (1 - math.Cos(math.Pi*t/f.span)))
	}
	return c.traceCum(t)
}

// traceCum is the trace's cumulative at r in [0, Duration). Draw times
// move forward, so r usually lies in the segment of the previous
// lookup and the breakpoint search is skipped; a miss searches and
// finds the index the search in localCum finds.
//
//ehdl:hotpath
func (c *Capacitor) traceCum(r float64) float64 {
	p, i := c.form.trace, c.form.seg
	if !(p.times[i] <= r && r < p.times[i+1]) {
		i = p.segment(r)
		c.form.seg = i
	}
	return float64(p.cumIn(i, r))
}

// cumFull is the profile's own cumEnergy(t), for times outside the
// direct range: period wraps and hold-last trace tails.
func (c *Capacitor) cumFull(t float64) float64 {
	switch p := c.profile.(type) {
	case SquareProfile:
		return p.cumEnergy(t)
	case SineProfile:
		return p.cumEnergy(t)
	}
	return c.form.trace.cumEnergy(t)
}
