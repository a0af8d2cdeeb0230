package stats

import "math"

// Rounding model of SurvivalIntegralFloor: unitRoundoff is u = 2⁻⁵³, the
// relative error of one correctly rounded float64 operation, and
// libCallULPs is the allowance, in units of u, for one math.Exp, Expm1,
// Log1p or Pow call (those are accurate to about one ulp; 64 is generous).
const (
	unitRoundoff = 0x1p-53
	libCallULPs  = 64
)

// SurvivalIntegralFloor returns a certified lower bound on the value
// SurvivalIntegral(d, a, b) computes, in O(1): the exact integral over
// [max(a,0), b] in closed form minus a slack for every way the quadrature
// can fall below it. It follows SurvivalIntegral's domain rule (a negative a
// is clamped to 0, then an empty range gives 0). ok is false when d has no
// closed form here (Uniform, Deterministic, unknown types, or a Shifted
// base other than Exponential and Pareto), when a parameter is invalid, or
// when the bound is not finite.
//
// Soundness, panel by panel over SurvivalIntegral's log-spaced nodes t_k:
//   - the trapezoid over-estimates a convex survival function on any panel,
//     whatever the node spacing, and the S(0)·lo sliver over-estimates
//     ∫₀^lo S because S is decreasing, so neither needs slack;
//   - a concave kink, where S leaves its flat top at a Pareto Scale or a
//     Shifted offset, lies in one panel and costs at most
//     w·Δ_k·(1 − S(t_{k+1}))/2 for its component weight w;
//   - the last node may fall short of b by the compounded rounding of the
//     node ratio;
//   - each computed S(t) may be off by a per-distribution absolute bound,
//     and the closed forms and the 4000-term sum carry rounding.
func SurvivalIntegralFloor(d Distribution, a, b float64) (float64, bool) {
	if a < 0 {
		a = 0
	}
	if math.IsNaN(b) || math.IsInf(b, 0) {
		return 0, false
	}
	if b <= a {
		return 0, true
	}
	lo, ratio := survivalGrid(a, b)
	if !(lo > 0) || !(ratio >= 1) || math.IsInf(ratio, 0) {
		return 0, false
	}
	// grow bounds t_{k+1}/t_k for the rounded nodes, with room to round
	// knee·grow; driftRel bounds |t_N − b|/b from the rounding of b/lo, of
	// 1/N, of Pow and of the N node products (log(b/lo) ≤ N·(ratio − 1) ≤
	// N·grow bounds the exponent's part).
	grow := float64(ratio * (1 + 4*unitRoundoff))
	driftRel := float64((float64(survivalSteps*(libCallULPs+2+grow)) + 8) * unitRoundoff)
	f := floorSum{a: a, b: b, lo: lo, bHi: float64(b * (1 + driftRel)), grow: grow}
	if !f.add(d, d, 1) {
		return 0, false
	}
	// gamma bounds the relative rounding of the quadrature's sum of
	// survivalSteps+1 non-negative terms, with room for the closed forms'
	// own additions.
	const gamma = (survivalSteps + 64) * unitRoundoff
	// The quadrature misses at most [b·(1−driftRel), b], where S is at most
	// its computed value at b·(1−2·driftRel) plus the evaluation error.
	drift := float64(float64(b*driftRel) * (1 - d.CDF(float64(b*(1-2*driftRel))) + f.epsS))
	slack := float64((f.err + f.kinks + drift + float64(f.epsS*f.bHi)) * (1 + 2*gamma))
	floor := f.integral - float64(gamma*math.Abs(f.integral)) - slack
	if math.IsNaN(floor) || math.IsInf(floor, 0) {
		return 0, false
	}
	return floor, true
}

// floorSum accumulates SurvivalIntegralFloor's closed form and slacks over
// the leaves of a distribution, each scaled by its mixture weight w.
type floorSum struct {
	a, b     float64 // integration range, 0 ≤ a < b
	lo, bHi  float64 // first quadrature node; upper bound on the last
	grow     float64 // upper bound on the ratio of consecutive nodes
	integral float64 // Σ w·∫_a^b S in closed form
	err      float64 // Σ w·bound on the closed forms' error
	kinks    float64 // Σ w·kink-panel allowance
	epsS     float64 // Σ w·bound on |computed S(t) − S(t)|
}

// add folds d, weighted by w, into the sum; whole is the distribution whose
// CDF evaluates d's survival (d itself, or the Shifted wrapping it).
func (f *floorSum) add(whole, d Distribution, w float64) bool {
	switch d := d.(type) {
	case Exponential, Pareto:
		return f.leaf(whole, d, 0, w)
	case Shifted:
		switch d.Base.(type) {
		case Exponential, Pareto:
			return f.leaf(whole, d.Base, d.Offset, w)
		}
	case *Mixture:
		return f.mixture(d, w)
	}
	return false
}

// mixture adds each component at weight w·fl(w_i/total), as Mixture.CDF
// weighs it, plus the constant 1 − Σ fl(w_i/total) that 1 − CDF integrates.
func (f *floorSum) mixture(m *Mixture, w float64) bool {
	if len(m.Weights) != len(m.Components) || !(m.total > 0) || math.IsInf(m.total, 0) {
		return false
	}
	sumP := 0.0
	for i, wi := range m.Weights {
		if !(wi >= 0) || math.IsInf(wi, 0) {
			return false
		}
		p := wi / m.total
		sumP += p
		if !f.add(m.Components[i], m.Components[i], float64(w*p)) {
			return false
		}
	}
	f.integral += float64(float64(w*(1-sumP)) * (f.b - f.a))
	// The CDF's weighted sum, its 1 − c, and sumP's own rounding.
	f.epsS += float64(float64(w*float64(2*len(m.Weights)+6)) * unitRoundoff)
	return true
}

// leaf adds base shifted by off: S is 1 up to the knee (off, or off+Scale
// for a Pareto) and convex beyond it.
func (f *floorSum) leaf(whole, base Distribution, off, w float64) bool {
	if math.IsNaN(off) || math.IsInf(off, 0) {
		return false
	}
	var knee, epsS float64
	switch base := base.(type) {
	case Exponential:
		if !(base.Rate > 0) || math.IsInf(base.Rate, 0) {
			return false
		}
		knee = off
		// Exp, the product and shift feeding it, and the two subtractions.
		epsS = (libCallULPs + 8) * unitRoundoff
	case Pareto:
		if !(base.Scale > 0) || !(base.Shape > 0) || math.IsInf(base.Scale, 0) || math.IsInf(base.Shape, 0) {
			return false
		}
		knee = off + base.Scale
		// Pow, the Shape-amplified rounding of its argument, the branch at
		// Scale, and the two subtractions.
		epsS = (libCallULPs + 8 + float64(4*base.Shape)) * unitRoundoff
	}
	f.epsS += float64(w * epsS)
	// An underflowing closed form is off by at most a subnormal.
	f.err += float64(w * 0x1p-1000)

	if f.a < knee {
		flat := math.Min(f.b, knee) - f.a
		f.integral += float64(w * flat)
		f.err += float64(float64(w*(flat+math.Abs(knee))) * (2 * unitRoundoff))
	}
	if m := math.Max(f.a, knee); f.b > m {
		y0, y1 := m-off, f.b-off
		if off != 0 {
			// The shift into base coordinates moves each window end by at
			// most u·|y| where S ≤ 1.
			f.err += float64(float64(w*(math.Abs(y0)+math.Abs(y1))) * (2 * unitRoundoff))
		}
		v, rel := closedSurvivalIntegral(base, y0, y1)
		f.integral += float64(w * v)
		f.err += float64(float64(w*v) * rel)
	}
	if knee > f.lo && knee < f.bHi {
		// The kink's panel [t_k, t_{k+1}] has Δ_k ≤ knee·(grow−1) and
		// t_{k+1} ≤ fl(knee·grow), so 1 − S(t_{k+1}) ≤ CDF(fl(knee·grow)).
		cdf := whole.CDF(float64(knee*f.grow)) + epsS
		f.kinks += float64(float64(float64(w*knee)*(f.grow-1)) * cdf / 2)
	}
	return true
}

// closedSurvivalIntegral returns ∫_{y0}^{y1} S(y) dy for an unshifted
// Exponential or Pareto, where 0 ≤ y0 (Scale ≤ y0 for a Pareto), with a
// bound on the relative error of the computed value.
func closedSurvivalIntegral(d Distribution, y0, y1 float64) (v, rel float64) {
	const u = unitRoundoff
	switch d := d.(type) {
	case Exponential:
		// e^{−λ·y0}·(1 − e^{−λ(y1−y0)})/λ.
		ly0 := float64(d.Rate * y0)
		v = math.Exp(-ly0) * -math.Expm1(-float64(d.Rate*(y1-y0))) / d.Rate
		return v, (2*libCallULPs + 32 + ly0) * u
	case Pareto:
		y0 = math.Max(y0, d.Scale)
		if y1 <= y0 {
			return 0, 0
		}
		// y0·S(y0)·g with L = log(y1/y0) and g = (1 − e^{−βL})/β for
		// β = Shape − 1 (g = L at Shape 1): cancellation-free for every
		// Shape and window. The error terms: Log1p and its argument, βL
		// (amplified by up to 1+|βL| through Expm1 and through β's own
		// rounding), Pow and its Shape-amplified argument, and the products.
		beta := d.Shape - 1
		l := math.Log1p((y1 - y0) / y0)
		bl := float64(beta * l)
		g := l
		if beta != 0 {
			g = -math.Expm1(-bl) / beta
		}
		v = float64(y0*math.Pow(d.Scale/y0, d.Shape)) * g
		return v, (4*libCallULPs + 40 + d.Shape + float64(72*math.Abs(bl))) * u
	}
	panic("stats: closedSurvivalIntegral on an unsupported distribution")
}
