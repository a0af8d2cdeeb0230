package stats

import "math"

// survivalSteps is the number of log-spaced trapezoid panels SurvivalIntegral
// uses.
const survivalSteps = 4000

// survivalGrid returns SurvivalIntegral's first node and node ratio for the
// range [a, b] with 0 ≤ a < b: nodes are lo, lo·ratio, lo·ratio², …, and
// when a is 0 the [0, lo] sliver is charged as a rectangle at S(0).
func survivalGrid(a, b float64) (lo, ratio float64) {
	lo = a
	if lo <= 0 {
		lo = b * 1e-9
	}
	return lo, math.Pow(b/lo, 1/float64(survivalSteps))
}

// SurvivalIntegral computes ∫_a^b (1 − CDF(t)) dt for a distribution on the
// non-negative reals, on a log-spaced grid (idle-time scales span many orders
// of magnitude). b may be +Inf in spirit: pass a large bound; the tail where
// survival < 1e-9 contributes negligibly for the distributions used here.
// A negative a is clamped to 0 first; an empty range then integrates to 0.
// Used by the renewal-theory and TISMDP power-management policies, where
// E[min(T,τ) − a | T > a] and residual lifetimes reduce to survival
// integrals.
func SurvivalIntegral(d Distribution, a, b float64) float64 {
	if a < 0 {
		a = 0
	}
	if b <= a {
		return 0
	}
	surv := func(t float64) float64 { return 1 - d.CDF(t) }
	sum := 0.0
	lo, ratio := survivalGrid(a, b)
	if a <= 0 {
		// Survival ≤ 1, so the [0, b·1e-9] sliver contributes at most b·1e-9;
		// treat it as a rectangle at S(0).
		sum += surv(0) * lo
	}
	// Each node's survival is evaluated once and carried into the next
	// panel as its left end: the arithmetic and its order are those of the
	// plain two-evaluation trapezoid.
	t, st := lo, surv(lo)
	for i := 0; i < survivalSteps; i++ {
		next := t * ratio
		sn := surv(next)
		sum += (st + sn) / 2 * (next - t)
		t, st = next, sn
	}
	return sum
}

// TailBound returns a time beyond which the distribution's survival mass is
// negligible (< 1e-6), starting the search at from. Used to truncate
// improper survival integrals.
func TailBound(d Distribution, from float64) float64 {
	end := from
	if end < 1 {
		end = 1
	}
	for 1-d.CDF(end) > 1e-6 && end < from+1e6 {
		end = 2*end + 1
	}
	return end
}
