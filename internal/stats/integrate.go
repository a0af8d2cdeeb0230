package stats

import "math"

// SurvivalIntegral computes ∫_a^b (1 − CDF(t)) dt for a distribution on the
// non-negative reals, on a log-spaced grid (idle-time scales span many orders
// of magnitude). b may be +Inf in spirit: pass a large bound; the tail where
// survival < 1e-9 contributes negligibly for the distributions used here.
// Used by the renewal-theory and TISMDP power-management policies, where
// E[min(T,τ) − a | T > a] and residual lifetimes reduce to survival
// integrals.
func SurvivalIntegral(d Distribution, a, b float64) float64 {
	if b <= a {
		return 0
	}
	if a < 0 {
		a = 0
	}
	surv := func(t float64) float64 { return 1 - d.CDF(t) }
	const steps = 4000
	sum := 0.0
	lo := a
	if lo <= 0 {
		// Survival ≤ 1, so the [0, b·1e-9] sliver contributes at most b·1e-9;
		// treat it as a rectangle at S(0).
		lo = b * 1e-9
		sum += surv(0) * lo
	}
	ratio := math.Pow(b/lo, 1/float64(steps))
	// Each node's survival is evaluated once and carried into the next
	// panel as its left end: the arithmetic and its order are those of the
	// plain two-evaluation trapezoid.
	t, st := lo, surv(lo)
	for i := 0; i < steps; i++ {
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
