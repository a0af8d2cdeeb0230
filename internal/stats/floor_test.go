package stats

import (
	"fmt"
	"math"
	"testing"
)

// floorCases returns the distributions SurvivalIntegralFloor has closed forms
// for: Exponential rates across six decades, Pareto shapes on both sides of
// 1 (and exactly 1), Shifted versions of both, and two-component mixtures.
func floorCases() []Distribution {
	var ds []Distribution
	for _, rate := range []float64{1e-3, 0.02, 0.7, 23.5, 180, 1e3} {
		ds = append(ds, NewExponential(rate))
	}
	for _, shape := range []float64{0.5, 1, 1.5, 3.5} {
		for _, scale := range []float64{0.003, 0.4, 280} {
			ds = append(ds, NewPareto(scale, shape))
		}
	}
	ds = append(ds,
		Shifted{Offset: 0.35, Base: NewExponential(4)},
		Shifted{Offset: 120, Base: NewPareto(280, 3.5)},
		Shifted{Offset: 0.02, Base: NewPareto(0.1, 1)},
		NewMixture([]float64{4000, 5}, []Distribution{NewExponential(23.5), Shifted{Offset: 120, Base: NewPareto(280, 3.5)}}),
		NewMixture([]float64{900, 40}, []Distribution{NewExponential(31), NewPareto(0.6, 1.5)}),
		NewMixture([]float64{1, 1}, []Distribution{Shifted{Offset: 0.2, Base: NewExponential(2)}, NewPareto(1.3, 0.5)}),
	)
	return ds
}

// kinksOf returns where d's survival leaves its flat top.
func kinksOf(d Distribution) []float64 {
	switch d := d.(type) {
	case Pareto:
		return []float64{d.Scale}
	case Shifted:
		if p, ok := d.Base.(Pareto); ok {
			return []float64{d.Offset + p.Scale}
		}
		return []float64{d.Offset}
	case *Mixture:
		var ks []float64
		for _, c := range d.Components {
			ks = append(ks, kinksOf(c)...)
		}
		return ks
	}
	return nil
}

// TestSurvivalIntegralFloorBelowNumeric checks the floor against the
// quadrature it bounds, as a float comparison, on random ranges: from 0 and
// from below 0, up to TailBound, and straddling each kink so that the kink
// falls inside a panel. The floor must also be tight enough to prune with.
func TestSurvivalIntegralFloorBelowNumeric(t *testing.T) {
	rng := NewRNG(14)
	for _, d := range floorCases() {
		var ranges [][2]float64
		for i := 0; i < 12; i++ {
			a := math.Exp(rng.Uniform(-8, 5))
			b := a * math.Exp(rng.Uniform(0.01, 6))
			ranges = append(ranges, [2]float64{a, b}, [2]float64{0, b}, [2]float64{-a, b}, [2]float64{a, TailBound(d, a)})
		}
		for _, k := range kinksOf(d) {
			for i := 0; i < 6; i++ {
				ranges = append(ranges,
					[2]float64{k * rng.Uniform(0.2, 0.999), k * rng.Uniform(1.001, 5)},
					[2]float64{0, k * rng.Uniform(1.0001, 1.01)},
					[2]float64{k * rng.Uniform(0.5, 0.99), TailBound(d, k/2)},
					// Inside the flat top: the trapezoid is exact there, so
					// only the rounding slacks separate floor and quadrature.
					[2]float64{k * rng.Uniform(0.01, 0.5), k * rng.Uniform(0.5, 1)},
					[2]float64{0, k * rng.Uniform(0.01, 1)})
			}
		}
		for _, r := range ranges {
			name := fmt.Sprintf("%v on [%v, %v]", d, r[0], r[1])
			floor, ok := SurvivalIntegralFloor(d, r[0], r[1])
			if !ok {
				t.Errorf("%s: no floor", name)
				continue
			}
			num := SurvivalIntegral(d, r[0], r[1])
			if !(floor <= num) {
				t.Errorf("%s: floor %v above numeric %v", name, floor, num)
			}
			// Computed survival is absolute-accurate only (1 − CDF is 0 once
			// CDF rounds to 1), so the floor gives up about u per unit of b.
			if num-floor > 1e-2*num+1e-12*r[1] {
				t.Errorf("%s: floor %v too loose against numeric %v", name, floor, num)
			}
		}
	}
}

// TestSurvivalIntegralFloorDomain pins the floor to SurvivalIntegral's
// domain rule and its refusals.
func TestSurvivalIntegralFloorDomain(t *testing.T) {
	d := NewExponential(2)
	for _, r := range [][2]float64{{-5, -1}, {-1, 0}, {1, 1}, {2, 1}} {
		if f, ok := SurvivalIntegralFloor(d, r[0], r[1]); !ok || f != 0 {
			t.Errorf("[%v, %v]: floor %v, %v; want 0, true", r[0], r[1], f, ok)
		}
	}
	for _, u := range []Distribution{
		NewUniform(0, 1),
		Deterministic{Value: 1},
		Shifted{Offset: 1, Base: NewUniform(0, 1)},
		NewMixture([]float64{1, 1}, []Distribution{NewExponential(1), Deterministic{Value: 2}}),
		Exponential{},
		&Mixture{Weights: []float64{1}, Components: []Distribution{NewExponential(1)}},
	} {
		if _, ok := SurvivalIntegralFloor(u, 0, 3); ok {
			t.Errorf("%v: floor offered without a closed form", u)
		}
	}
	if _, ok := SurvivalIntegralFloor(d, 0, math.Inf(1)); ok {
		t.Error("floor offered for an infinite range")
	}
}
