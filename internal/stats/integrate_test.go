package stats

import (
	"math"
	"strings"
	"testing"
)

func TestSurvivalIntegralExponential(t *testing.T) {
	// ∫₀^∞ e^{-λt} dt = 1/λ (the mean).
	d := NewExponential(4)
	got := SurvivalIntegral(d, 0, TailBound(d, 0))
	if math.Abs(got-0.25) > 1e-3 {
		t.Errorf("full integral = %v, want 0.25", got)
	}
	// ∫₀^τ e^{-λt} dt = (1 - e^{-λτ})/λ.
	tau := 0.3
	want := (1 - math.Exp(-4*tau)) / 4
	if got := SurvivalIntegral(d, 0, tau); math.Abs(got-want) > 1e-4 {
		t.Errorf("partial integral = %v, want %v", got, want)
	}
	// Degenerate ranges.
	if SurvivalIntegral(d, 1, 1) != 0 || SurvivalIntegral(d, 2, 1) != 0 {
		t.Error("empty range should integrate to 0")
	}
	// Negative lower bound clamps to 0.
	if got := SurvivalIntegral(d, -5, tau); math.Abs(got-want) > 1e-4 {
		t.Errorf("clamped integral = %v, want %v", got, want)
	}
	// The clamp comes first: a range at or below 0 is empty.
	if got := SurvivalIntegral(NewExponential(2), -5, -1); got != 0 {
		t.Errorf("integral over [-5, -1] = %v, want 0", got)
	}
	if got := SurvivalIntegral(NewExponential(2), -1, 0); got != 0 {
		t.Errorf("integral over [-1, 0] = %v, want 0", got)
	}
}

func TestSurvivalIntegralPareto(t *testing.T) {
	// Pareto(x_m, a) mean = a·x_m/(a-1); ∫₀^∞ S = mean.
	p := NewPareto(2, 3)
	got := SurvivalIntegral(p, 0, TailBound(p, 0))
	if math.Abs(got-p.Mean())/p.Mean() > 5e-3 {
		t.Errorf("integral = %v, want mean %v", got, p.Mean())
	}
}

func TestTailBound(t *testing.T) {
	d := NewExponential(1)
	end := TailBound(d, 0)
	if surv := 1 - d.CDF(end); surv > 1e-6 {
		t.Errorf("survival at bound = %v", surv)
	}
	// Bound must be at least the starting point.
	if TailBound(d, 50) < 50 {
		t.Error("bound below start")
	}
}

func TestDistributionStrings(t *testing.T) {
	cases := []struct {
		d    Distribution
		want string
	}{
		{NewExponential(2), "Exp"},
		{NewPareto(1, 2), "Pareto"},
		{NewUniform(0, 1), "Uniform"},
		{Deterministic{Value: 3}, "Det"},
		{Shifted{Offset: 1, Base: NewExponential(1)}, "+"},
		{NewMixture([]float64{1}, []Distribution{Deterministic{}}), "Mixture"},
	}
	for _, c := range cases {
		if !strings.Contains(c.d.String(), c.want) {
			t.Errorf("%T String() = %q, want containing %q", c.d, c.d.String(), c.want)
		}
	}
}

func TestUniformMean(t *testing.T) {
	if got := NewUniform(2, 6).Mean(); got != 4 {
		t.Errorf("mean = %v", got)
	}
}

func TestNewParetoAndUniformPanics(t *testing.T) {
	for i, f := range []func(){
		func() { NewPareto(0, 1) },
		func() { NewPareto(1, 0) },
		func() { NewUniform(3, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestRNGParameterPanics(t *testing.T) {
	r := NewRNG(1)
	for i, f := range []func(){
		func() { r.Pareto(0, 1) },
		func() { r.Pareto(1, -1) },
		func() { r.Uniform(2, 1) },
		func() { r.Norm(0, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}

func TestHistogramAccessors(t *testing.T) {
	h := NewHistogram(0, 10, 5)
	for _, x := range []float64{1, 3, 3, 7} {
		h.Add(x)
	}
	if got := h.Mean(); math.Abs(got-3.5) > 1e-12 {
		t.Errorf("mean = %v", got)
	}
	bins := h.Bins()
	if len(bins) != 5 {
		t.Fatalf("bins = %d", len(bins))
	}
	sum := int64(0)
	for _, b := range bins {
		sum += b
	}
	if sum != 4 {
		t.Errorf("bin sum = %d", sum)
	}
	// Bins() must be a copy.
	bins[0] = 99
	if h.Bins()[0] == 99 {
		t.Error("Bins leaks internal state")
	}
	lo, hi := h.Range()
	if lo != 0 || hi != 10 {
		t.Errorf("range = [%v, %v]", lo, hi)
	}
}

func TestECDFValues(t *testing.T) {
	e := NewECDF([]float64{3, 1, 2})
	v := e.Values()
	if v[0] != 1 || v[2] != 3 {
		t.Errorf("values = %v, want sorted", v)
	}
}

// twoEvalSurvivalIntegral is SurvivalIntegral as first written, evaluating
// the survival function at both ends of every panel: the reference the
// single-evaluation loop must reproduce bit for bit.
func twoEvalSurvivalIntegral(d Distribution, a, b float64) float64 {
	if a < 0 {
		a = 0
	}
	if b <= a {
		return 0
	}
	surv := func(t float64) float64 { return 1 - d.CDF(t) }
	const steps = 4000
	sum := 0.0
	lo := a
	if lo <= 0 {
		lo = b * 1e-9
		sum += surv(0) * lo
	}
	ratio := math.Pow(b/lo, 1/float64(steps))
	t := lo
	for i := 0; i < steps; i++ {
		next := t * ratio
		sum += (surv(t) + surv(next)) / 2 * (next - t)
		t = next
	}
	return sum
}

// TestSurvivalIntegralMatchesTwoEvaluationLoop pins the carried-forward
// trapezoid to the two-evaluation loop, bit for bit, over the idle models
// the power managers integrate: exponential, Pareto and their mixture, from
// zero and from interior lower bounds.
func TestSurvivalIntegralMatchesTwoEvaluationLoop(t *testing.T) {
	exp := NewExponential(23.5)
	par := NewPareto(280, 3.5)
	dists := map[string]Distribution{
		"exponential": exp,
		"pareto":      par,
		"shifted":     Shifted{Offset: 120, Base: par},
		"mixture":     NewMixture([]float64{4000, 5}, []Distribution{exp, Shifted{Offset: 120, Base: par}}),
	}
	for name, d := range dists {
		for _, r := range [][2]float64{{0, 0.01}, {0, 3}, {0.004, 2.5}, {1.7, 900}, {0, TailBound(d, 0)}, {-1, 40}} {
			got, want := SurvivalIntegral(d, r[0], r[1]), twoEvalSurvivalIntegral(d, r[0], r[1])
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s on [%v, %v]: %v, two-evaluation loop %v", name, r[0], r[1], got, want)
			}
		}
	}
}
