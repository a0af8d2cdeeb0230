package dpm_test

import (
	"fmt"
	"math"
	"testing"

	"smartbadge/internal/device"
	"smartbadge/internal/dpm"
	"smartbadge/internal/experiments"
	"smartbadge/internal/stats"
	"smartbadge/internal/workload"
)

// optimalTimeoutFullScan is OptimalTimeout before grid pruning: score every
// grid timeout in order and keep the first strict minimum. It is the oracle
// the pruned search must reproduce bit for bit.
func optimalTimeoutFullScan(dist stats.Distribution, c dpm.Costs) float64 {
	be := c.BreakEven()
	if be <= 0 {
		return 0
	}
	bestTau := 0.0
	bestE := dpm.ExpectedEnergyPerIdle(dist, c, 0)
	tau := be / 100
	for tau <= be*100 {
		if e := dpm.ExpectedEnergyPerIdle(dist, c, tau); e < bestE {
			bestE, bestTau = e, tau
		}
		tau *= 1.25
	}
	return bestTau
}

// timeoutCase is one idle model and cost table to compare on.
type timeoutCase struct {
	name  string
	dist  stats.Distribution
	costs dpm.Costs
}

// fleetIdleModels returns the idle models fleet badges derive from their
// traces: MP3 and MPEG traces without inter-clip gaps (an Exponential) and
// the Table 5 mixed workload (an Exponential-plus-Pareto Mixture).
func fleetIdleModels(t *testing.T, seeds int) []timeoutCase {
	t.Helper()
	standby := dpm.CostsForBadge(device.SmartBadge(), device.Standby)
	mp3, err := workload.MP3Sequence("ACEFBD")
	if err != nil {
		t.Fatal(err)
	}
	var cases []timeoutCase
	for seed := 1; seed <= seeds; seed++ {
		rng := stats.NewRNG(uint64(seed))
		for _, g := range []struct {
			app string
			gen func() (*workload.Trace, error)
		}{
			{"mp3", func() (*workload.Trace, error) { return workload.Generate(rng, mp3, workload.GenerateOptions{}) }},
			{"mpeg", func() (*workload.Trace, error) {
				return workload.Generate(rng, workload.MPEGClips(), workload.GenerateOptions{})
			}},
			{"mixed", func() (*workload.Trace, error) { return experiments.Table5Workload(rng.Uint64()) }},
		} {
			tr, err := g.gen()
			if err != nil {
				t.Fatal(err)
			}
			cases = append(cases, timeoutCase{fmt.Sprintf("%s seed %d", g.app, seed), tr.IdleModel(), standby})
		}
	}
	return cases
}

// TestOptimalTimeoutMatchesFullScan pins the pruned search to the full grid
// scan, bit for bit, on fleet idle models, Pareto refits, a Mixture whose
// kink lies inside the grid, zero sleep power, and a Uniform model that has
// no floor and takes the fallback path.
func TestOptimalTimeoutMatchesFullScan(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 5
	}
	cases := fleetIdleModels(t, seeds)

	standby := dpm.CostsForBadge(device.SmartBadge(), device.Standby)
	off := dpm.CostsForBadge(device.SmartBadge(), device.Off)
	be := standby.BreakEven()
	rng := stats.NewRNG(14)
	gap := experiments.Table5GapDistribution()
	for _, n := range []int{3, 5, 20, 200} {
		sample := make([]float64, n)
		for i := range sample {
			sample[i] = gap.Sample(rng)
		}
		fit, err := stats.FitPareto(sample)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, timeoutCase{fmt.Sprintf("FitPareto of %d gaps", n), fit, standby})
		// Refits on short idle periods put Scale inside the grid.
		for i := range sample {
			sample[i] = be * math.Exp(rng.Uniform(-2, 3))
		}
		if fit, err = stats.FitPareto(sample); err != nil {
			t.Fatal(err)
		}
		cases = append(cases, timeoutCase{fmt.Sprintf("FitPareto of %d short idles", n), fit, standby})
	}
	for _, k := range []float64{0.02, 0.3, 1, 4, 60} {
		inner := stats.NewMixture([]float64{900, 40}, []stats.Distribution{
			stats.NewExponential(25), stats.NewPareto(k*be, 1.5)})
		cases = append(cases,
			timeoutCase{fmt.Sprintf("Mixture with Scale %g·T_be", k), inner, standby},
			timeoutCase{fmt.Sprintf("Mixture with Scale %g·T_be, off", k), inner, off},
			timeoutCase{fmt.Sprintf("Mixture with offset %g·T_be", k), stats.NewMixture([]float64{3, 1}, []stats.Distribution{
				stats.NewExponential(8), stats.Shifted{Offset: k * be, Base: stats.NewPareto(be, 1)}}), standby},
		)
	}
	cases = append(cases,
		timeoutCase{"Pareto, off", stats.NewPareto(0.05, 1.5), off},
		timeoutCase{"Pareto, sleep power 0", stats.NewPareto(0.05, 1.5), dpm.Costs{IdlePowerW: 1.24, TransitionEnergyJ: 0.53}},
		timeoutCase{"Exponential, sleep power 0", stats.NewExponential(3), dpm.Costs{IdlePowerW: 1.24, TransitionEnergyJ: 0.53}},
		timeoutCase{"Uniform", stats.NewUniform(0.01, 2), standby},
		timeoutCase{"Mixture with a Uniform", stats.NewMixture([]float64{1, 1}, []stats.Distribution{
			stats.NewExponential(20), stats.NewUniform(0.5, 3)}), standby},
	)

	for _, c := range cases {
		got, want := dpm.OptimalTimeout(c.dist, c.costs), optimalTimeoutFullScan(c.dist, c.costs)
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("%s (%v): OptimalTimeout %v, full scan %v", c.name, c.dist, got, want)
		}
	}
}
