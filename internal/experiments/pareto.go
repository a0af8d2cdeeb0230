package experiments

import (
	"fmt"
	"strings"

	"smartbadge/internal/device"
	"smartbadge/internal/mdp"
	"smartbadge/internal/parallel"
	"smartbadge/internal/perfmodel"
	"smartbadge/internal/policy"
	"smartbadge/internal/sa1100"
	"smartbadge/internal/sim"
	"smartbadge/internal/stats"
	"smartbadge/internal/units"
	"smartbadge/internal/workload"
)

// ParetoPoint is one policy configuration's measured (energy, delay) on the
// stationary frontier workload.
type ParetoPoint struct {
	Label string
	// CPUPowerW is the average CPU power (the DVS-controllable share).
	CPUPowerW float64
	// MeanDelayMS is the mean total frame delay in milliseconds.
	MeanDelayMS float64
	// Switches counts operating-point changes.
	Switches int
}

// paretoWorkload is the stationary single-segment workload the frontier is
// measured on: every policy faces identical arrivals and decode work.
func paretoWorkload(seed uint64) (*workload.Trace, float64, float64, error) {
	const lambda, decodeMax = 25.0, 110.0
	clip := workload.Clip{
		Label: "pareto",
		Kind:  workload.MP3,
		Segments: []workload.Segment{{
			Duration: 900, ArrivalRate: lambda, DecodeRateMax: decodeMax,
		}},
	}
	tr, err := workload.Generate(stats.NewRNG(seed), []workload.Clip{clip}, workload.GenerateOptions{})
	return tr, lambda, decodeMax, err
}

// ParetoFrontier measures the energy/latency trade-off of three policy
// families on one stationary workload: the paper's rate-based M/M/1 policy
// across delay targets, fixed frequencies, and the queue-aware MDP across
// delay prices. The frontier generalises the trade-off themes of Figures 4,
// 5 and 9 into a single measured curve. Points run concurrently on up to
// workers goroutines (<= 0 selects runtime.GOMAXPROCS(0), 1 runs serially).
// Every point is an independent simulation on the shared read-only trace, so
// the frontier is identical for any worker count.
func ParetoFrontier(seed uint64, workers int) ([]ParetoPoint, error) {
	tr, lambda, decodeMax, err := paretoWorkload(seed)
	if err != nil {
		return nil, err
	}
	proc := sa1100.Default()
	curve := perfmodel.MP3Curve()

	run := func(label string, target float64, qp sim.QueuePolicy) (ParetoPoint, error) {
		ctrl, err := policy.NewController(proc, curve, target,
			policy.NewIdeal(lambda), policy.NewIdeal(decodeMax), false)
		if err != nil {
			return ParetoPoint{}, err
		}
		ctrl.ResetRates(lambda, decodeMax)
		res, err := sim.Run(sim.Config{
			Badge: device.SmartBadge(), Proc: proc, Trace: tr,
			Controller: ctrl, Kind: workload.MP3, QueuePolicy: qp,
		})
		if err != nil {
			return ParetoPoint{}, err
		}
		return ParetoPoint{
			Label:       label,
			CPUPowerW:   res.EnergyByComponent[device.NameCPU] / res.SimTime,
			MeanDelayMS: units.SToMS(res.FrameDelay.Mean()),
			Switches:    res.Reconfigurations,
		}, nil
	}

	// Assemble the independent points first (order fixed: M/M/1 targets, MDP
	// prices, fixed frequencies), then fan them out.
	var jobs []func() (ParetoPoint, error)
	for _, target := range []float64{0.05, 0.1, 0.2, 0.4} {
		target := target
		jobs = append(jobs, func() (ParetoPoint, error) {
			return run(fmt.Sprintf("mm1(W=%.2fs)", target), target, nil)
		})
	}
	fMax := proc.Max().FrequencyMHz
	mu := make([]float64, proc.NumPoints())
	pw := make([]float64, proc.NumPoints())
	for i, pt := range proc.Points() {
		mu[i] = decodeMax * curve.PerfRatio(pt.FrequencyMHz/fMax)
		pw[i] = pt.ActivePowerW
	}
	for _, beta := range []float64{0.02, 0.1, 0.5, 2} {
		beta := beta
		jobs = append(jobs, func() (ParetoPoint, error) {
			cfg := mdp.Config{
				Lambda: lambda, Mu: mu, PowerW: pw,
				IdlePowerW: proc.IdlePowerW(), DelayWeightW: beta, QueueCap: 60,
			}
			pol, err := mdp.Solve(cfg)
			if err != nil {
				return ParetoPoint{}, err
			}
			ladder, err := pol.Ladder(proc)
			if err != nil {
				return ParetoPoint{}, err
			}
			return run(fmt.Sprintf("mdp(β=%.2gW)", beta), 0.15, ladder)
		})
	}
	for _, idx := range []int{3, 7, proc.NumPoints() - 1} {
		op := proc.Point(idx)
		jobs = append(jobs, func() (ParetoPoint, error) {
			return run(fmt.Sprintf("fixed(%.1fMHz)", op.FrequencyMHz), 0.15, fixedOp{op})
		})
	}
	return parallel.Map(workers, len(jobs), func(i int) (ParetoPoint, error) {
		return jobs[i]()
	})
}

type fixedOp struct{ op sa1100.OperatingPoint }

func (f fixedOp) OperatingPointFor(int) sa1100.OperatingPoint { return f.op }

// FormatPareto renders the frontier.
func FormatPareto(points []ParetoPoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Energy/latency frontier (stationary MP3 workload, λ=25 fr/s, µmax=110 fr/s)\n")
	fmt.Fprintf(&b, "%-18s %14s %12s %10s\n", "policy", "CPU power (W)", "delay (ms)", "switches")
	for _, p := range points {
		fmt.Fprintf(&b, "%-18s %14.4f %12.1f %10d\n", p.Label, p.CPUPowerW, p.MeanDelayMS, p.Switches)
	}
	return b.String()
}
