package experiments

import (
	"fmt"

	"smartbadge/internal/device"
	"smartbadge/internal/dpm"
	"smartbadge/internal/faults"
	"smartbadge/internal/parallel"
	"smartbadge/internal/policy"
	"smartbadge/internal/sim"
	"smartbadge/internal/stats"
	"smartbadge/internal/units"
	"smartbadge/internal/workload"
)

// ResilienceBufferCap bounds the frame buffer in the resilience experiments.
// It must hold the worst catalogue outage's backlog (~115 s of arrivals at
// mixed-workload rates) so that recovery — not overflow — is what the table
// measures for the guarded configurations.
const ResilienceBufferCap = 4096

// ResilienceRow is one scenario x configuration cell of the resilience table.
type ResilienceRow struct {
	// Scenario names the injected fault scenario ("none" is the baseline).
	Scenario string
	// Config names the policy configuration (see resilienceConfigs).
	Config string

	EnergyKJ float64
	// RelEnergy is EnergyKJ over the same configuration's fault-free energy.
	RelEnergy float64
	// MissRate is the fraction of decoded frames whose delay exceeded the
	// controller's target.
	MissRate float64
	// Drops counts lost frames: payloads destroyed by corruption plus buffer
	// overflows in the simulator.
	Drops int
	// PeakQueue is the maximum buffer occupancy.
	PeakQueue int
	// Trips counts overload-watchdog engagements (guarded config only).
	Trips int
	// SafeModeS is the total time the watchdog held maximum performance.
	SafeModeS float64
	// Recovered reports that the run did not end in safe mode: every
	// engagement released after the backlog cleared (vacuously true when the
	// watchdog never tripped, or for unguarded configurations).
	Recovered bool
	// Vetoes counts sleep decisions the DPM guard overrode.
	Vetoes int
}

// resilienceConfig is one column family of the resilience table.
type resilienceConfig struct {
	name    string
	policy  PolicyKind
	guarded bool
}

// resilienceConfigs compares the paper's adaptive stack with and without the
// graceful-degradation guardrails, against the max-performance fallback the
// watchdog degrades to.
func resilienceConfigs() []resilienceConfig {
	return []resilienceConfig{
		{"guarded", ChangePoint, true},
		{"bare", ChangePoint, false},
		{"max", Max, false},
	}
}

// GridClamp derives the estimator clamp for a detector rate grid: half the
// lowest to twice the highest candidate rate. Any estimate outside that band
// is physically implausible for the application and gets clamped before the
// M/M/1 equation sees it.
func GridClamp(grid []float64) policy.RateClamp {
	if len(grid) == 0 {
		return policy.RateClamp{}
	}
	return policy.RateClamp{Lo: grid[0] / 2, Hi: grid[len(grid)-1] * 2}
}

// ResilienceTable runs every catalogue fault scenario (plus the fault-free
// baseline) under each configuration on the Table 5 combined workload,
// reporting energy, deadline misses, drops, and watchdog recovery. Within a
// scenario every configuration faces the bit-identical perturbed trace (the
// fault stream is derived per scenario index with SplitAt), and cells are
// index-addressed, so results are identical for any worker count.
func ResilienceTable(seed uint64, workers int) ([]ResilienceRow, error) {
	tr, err := Table5Workload(seed)
	if err != nil {
		return nil, err
	}
	catalogue, err := faults.Catalogue(tr)
	if err != nil {
		return nil, err
	}
	scenarios := append([]faults.Scenario{{Name: "none"}}, catalogue...)
	configs := resilienceConfigs()
	app := MixedApp()
	badge := device.SmartBadge()
	costs := dpm.CostsForBadge(badge, device.Standby)
	idleModel := tr.IdleModel()
	base := stats.NewRNG(seed)

	cells := len(scenarios) * len(configs)
	rows, err := parallel.Map(workers, cells, func(i int) (ResilienceRow, error) {
		sc := scenarios[i/len(configs)]
		cfg := configs[i%len(configs)]
		ftr, derate, injected := tr, []sim.PowerDerate(nil), 0
		if !sc.Empty() {
			inj, err := faults.Apply(base.SplitAt(uint64(i/len(configs))), tr, sc, nil)
			if err != nil {
				return ResilienceRow{}, fmt.Errorf("resilience %s: %w", sc.Name, err)
			}
			ftr, derate, injected = inj.Trace, inj.Derate, inj.Report.Dropped
		}
		row, err := runResilienceCell(ftr, derate, app, cfg, idleModel, costs)
		if err != nil {
			return ResilienceRow{}, fmt.Errorf("resilience %s/%s: %w", sc.Name, cfg.name, err)
		}
		row.Scenario = sc.Name
		row.Config = cfg.name
		row.Drops += injected
		return row, nil
	})
	if err != nil {
		return nil, err
	}

	// Baselines: RelEnergy against the same configuration's fault-free cell.
	baseline := make(map[string]float64, len(configs))
	for _, r := range rows {
		if r.Scenario == "none" {
			baseline[r.Config] = r.EnergyKJ
		}
	}
	for i := range rows {
		if b := baseline[rows[i].Config]; b > 0 {
			rows[i].RelEnergy = rows[i].EnergyKJ / b
		}
	}
	return rows, nil
}

// runResilienceCell simulates one perturbed trace under one configuration.
// The DPM policy is fitted to the fault-free idle model (the nominal
// conditions a deployed policy would have been tuned on — exactly the
// assumption the faults attack).
func runResilienceCell(tr *workload.Trace, derate []sim.PowerDerate, app App,
	cfg resilienceConfig, idleModel stats.Distribution, costs dpm.Costs) (ResilienceRow, error) {
	first := tr.Changes[0]
	ctrl, err := NewController(cfg.policy, app, first.ArrivalRate, first.DecodeRateMax)
	if err != nil {
		return ResilienceRow{}, err
	}
	var pol dpm.Policy
	pol, err = dpm.NewRenewalTimeout(idleModel, costs, device.Standby, 0)
	if err != nil {
		return ResilienceRow{}, err
	}

	var guard *policy.OverloadGuard
	var dguard *dpm.Guard
	if cfg.guarded {
		guard, err = policy.NewOverloadGuard(policy.DefaultGuardConfig())
		if err != nil {
			return ResilienceRow{}, err
		}
		dguard, err = dpm.NewGuard(pol, dpm.DefaultGuardSpikeFactor, dpm.DefaultGuardHold)
		if err != nil {
			return ResilienceRow{}, err
		}
		guard.OnTrip = func(float64) { dguard.NoteSuspicion() }
		pol = dguard
		ctrl.ArrivalClamp = GridClamp(app.ArrivalGrid)
		ctrl.ServiceClamp = GridClamp(app.ServiceGrid)
	}

	res, err := sim.Run(sim.Config{
		Badge:      device.SmartBadge(),
		Proc:       ctrl.Proc,
		Trace:      tr,
		Controller: ctrl,
		DPM:        pol,
		Kind:       app.Kind,
		BufferCap:  ResilienceBufferCap,
		Guard:      guard,
		Derate:     derate,
	})
	if err != nil {
		return ResilienceRow{}, err
	}

	row := ResilienceRow{
		EnergyKJ:  units.JToKJ(res.EnergyJ),
		Drops:     res.FramesDropped,
		PeakQueue: res.PeakQueue,
		Trips:     res.GuardTrips,
		SafeModeS: res.GuardEngagedS,
		Recovered: !guard.Engaged(),
		Vetoes:    dguard.Vetoes(),
	}
	if res.FramesDecoded > 0 {
		row.MissRate = float64(res.DelayOverTarget) / float64(res.FramesDecoded)
	}
	return row, nil
}
