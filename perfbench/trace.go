package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"smartbadge/internal/changepoint"
	"smartbadge/internal/device"
	"smartbadge/internal/dpm"
	"smartbadge/internal/experiments"
	"smartbadge/internal/fleet"
	"smartbadge/internal/sa1100"
	"smartbadge/internal/sim"
	"smartbadge/internal/stats"
	"smartbadge/internal/workload"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one request share Req; a badge's
// layer spans have the badge span as Parent.
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Req     int    `json:"req"`
	Layer   string `json:"layer"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) begin(layer string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Layer: layer,
		StartNS: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.EndNS = time.Since(t.t0).Nanoseconds()
	return s.dur()
}

// layerRun is the traced, decomposed rerun of the fleet engine's per-badge
// path: the same public calls fleet.Run makes, each inside a span, plus
// the allocation delta around trace generation and an off-the-clock replay
// of the change-point detector on each badge's samples.
type layerRun struct {
	tr tracer

	layerT  map[string]time.Duration // summed span time per layer
	genN    int
	allocB  uint64
	renewN  int
	ctrlN   int
	simN    map[experiments.PolicyKind]int
	simT    map[experiments.PolicyKind]time.Duration
	frames  int
	obsN    int
	obsT    time.Duration
	detects int
	replayT time.Duration // detector replay wall time, not part of any badge
}

func newLayerRun() *layerRun {
	return &layerRun{tr: tracer{t0: time.Now()},
		simN: map[experiments.PolicyKind]int{}, simT: map[experiments.PolicyKind]time.Duration{},
		layerT: map[string]time.Duration{}}
}

// runConfig reruns one request's config badge by badge on one scratch (as
// a Workers-1 fleet.Run does), checks every badge against the reference
// report and returns the summed badge time.
func (x *layerRun) runConfig(req int, cfg fleet.Config, ref *fleet.Report) (time.Duration, error) {
	if len(ref.Failed) > 0 || len(ref.Badges) != cfg.Badges {
		return 0, fmt.Errorf("request %d: reference report has %d failed badges", req, len(ref.Failed))
	}
	sc := sim.NewScratch()
	var total time.Duration
	for i := 0; i < cfg.Badges; i++ {
		got, d, err := x.badge(&cfg, req, i, sc)
		if err != nil {
			return 0, fmt.Errorf("request %d badge %d: %w", req, i, err)
		}
		if !sameBadge(got, ref.Badges[i]) {
			return 0, fmt.Errorf("request %d badge %d: traced rerun %+v differs from fleet.Run %+v", req, i, got, ref.Badges[i])
		}
		total += d
	}
	return total, nil
}

// badge mirrors the fleet engine's per-badge path: trace generation, DPM
// set-up, controller set-up, simulation.
func (x *layerRun) badge(cfg *fleet.Config, req, i int, sc *sim.Scratch) (fleet.BadgeResult, time.Duration, error) {
	spec := cfg.SpecFor(i)
	root := x.tr.begin("badge", 0, req)
	rng := stats.NewRNG(cfg.Seed).SplitAt(uint64(i))

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	id := x.tr.begin("workload", root, req)
	tr, app, err := generate(spec.App, rng)
	d := x.tr.end(id)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return fleet.BadgeResult{}, 0, err
	}
	x.genN++
	x.layerT["workload"] += d
	x.allocB += m1.TotalAlloc - m0.TotalAlloc

	var pol dpm.Policy = dpm.AlwaysOn{}
	if spec.DPM == "renewal" {
		id = x.tr.begin("dpm", root, req)
		costs := dpm.CostsForBadge(device.SmartBadge(), device.Standby)
		pol, err = dpm.NewRenewalTimeout(tr.IdleModel(), costs, device.Standby, 0)
		d = x.tr.end(id)
		if err != nil {
			return fleet.BadgeResult{}, 0, err
		}
		x.renewN++
		x.layerT["dpm"] += d
	}

	first := tr.Changes[0]
	id = x.tr.begin("policy", root, req)
	ctrl, err := experiments.NewController(spec.Policy, app, first.ArrivalRate, first.DecodeRateMax)
	d = x.tr.end(id)
	if err != nil {
		return fleet.BadgeResult{}, 0, err
	}
	x.ctrlN++
	x.layerT["policy"] += d

	id = x.tr.begin("sim", root, req)
	res, err := sim.Run(sim.Config{Badge: device.SmartBadge(), Proc: sa1100.Default(), Trace: tr,
		Controller: ctrl, DPM: pol, Kind: app.Kind, Scratch: sc})
	d = x.tr.end(id)
	if err != nil {
		return fleet.BadgeResult{}, 0, err
	}
	x.simN[spec.Policy]++
	x.simT[spec.Policy] += d
	x.layerT["sim"] += d
	x.frames += res.FramesDecoded

	bt := x.tr.end(root)
	if spec.Policy == experiments.ChangePoint {
		if err := x.replayDetectors(app, tr); err != nil {
			return fleet.BadgeResult{}, 0, err
		}
	}
	return fleet.BadgeResult{
		Spec:          spec,
		EnergyJ:       res.EnergyJ,
		MeanDelayS:    res.FrameDelay.Mean(),
		SimTimeS:      res.SimTime,
		AvgPowerW:     res.AvgPowerW,
		FramesDecoded: res.FramesDecoded,
		Sleeps:        res.Sleeps,
	}, bt, nil
}

// generate is the fleet engine's trace generation for one app.
func generate(app string, rng *stats.RNG) (*workload.Trace, experiments.App, error) {
	switch app {
	case "mp3":
		clips, err := workload.MP3Sequence("ACEFBD")
		if err != nil {
			return nil, experiments.App{}, err
		}
		tr, err := workload.Generate(rng, clips, workload.GenerateOptions{})
		return tr, experiments.MP3App(), err
	case "mpeg":
		tr, err := workload.Generate(rng, workload.MPEGClips(), workload.GenerateOptions{})
		return tr, experiments.MPEGApp(), err
	default:
		tr, err := experiments.Table5Workload(rng.Uint64())
		return tr, experiments.MixedApp(), err
	}
}

// replayDetectors feeds a paper-config detector (m = 100 on the app's rate
// grid) the badge's real interarrival times (idle gaps over the
// simulator's 1 s reset excluded) and decode times at maximum frequency,
// timing Detector.Observe alone.
func (x *layerRun) replayDetectors(app experiments.App, tr *workload.Trace) error {
	t0 := time.Now()
	defer func() { x.replayT += time.Since(t0) }()
	var arr, dec []float64
	for i, gap := range tr.Interarrivals() {
		if i > 0 && gap <= 1.0 {
			arr = append(arr, gap)
		}
		dec = append(dec, tr.Frames[i].Work)
	}
	first := tr.Changes[0]
	for _, s := range []struct {
		grid    []float64
		initial float64
		xs      []float64
	}{{app.ArrivalGrid, first.ArrivalRate, arr}, {app.ServiceGrid, first.DecodeRateMax, dec}} {
		cfg := changepoint.DefaultConfig(s.grid)
		th, err := experiments.ThresholdCache().Characterise(cfg)
		if err != nil {
			return err
		}
		det, err := changepoint.NewDetector(cfg, th, s.initial)
		if err != nil {
			return err
		}
		start := time.Now()
		for _, v := range s.xs {
			if _, ok := det.Observe(v); ok {
				x.detects++
			}
		}
		x.obsT += time.Since(start)
		x.obsN += len(s.xs)
	}
	return nil
}

// sameBadge compares two badge results field by field, floats by bit
// pattern.
func sameBadge(a, b fleet.BadgeResult) bool {
	bits := math.Float64bits
	return a.Spec == b.Spec &&
		bits(a.EnergyJ) == bits(b.EnergyJ) &&
		bits(a.MeanDelayS) == bits(b.MeanDelayS) &&
		bits(a.SimTimeS) == bits(b.SimTimeS) &&
		bits(a.AvgPowerW) == bits(b.AvgPowerW) &&
		a.FramesDecoded == b.FramesDecoded &&
		a.Sleeps == b.Sleeps
}
