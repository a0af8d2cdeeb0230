package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"smartbadge/internal/changepoint"
	"smartbadge/internal/client"
	"smartbadge/internal/experiments"
	"smartbadge/internal/fleet"
	"smartbadge/internal/obs"
	"smartbadge/internal/server"
)

const (
	// setupReps daemons are started and warmed per run; setup_s is their
	// median. The last one serves the timed window.
	setupReps = 5
	// probeReplays sequential replays of one cached body time the
	// client-observed round trip after the window.
	probeReplays = 200
	// The open-loop generator fell behind, and the run is rejected, when its
	// median send is later than maxGenLagP50 (it no longer keeps the
	// schedule) or one send is later than maxGenLagMax (a stall of four
	// single-badge latency objectives). Scheduling jitter below these, even
	// under a busy hypervisor, is reported in bench.gen_lag_ms instead.
	maxGenLagP50 = 10 * time.Millisecond
	maxGenLagMax = time.Second
	// replayWarmup of untimed replay traffic precedes the replay window.
	replayWarmup = 3 * time.Second
)

// measure runs one workload end to end and, when o.trace is set, the
// traced in-process rerun.
func measure(ctx context.Context, o options, conns int) (*measurement, error) {
	m := &measurement{e2e: newMetricSet(endToEnd), layers: newMetricSet(perLayer), details: map[string]string{}}
	g := newGenerator(o.workload, o.seed)
	var set []request
	if o.workload == "replay" {
		set = g.workingSet()
	}

	// Set-up: start and warm setupReps daemons in turn; keep the last.
	var (
		d       *daemon
		setups  []float64
		leaders [][]byte
	)
	for rep := 0; rep < setupReps; rep++ {
		if d != nil {
			d.stop()
		}
		t0 := time.Now()
		var err error
		d, err = startDaemon(o.dvsimd, conns, o.seed)
		if err != nil {
			return nil, err
		}
		if err := d.warm(ctx, conns); err != nil {
			d.stop()
			return nil, fmt.Errorf("warming dvsimd: %w", err)
		}
		if set != nil {
			bodies, err := answerAll(ctx, d, set)
			if err != nil {
				d.stop()
				return nil, fmt.Errorf("computing the replay working set: %w", err)
			}
			for i := range leaders {
				if !bytes.Equal(leaders[i], bodies[i]) {
					m.fail(fmt.Errorf("working-set body %d differs between daemon starts", i))
				}
			}
			leaders = bodies
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer d.stop()

	if set != nil {
		// Untimed replay traffic first, so the window starts at the steady
		// state rather than on the ramp-up of a fresh process pair.
		if _, err := replayLoop(ctx, d, set, leaders, replayWarmup, conns, o.seed+1); err != nil {
			m.fail(err)
		}
	}

	// Timed window, with /metrics and client counters scraped around it.
	before, err := d.metrics(ctx)
	if err != nil {
		return nil, err
	}
	cBefore := d.cl.Stats()
	steal0, total0 := hostCPU()
	window := time.Duration(o.seconds) * time.Second
	var (
		reqs    []request
		samples []sample
	)
	switch o.workload {
	case "fleet-mix", "fleet-skew":
		reqs, samples = closedLoop(ctx, d, g, window)
	case "run-open":
		reqs, samples = openLoop(ctx, d, g, window, openRate)
	case "replay":
		reqs = set
		samples, err = replayLoop(ctx, d, set, leaders, window, conns, o.seed)
		if err != nil {
			m.fail(err)
		}
	}
	after, err := d.metrics(ctx)
	if err != nil {
		return nil, err
	}
	cAfter := d.cl.Stats()
	if steal1, total1 := hostCPU(); total1 > total0 {
		// A VM's stolen CPU time slows everything it runs; recorded so a slow
		// run can be told apart from a slow program.
		m.details["host_steal"] = fmt.Sprintf("%.1f%% of CPU time stolen by the hypervisor during the window",
			100*float64(steal1-steal0)/float64(total1-total0))
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	// Answers, in request order (replay: the leaders).
	bodies := leaders
	if set == nil {
		bodies = make([][]byte, len(reqs))
		for _, s := range samples {
			bodies[s.req] = s.body
		}
	}
	probe := -1
	for i := len(bodies) - 1; i >= 0 && probe < 0; i-- {
		if bodies[i] != nil {
			probe = i
		}
	}
	if probe < 0 {
		return nil, errors.New("no request was answered in the timed window")
	}
	probeLat, err := probeReplay(ctx, d, reqs[probe], bodies[probe])
	if err != nil {
		m.fail(err)
	}
	peak, err := d.peakRSSMB()
	if err != nil {
		return nil, err
	}
	d.stop()

	if err := m.endToEnd(o, samples, reqs, before, after, cBefore, cAfter, setups, peak); err != nil {
		return nil, err
	}

	// In-process: cold characterisation of the default grids, then every
	// answer recomputed with fleet.Run at Workers 1 and compared.
	charT, warmHit, err := characterise()
	if err != nil {
		return nil, err
	}
	m.layers.set("changepoint.characterise_ms", ms(charT))
	m.layers.set("thrcache.warm_hit_us", us(warmHit))

	workers := conns
	if o.trace {
		workers = 1 // serial, so the traced rerun compares like for like
	}
	var served []request
	var servedBodies [][]byte
	for i, b := range bodies {
		if b != nil {
			served = append(served, reqs[i])
			servedBodies = append(servedBodies, b)
		}
	}
	refs, err := recompute(served, workers)
	if err != nil {
		return nil, err
	}
	if err := checkBodies(served, servedBodies, refs); err != nil {
		m.fail(err)
	}
	m.digest, m.bodies = digest(servedBodies), len(servedBodies)

	if o.trace {
		if err := m.traced(o, served, refs, reqs[probe], bodies[probe], probeLat); err != nil {
			return nil, err
		}
	}
	return m, nil
}

// answerAll sends every request once, in sequence (so the daemon's memory
// peak does not depend on which bodies happened to overlap), and returns
// the 200 bodies in request order.
func answerAll(ctx context.Context, d *daemon, reqs []request) ([][]byte, error) {
	out := make([][]byte, len(reqs))
	for i, r := range reqs {
		var err error
		if out[i], err = send(ctx, d, r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeReplay re-posts one answered body probeReplays times in sequence and
// returns the median client-observed latency; every replay must be
// byte-equal to the original answer.
func probeReplay(ctx context.Context, d *daemon, r request, want []byte) (time.Duration, error) {
	lat := make([]float64, 0, probeReplays)
	for i := 0; i < probeReplays; i++ {
		t0 := time.Now()
		body, err := send(ctx, d, r)
		lat = append(lat, float64(time.Since(t0)))
		if err != nil {
			return 0, fmt.Errorf("replay probe: %w", err)
		}
		if !bytes.Equal(body, want) {
			return 0, errors.New("replay probe answer differs from the original answer")
		}
	}
	return time.Duration(median(lat)), nil
}

// endToEnd derives the user-visible metrics from the timed window and
// checks the daemon's own accounting of it.
func (m *measurement) endToEnd(o options, samples []sample, reqs []request, before, after obs.Snapshot,
	cBefore, cAfter client.Stats, setups []float64, peakMB float64) error {
	delta := func(name string) float64 { return after.Counters[name] - before.Counters[name] }
	shed, cancelled := delta("server.shed"), delta("server.cancelled")

	var (
		okN, badges, met int
		lat, lags        []float64
		start, end       time.Time
	)
	for i, s := range samples {
		if i == 0 || s.due.Before(start) {
			start = s.due
		}
		lags = append(lags, float64(s.lag))
		if s.err != nil {
			continue
		}
		okN++
		badges += reqs[s.req].cfg.Badges
		l := s.latency()
		lat = append(lat, float64(l))
		if l <= sloPerBadge*time.Duration(reqs[s.req].cfg.Badges) {
			met++
		}
		if s.done.After(end) {
			end = s.done
		}
	}
	m.attempted = len(samples)
	m.failed = len(samples) - okN + int(shed) + int(cancelled)
	if m.attempted == 0 || okN == 0 {
		return errors.New("no request was answered in the timed window")
	}
	elapsed := end.Sub(start).Seconds()
	sort.Float64s(lat)
	tail, pct, beyond := tailOf(lat)

	m.e2e.set("setup_s", median(setups))
	m.e2e.set("badges_per_s", float64(badges)/elapsed)
	m.e2e.set("req_per_s", float64(okN)/elapsed)
	m.e2e.set("latency_p50_ms", ms(time.Duration(percentile(lat, 0.5))))
	m.e2e.set("latency_tail_ms", ms(time.Duration(tail)))
	m.e2e.set("slo_attainment", float64(met)/float64(m.attempted))
	m.e2e.set("peak_rss_mb", peakMB)
	m.details["setup_s"] = fmt.Sprintf("median of %d daemon starts: %.4f", len(setups), setups)
	m.details["latency_tail_ms"] = fmt.Sprintf("p%.4g of %d samples (%d beyond it)", pct, len(lat), beyond)
	m.details["window"] = fmt.Sprintf("%d requests attempted, %d answered, %.3f s from first send to last answer", m.attempted, okN, elapsed)

	engine := int(delta("server.engine.fleet_runs"))
	distinct := len(reqs)
	if o.workload == "replay" {
		distinct = 0 // every body was answered during set-up
	}
	m.layers.set("server.engine_runs", float64(engine))
	m.layers.set("server.shed", shed)
	misses := after.Gauges["server.thrcache.misses"] - before.Gauges["server.thrcache.misses"]
	m.layers.set("thrcache.steady_misses", misses)
	lookups := delta("server.idem.replay") + delta("server.idem.join") + delta("server.idem.miss")
	hits := 0.0
	if lookups > 0 {
		hits = (delta("server.idem.replay") + delta("server.idem.join")) / lookups
	}
	m.layers.set("server.idem.hit_ratio", hits)
	attempts := cAfter.Attempts - cBefore.Attempts
	m.layers.set("client.useful_ratio", float64(okN)/float64(attempts))
	m.layers.set("client.retries", float64(cAfter.Retries-cBefore.Retries))
	m.layers.set("error_rate", math.Min(1, float64(m.failed)/float64(m.attempted)))
	sort.Float64s(lags)
	lag50, lag99 := time.Duration(percentile(lags, 0.5)), time.Duration(percentile(lags, 0.99))
	lagMax := time.Duration(lags[len(lags)-1])
	m.layers.set("bench.gen_lag_ms", ms(lag99))
	m.details["bench.gen_lag_ms"] = fmt.Sprintf("p50 %.3f ms, p99 %.3f ms, max %.3f ms over %d sends", ms(lag50), ms(lag99), ms(lagMax), len(lags))

	if engine != distinct {
		m.fail(fmt.Errorf("server.engine.fleet_runs grew by %d in the window, want %d (one per distinct body sent)", engine, distinct))
	}
	if misses != 0 {
		m.fail(fmt.Errorf("server.thrcache.misses grew by %v in the window, want 0 (warm-up missed a grid)", misses))
	}
	if m.failed != 0 {
		m.fail(fmt.Errorf("%d of %d requests failed or were refused (shed %v, cancelled %v)", m.failed, m.attempted, shed, cancelled))
	}
	if o.workload == "run-open" && (lag50 > maxGenLagP50 || lagMax > maxGenLagMax) {
		return fmt.Errorf("open-loop generator fell behind (send lag p50 %v, max %v; limits %v, %v); latencies not reported",
			lag50, lagMax, maxGenLagP50, maxGenLagMax)
	}
	return nil
}

// characterise times the cold characterisation of the default grids
// through the process threshold cache, then the median warm hit.
func characterise() (cold, warm time.Duration, err error) {
	cache := experiments.ThresholdCache()
	var cfgs []changepoint.Config
	for _, g := range defaultGrids() {
		cfg := changepoint.DefaultConfig(g)
		t0 := time.Now()
		if _, err := cache.Characterise(cfg); err != nil {
			return 0, 0, err
		}
		cold += time.Since(t0)
		cfgs = append(cfgs, cfg)
	}
	const hits = 2000
	lat := make([]float64, hits)
	for i := range lat {
		t0 := time.Now()
		if _, err := cache.Characterise(cfgs[i%len(cfgs)]); err != nil {
			return 0, 0, err
		}
		lat[i] = float64(time.Since(t0))
	}
	return cold, time.Duration(median(lat)), nil
}

// traced reruns the served configs with a span around every layer call and
// fills the per-layer metrics that need it.
func (m *measurement) traced(o options, served []request, refs []recomputed, probe request, probeBody []byte, probeLat time.Duration) error {
	x := newLayerRun()
	var untraced, tracedT, badgeSum time.Duration
	perReq := make([]time.Duration, len(served))
	for i, r := range served {
		replay0 := x.replayT
		t0 := time.Now()
		bt, err := x.runConfig(i, r.cfg, refs[i].rep)
		if err != nil {
			m.fail(err)
			return nil
		}
		tracedT += time.Since(t0) - (x.replayT - replay0)
		untraced += refs[i].wall
		perReq[i] = bt
		badgeSum += bt
	}
	m.spans = x.tr.spans
	m.layers.set("trace.overhead_pct", 100*(tracedT.Seconds()-untraced.Seconds())/untraced.Seconds())
	m.layers.set("workload.generate_ms", ms(x.layerT["workload"])/float64(x.genN))
	m.layers.set("workload.alloc_mb", float64(x.allocB)/float64(x.genN)/(1<<20))
	m.layers.set("dpm.renewal_setup_ms", safeDiv(ms(x.layerT["dpm"]), float64(x.renewN)))
	m.layers.set("policy.controller_setup_us", us(x.layerT["policy"])/float64(x.ctrlN))
	m.layers.set("sim.run_ms.changepoint", safeDiv(ms(x.simT[experiments.ChangePoint]), float64(x.simN[experiments.ChangePoint])))
	m.layers.set("sim.run_ms.expavg", safeDiv(ms(x.simT[experiments.ExpAvg]), float64(x.simN[experiments.ExpAvg])))
	m.layers.set("sim.ns_per_frame", float64(x.layerT["sim"])/float64(x.frames))
	m.layers.set("changepoint.observe_ns", safeDiv(float64(x.obsT), float64(x.obsN)))
	m.layers.set("changepoint.detections", float64(x.detects))
	other := badgeSum
	for _, l := range []string{"workload", "dpm", "policy", "sim"} {
		m.layers.set("share."+l, x.layerT[l].Seconds()/badgeSum.Seconds())
		other -= x.layerT[l]
	}
	m.layers.set("share.other", other.Seconds()/badgeSum.Seconds())

	// fleet.RunCtx as the daemon runs it (workers omitted on /v1/fleet), on
	// the leading requests until about a second has been timed.
	var wall, busy, capacity time.Duration
	runs := 0
	for i := 0; i < len(served) && (i == 0 || wall < time.Second); i++ {
		cfg, w := served[i].cfg, 1
		if served[i].path == "/v1/fleet" {
			cfg.Workers = 0
			w = min(cfg.Badges, runtime.GOMAXPROCS(0))
		}
		t0 := time.Now()
		if _, err := fleet.RunCtx(context.Background(), cfg); err != nil {
			return err
		}
		d := time.Since(t0)
		wall += d
		busy += perReq[i]
		capacity += d * time.Duration(w)
		runs++
	}
	m.layers.set("fleet.run_ms", ms(wall)/float64(runs))
	m.layers.set("fleet.parallel_efficiency", busy.Seconds()/capacity.Seconds())

	overhead, err := singleOverhead(o.seed)
	if err != nil {
		return err
	}
	m.layers.set("fleet.single_overhead_ms", ms(overhead))

	rps, err := mp3ExpAvgRunsPerSec()
	if err != nil {
		return err
	}
	m.layers.set("fleet.mp3_expavg_runs_per_s", rps)

	handler, err := replayHandler(probe, probeBody)
	if err != nil {
		m.fail(err)
		return nil
	}
	m.layers.set("server.replay_handler_us", us(handler))
	m.layers.set("http.roundtrip_us", us(probeLat-handler))
	enc, err := encodeFleet(refs)
	if err != nil {
		return err
	}
	m.layers.set("server.encode_us", us(enc))
	m.details["http.roundtrip_us"] = fmt.Sprintf("median of %d sequential replays of one %d-byte body (%.1f us) minus the in-process handler (%.1f us)",
		probeReplays, len(probeBody), us(probeLat), us(handler))
	return nil
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// singleOverhead is the fixed cost of a 1-badge fleet.RunCtx: its wall time
// minus the summed layer spans of the same badge (each the fastest of three
// tries), median over one badge of each of the 12 default specs.
func singleOverhead(seed uint64) (time.Duration, error) {
	g := newGenerator("single-overhead", seed)
	var diffs []float64
	for i := 0; i < 12; i++ {
		r := runRequest(i, g.freshSeed())
		wall, parts := time.Duration(math.MaxInt64), time.Duration(math.MaxInt64)
		for try := 0; try < 3; try++ {
			t0 := time.Now()
			rep, err := fleet.RunCtx(context.Background(), r.cfg)
			wall = min(wall, time.Since(t0))
			if err != nil {
				return 0, err
			}
			x := newLayerRun()
			if _, err := x.runConfig(0, r.cfg, rep); err != nil {
				return 0, err
			}
			parts = min(parts, x.layerT["workload"]+x.layerT["dpm"]+x.layerT["policy"]+x.layerT["sim"])
		}
		diffs = append(diffs, float64(wall-parts))
	}
	return time.Duration(median(diffs)), nil
}

// mp3ExpAvgRunsPerSec is BENCH_6's BenchmarkFleet mix (8 badges, MP3 ×
// ExpAvg × {none, renewal}, seeds 1, 2, …) run for about a second.
func mp3ExpAvgRunsPerSec() (float64, error) {
	runs := 0
	t0 := time.Now()
	for i := 0; i < 3 || time.Since(t0) < time.Second; i++ {
		rep, err := fleet.Run(fleet.Config{
			Badges:   8,
			Seed:     uint64(i) + 1,
			Apps:     []string{"mp3"},
			Policies: []experiments.PolicyKind{experiments.ExpAvg},
			DPMs:     []string{"none", "renewal"},
		})
		if err != nil {
			return 0, err
		}
		runs += rep.Agg.Runs
	}
	return float64(runs) / time.Since(t0).Seconds(), nil
}

// replayHandler primes an in-process server with the probe body, then
// times its handler answering the cached key (median), checking the bytes
// against the daemon's answer.
func replayHandler(r request, want []byte) (time.Duration, error) {
	h := server.New(server.Config{}).Handler()
	key := client.DeriveIdempotencyKey(http.MethodPost, r.path, r.body)
	serve := func() (*httptest.ResponseRecorder, time.Duration) {
		req := httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body))
		req.Header.Set("Content-Type", "application/json")
		req.Header.Set("Idempotency-Key", key)
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		return rec, time.Since(t0)
	}
	if rec, _ := serve(); rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), want) {
		return 0, fmt.Errorf("in-process %s answer (status %d) differs from the daemon's", r.path, rec.Code)
	}
	const n = 2000
	lat := make([]float64, n)
	for i := range lat {
		rec, d := serve()
		if rec.Code != http.StatusOK || (i%100 == 0 && !bytes.Equal(rec.Body.Bytes(), want)) {
			return 0, fmt.Errorf("in-process replay of %s answered %d or differing bytes", r.path, rec.Code)
		}
		lat[i] = float64(d)
	}
	return time.Duration(median(lat)), nil
}

// encodeFleet times json.Marshal of a 48-badge server.FleetResponse built
// from the run's first 48 recomputed badges (cycled when a short run has
// fewer), median of 500.
func encodeFleet(refs []recomputed) (time.Duration, error) {
	var all []fleet.BadgeResult
	for _, r := range refs {
		all = append(all, r.rep.Badges...)
	}
	if len(all) == 0 {
		return 0, errors.New("no badges to encode")
	}
	rep := &fleet.Report{Agg: refs[0].rep.Agg}
	for i := 0; i < fleetBadges; i++ {
		rep.Badges = append(rep.Badges, all[i%len(all)])
	}
	resp := fleetResponse(rep)
	const n = 500
	lat := make([]float64, n)
	for i := range lat {
		t0 := time.Now()
		if _, err := json.Marshal(resp); err != nil {
			return 0, err
		}
		lat[i] = float64(time.Since(t0))
	}
	return time.Duration(median(lat)), nil
}

// median of xs (xs is reordered).
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return percentile(xs, 0.5)
}

// percentile is the nearest-rank percentile of an ascending slice.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	rank = max(1, min(rank, len(sorted)))
	return sorted[rank-1]
}

// tailOf returns the highest percentile of an ascending slice that has at
// least ten samples beyond it, kept within [p50, p99], which percentile that
// is, and how many samples lie beyond it. With fewer than 22 samples (the 8
// or so requests of a fleet window) no rank above the median has ten
// beyond it, so the median stands in; the p99 cap keeps the tail off the
// few slowest of ~10^5 replays, which are host scheduling noise rather
// than the daemon.
func tailOf(sorted []float64) (v, pct float64, beyond int) {
	n := len(sorted)
	k := n - 11
	k = max(k, int(math.Ceil(0.5*float64(n)))-1)
	k = min(k, int(math.Ceil(0.99*float64(n)))-1)
	return sorted[k], 100 * float64(k+1) / float64(n), n - k - 1
}

// hostCPU returns the steal and total jiffies of the machine's aggregate
// "cpu" line in /proc/stat (zeros when it cannot be read).
func hostCPU() (steal, total uint64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0
	}
	for i, v := range f[1:9] { // user … steal; guest time is already in user
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return 0, 0
		}
		total += n
		if i == 7 {
			steal = n
		}
	}
	return steal, total
}
