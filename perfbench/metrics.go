package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strings"
)

// metricDef names one reported metric. The end-to-end table mirrors
// BENCHMARK.json's end_to_end list and the per-layer table its per_layer
// list; Predicts and On record, for a per-layer metric, which end-to-end
// metric it should move and on which workloads (the prediction written down
// before any optimisation is measured).
type metricDef struct {
	Name     string `json:"name"`
	Unit     string `json:"unit"`
	Better   string `json:"better"`
	Predicts string `json:"-"`
	On       string `json:"-"`
}

// endToEnd is what a user of the daemon sees. Every workload reports every
// one of them (see the package comment for how each generalises).
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "badges_per_s", Unit: "badges/s", Better: "higher"},
	{Name: "req_per_s", Unit: "req/s", Better: "higher"},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower"},
	{Name: "slo_attainment", Unit: "ratio", Better: "higher"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// perLayer comes from the traced in-process rerun plus the daemon's own
// counters around the timed window.
var perLayer = []metricDef{
	{"workload.generate_ms", "ms", "lower", "badges_per_s, latency_p50_ms", "fleet-mix, fleet-skew, run-open; not replay"},
	{"workload.alloc_mb", "MB", "lower", "peak_rss_mb", "fleet-mix, fleet-skew, run-open; not replay"},
	{"dpm.renewal_setup_ms", "ms", "lower", "badges_per_s, latency_tail_ms", "fleet-*: badges_per_s; run-open: latency_tail_ms"},
	{"changepoint.characterise_ms", "ms", "lower", "setup_s", "all"},
	{"thrcache.warm_hit_us", "us", "lower", "setup_s", "all"},
	{"thrcache.steady_misses", "count", "lower", "none (must be 0)", "all"},
	{"changepoint.observe_ns", "ns", "lower", "badges_per_s", "fleet-mix, fleet-skew"},
	{"changepoint.detections", "count", "lower", "none (a count)", "all"},
	{"policy.controller_setup_us", "us", "lower", "latency_p50_ms", "run-open"},
	{"sim.run_ms.changepoint", "ms", "lower", "badges_per_s, latency_p50_ms", "fleet-*, run-open; not replay"},
	{"sim.run_ms.expavg", "ms", "lower", "badges_per_s, latency_p50_ms", "fleet-*, run-open; not replay"},
	{"sim.ns_per_frame", "ns", "lower", "badges_per_s, latency_p50_ms", "fleet-*, run-open; not replay"},
	{"fleet.run_ms", "ms", "lower", "badges_per_s", "fleet-mix, fleet-skew"},
	{"fleet.parallel_efficiency", "ratio", "higher", "badges_per_s", "fleet-skew; not fleet-mix"},
	{"fleet.single_overhead_ms", "ms", "lower", "latency_p50_ms", "run-open"},
	{"fleet.mp3_expavg_runs_per_s", "runs/s", "higher", "none (BENCH_6 continuity)", "all"},
	{"server.replay_handler_us", "us", "lower", "req_per_s, latency_p50_ms", "replay; barely elsewhere"},
	{"server.encode_us", "us", "lower", "req_per_s, latency_p50_ms", "replay; barely elsewhere"},
	{"server.idem.hit_ratio", "ratio", "higher", "req_per_s", "replay (1); 0 elsewhere"},
	{"server.engine_runs", "count", "lower", "none (= distinct bodies sent)", "all"},
	{"server.shed", "count", "lower", "error_rate", "all"},
	{"http.roundtrip_us", "us", "lower", "latency_p50_ms", "replay"},
	{"client.useful_ratio", "ratio", "higher", "error_rate", "all"},
	{"client.retries", "count", "lower", "error_rate", "all"},
	{"bench.gen_lag_ms", "ms", "lower", "none (harness honesty)", "run-open"},
	{"trace.overhead_pct", "%", "lower", "none (traced vs untraced run)", "all"},
	{"error_rate", "ratio", "lower", "none (must be 0)", "all"},
	{"share.workload", "ratio", "lower", "badges_per_s", "fleet-*, run-open"},
	{"share.dpm", "ratio", "lower", "badges_per_s", "fleet-*, run-open"},
	{"share.policy", "ratio", "lower", "latency_p50_ms", "run-open"},
	{"share.sim", "ratio", "lower", "badges_per_s", "fleet-*, run-open"},
	{"share.other", "ratio", "lower", "latency_p50_ms", "run-open"},
}

// metric is one reported value with its unit, the shape of the result
// line's "metrics" entries.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name; set refuses names outside defs so the
// tables above stay the single source of names and units.
type metricSet struct {
	defs []metricDef
	vals map[string]metric
}

func newMetricSet(defs []metricDef) *metricSet {
	return &metricSet{defs: defs, vals: make(map[string]metric, len(defs))}
}

func (m *metricSet) set(name string, v float64) {
	for _, d := range m.defs {
		if d.Name == name {
			m.vals[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("perfbench: metric " + name + " is not in its table")
}

// missing lists the table's metrics that were never set.
func (m *metricSet) missing() []string {
	var out []string
	for _, d := range m.defs {
		if _, ok := m.vals[d.Name]; !ok {
			out = append(out, d.Name)
		}
	}
	return out
}

// checkManifest verifies that BENCHMARK.json (at the repository root, the
// working directory) names exactly the workloads and metrics this program
// measures, with the same units and directions.
func checkManifest(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var man struct {
		Workloads []struct{ Name string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &man); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	var names []string
	for _, w := range man.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(gatedWorkloads, ",") {
		return fmt.Errorf("%s names workloads %v, the benchmark gates %v", path, names, gatedWorkloads)
	}
	same := func(kind string, got, want []metricDef) error {
		key := func(ds []metricDef) string {
			var b strings.Builder
			for _, d := range ds {
				fmt.Fprintf(&b, "%s[%s,%s] ", d.Name, d.Unit, d.Better)
			}
			return b.String()
		}
		if key(got) != key(want) {
			return fmt.Errorf("%s %s metrics differ from the benchmark's:\n have %s\n want %s", path, kind, key(got), key(want))
		}
		return nil
	}
	return errors.Join(same("end_to_end", man.EndToEnd, endToEnd), same("per_layer", man.PerLayer, perLayer))
}
