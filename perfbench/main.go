// Command perfbench is the repository's end-to-end benchmark. Each run
// starts and warms real dvsimd daemons in turn (loopback, threshold cache
// off, so every start is cold; setup_s is their median start-to-warm time),
// drives one traffic mix at the last one through internal/client for a
// fixed window, and checks every answer against an in-process recompute.
// With -trace 1 it also reruns the same generated inputs in-process with a
// span around every call into a layer's public functions and reports
// per-layer numbers.
//
// Run it through run.sh from the repository root, which builds the daemon
// and this program first:
//
//	bash perfbench/run.sh --workload fleet-mix --seed 1 --seconds 10 --trace 0
//
// With --workload all it runs the four workloads in turn (the three that
// BENCHMARK.json gates, then replay), each against its own freshly started
// daemons, and prints a result line after each.
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. The lines before it give
// the environment, the body digest, and every metric with its details.
// A failed output check exits 1 after printing correct:false; a run whose
// open-loop generator fell behind exits 1 without a result.
//
// Every workload reports every end-to-end metric: badges_per_s counts the
// badges in answered bodies, req_per_s the answered requests, the latency
// objective behind slo_attainment is 250 ms per badge in the body (timed
// from the scheduled send), latency_tail_ms is the highest percentile with
// ten samples beyond it kept within [p50, p99], and peak_rss_mb is the
// daemon's VmHWM. error_rate, which is 0 on a healthy run, is a per-layer
// metric; errors also show in the result's failed count.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"syscall"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	dvsimd   string
	commit   string
	out      string
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	workloads := []string{o.workload}
	if o.workload == "all" {
		workloads = allWorkloads
	}
	failed := false
	for _, w := range workloads {
		o.workload = w
		res, err := run(ctx, o, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
		}
		if res == nil {
			os.Exit(1)
		}
		line, err := json.Marshal(res)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		fmt.Println(string(line))
		failed = failed || !res.Correct
	}
	if failed {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "fleet-mix | fleet-skew | run-open | replay | all (each in turn)")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same request bodies")
	fs.IntVar(&o.seconds, "seconds", 10, "length of the timed window")
	trace := fs.Int("trace", 0, "1: also run the traced in-process rerun and report per-layer metrics")
	fs.StringVar(&o.dvsimd, "dvsimd", "", "path to the dvsimd binary")
	fs.StringVar(&o.commit, "commit", "none", "commit of the measured tree, for the record")
	fs.StringVar(&o.out, "out", "", "directory for the full result record and spans (none if empty)")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	o.trace = *trace == 1
	switch {
	case o.workload != "all" && !slices.Contains(allWorkloads, o.workload):
		return o, fmt.Errorf("unknown -workload %q (want one of %s or all)", o.workload, strings.Join(allWorkloads, ", "))
	case *trace != 0 && *trace != 1:
		return o, fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	case o.seconds < 1:
		return o, fmt.Errorf("-seconds must be >= 1, got %d", o.seconds)
	case o.dvsimd == "":
		return o, errors.New("-dvsimd is required (run through perfbench/run.sh)")
	}
	return o, nil
}

// env is the environment every result carries.
type env struct {
	GoVersion  string `json:"go_version"`
	GOARCH     string `json:"goarch"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

// record is the full result written to the -out directory.
type record struct {
	Env     env               `json:"env"`
	Digest  string            `json:"digest"`
	Bodies  int               `json:"bodies"`
	Details map[string]string `json:"details"`
	E2E     map[string]metric `json:"end_to_end"`
	Layers  map[string]metric `json:"per_layer"`
	Result  *result           `json:"result"`
}

func run(ctx context.Context, o options, stdout io.Writer) (*result, error) {
	e := env{GoVersion: runtime.Version(), GOARCH: runtime.GOARCH, NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), Commit: o.commit, Workload: o.workload, Seed: o.seed,
		Seconds: o.seconds, Trace: o.trace}
	raw, _ := json.Marshal(e)
	fmt.Fprintf(stdout, "env %s\n", raw)

	if err := checkManifest("BENCHMARK.json"); err != nil {
		return nil, err
	}
	m, err := measure(ctx, o, e.NProc)
	if err != nil {
		return nil, err
	}
	res := &result{Correct: m.checkErr == nil, Attempted: m.attempted, Failed: m.failed}
	if o.trace {
		res.Metrics = m.layers.vals
	} else {
		res.Metrics = m.e2e.vals
	}

	fmt.Fprintf(stdout, "digest %s over %d bodies (workload %s, seed %d)\n", m.digest, m.bodies, o.workload, o.seed)
	keys := make([]string, 0, len(m.details))
	for k := range m.details {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(stdout, "detail %s: %s\n", k, m.details[k])
	}
	for _, d := range endToEnd {
		if v, ok := m.e2e.vals[d.Name]; ok {
			fmt.Fprintf(stdout, "e2e %-28s %14.6g %s\n", d.Name, v.Value, v.Unit)
		}
	}
	for _, d := range perLayer {
		if v, ok := m.layers.vals[d.Name]; ok {
			fmt.Fprintf(stdout, "layer %-28s %14.6g %-8s predicts %s on %s\n", d.Name, v.Value, v.Unit, d.Predicts, d.On)
		}
	}
	if m.checkErr == nil {
		mode := m.e2e
		if o.trace {
			mode = m.layers
		}
		if miss := mode.missing(); len(miss) > 0 {
			m.checkErr = fmt.Errorf("metrics not measured: %s", strings.Join(miss, ", "))
			res.Correct = false
		}
	}

	if o.out != "" {
		if err := writeRecord(o, record{Env: e, Digest: m.digest, Bodies: m.bodies, Details: m.details,
			E2E: m.e2e.vals, Layers: m.layers.vals, Result: res}, m.spans); err != nil {
			return res, err
		}
	}
	if m.checkErr != nil {
		return res, fmt.Errorf("output check failed: %w", m.checkErr)
	}
	return res, nil
}

// writeRecord stores the full result and, for a traced run, its spans.
func writeRecord(o options, rec record, spans []span) error {
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%v", o.workload, o.seed, o.trace)
	raw, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(o.out, name+".json"), append(raw, '\n'), 0o644); err != nil {
		return err
	}
	if len(spans) == 0 {
		return nil
	}
	f, err := os.Create(filepath.Join(o.out, name+".spans.jsonl"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

// measurement is everything one run produced.
type measurement struct {
	attempted, failed int
	e2e, layers       *metricSet
	details           map[string]string
	digest            string
	bodies            int
	spans             []span
	checkErr          error // first failed output check
}

func (m *measurement) fail(err error) {
	if m.checkErr == nil {
		m.checkErr = err
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
