// Command dvsim runs one SmartBadge simulation: a workload (MP3 sequence,
// MPEG clip, or the combined audio+video scenario) under a chosen DVS policy
// and DPM mode, printing the energy and frame-delay report.
//
// Examples:
//
//	dvsim -app mp3 -seq ACEFBD -policy changepoint
//	dvsim -app mpeg -clip football -policy ideal
//	dvsim -app mixed -policy changepoint -dpm renewal -seed 7
//	dvsim -app mp3 -seq ACEFBD -metrics-out run.metrics.json -trace-out run.trace.jsonl
//	dvsim -app mixed -dpm renewal -faults outage
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"

	"smartbadge"
	"smartbadge/internal/experiments"
	"smartbadge/internal/obs"
	"smartbadge/internal/thrcache"
)

// runConfig carries the parsed command line into run.
type runConfig struct {
	app, seq, clip string
	pol, dpmMode   string
	timeout        float64
	seed           uint64
	traceFile      string
	timeline       bool
	badgeFile      string
	workers        int
	metricsOut     string
	traceOut       string
	faults         string
	noGuardrails   bool
	thrCache       string
}

func main() {
	var c runConfig
	flag.StringVar(&c.app, "app", "mp3", "application: mp3 | mpeg | mixed")
	flag.StringVar(&c.seq, "seq", "ACEFBD", "MP3 clip sequence (labels A-F)")
	flag.StringVar(&c.clip, "clip", "football", "MPEG clip: football | terminator2")
	flag.StringVar(&c.pol, "policy", "changepoint", "DVS policy: ideal | changepoint | expavg | max")
	flag.StringVar(&c.dpmMode, "dpm", "none", "DPM mode: none | timeout | renewal | tismdp | oracle")
	flag.Float64Var(&c.timeout, "timeout", 0, "fixed DPM timeout in seconds (0 = break-even)")
	flag.Uint64Var(&c.seed, "seed", 1, "workload generation seed")
	flag.StringVar(&c.traceFile, "tracefile", "", "replay a CSV trace (from tracegen) instead of generating one")
	flag.BoolVar(&c.timeline, "timeline", false, "print the mode timeline strip")
	flag.StringVar(&c.badgeFile, "badge", "", "JSON hardware table overriding the built-in Table 1 (see -dumpbadge)")
	dumpBadge := flag.Bool("dumpbadge", false, "print the built-in hardware table as JSON and exit")
	flag.IntVar(&c.workers, "j", 0, "bound parallelism (sets GOMAXPROCS, used by the threshold characterisation; 0 = all CPUs); results are identical for any value")
	flag.StringVar(&c.metricsOut, "metrics-out", "", "write a metrics snapshot (JSON) plus a run manifest to this file")
	flag.StringVar(&c.traceOut, "trace-out", "", "write a structured event trace (JSONL) plus a run manifest to this file")
	flag.StringVar(&c.faults, "faults", "", "inject a fault scenario: "+strings.Join(smartbadge.FaultScenarios(), " | "))
	flag.BoolVar(&c.noGuardrails, "no-guardrails", false, "run the fault scenario without watchdog/clamps/DPM guard")
	flag.StringVar(&c.thrCache, "thr-cache", "auto", "threshold cache: auto | off | DIR (auto = per-user cache dir)")
	flag.Parse()
	if c.workers > 0 {
		runtime.GOMAXPROCS(c.workers)
	}

	if *dumpBadge {
		if err := smartbadge.WriteDefaultBadgeConfig(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "dvsim:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Stdout, c); err != nil {
		fmt.Fprintln(os.Stderr, "dvsim:", err)
		os.Exit(1)
	}
}

// run simulates one configuration and writes its report to w.
func run(w io.Writer, c runConfig) error {
	cache, err := thrcache.Open(c.thrCache)
	if err != nil {
		return err
	}
	experiments.SetThresholdCache(cache)
	application, err := smartbadge.ParseApplication(c.app)
	if err != nil {
		return err
	}
	policy, err := smartbadge.ParsePolicy(c.pol)
	if err != nil {
		return err
	}
	dpm, err := smartbadge.ParseDPM(c.dpmMode)
	if err != nil {
		return err
	}

	var trace *smartbadge.Trace
	if c.traceFile != "" {
		f, err := os.Open(c.traceFile)
		if err != nil {
			return err
		}
		trace, err = smartbadge.ReadTraceCSV(f)
		f.Close()
		if err != nil {
			return err
		}
	} else {
		switch application {
		case smartbadge.AppMP3:
			trace, err = smartbadge.MP3Trace(c.seed, c.seq)
		case smartbadge.AppMPEG:
			trace, err = smartbadge.MPEGTrace(c.seed, c.clip)
		case smartbadge.AppMixed:
			trace, err = smartbadge.CombinedTrace(c.seed)
		}
		if err != nil {
			return err
		}
	}

	art, err := obs.OpenArtifacts(c.metricsOut, c.traceOut, obs.NewManifest("dvsim", c.seed, c.workers, map[string]any{
		"app":       c.app,
		"seq":       c.seq,
		"clip":      c.clip,
		"policy":    c.pol,
		"dpm":       c.dpmMode,
		"timeout":   c.timeout,
		"tracefile": c.traceFile,
		"badge":     c.badgeFile,
		"faults":    c.faults,
	}))
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "workload: %s (%d frames, %.0f s)  policy: %s  dpm: %s  seed: %d\n\n",
		c.app, len(trace.Frames), trace.Duration, policy, dpm, c.seed)
	var faultReport smartbadge.FaultReport
	opts := smartbadge.Options{
		Application:       application,
		Policy:            policy,
		DPM:               dpm,
		TimeoutS:          c.timeout,
		Trace:             trace,
		RecordTimeline:    c.timeline,
		Obs:               art.Observability(),
		Faults:            c.faults,
		FaultSeed:         c.seed,
		DisableGuardrails: c.noGuardrails,
		FaultReport:       &faultReport,
	}
	if c.badgeFile != "" {
		f, err := os.Open(c.badgeFile)
		if err != nil {
			return err
		}
		defer f.Close()
		opts.BadgeConfig = f
	}
	res, err := smartbadge.Run(opts)
	if err != nil {
		return err
	}
	if faultReport.Scenario != "" {
		fmt.Fprintf(w, "faults:   %s\n\n", faultReport)
	}
	fmt.Fprint(w, smartbadge.FormatResult(res))
	if c.timeline {
		fmt.Fprintln(w)
		fmt.Fprint(w, smartbadge.FormatTimeline(res, 100))
	}
	return art.Close()
}
