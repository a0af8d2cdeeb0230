package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"slices"
	"strings"
	"syscall"
	"testing"
	"time"

	"smartbadge/internal/changepoint"
	"smartbadge/internal/experiments"
	"smartbadge/internal/obs"
	"smartbadge/internal/server"
)

func TestUsageWithoutSubcommand(t *testing.T) {
	var out bytes.Buffer
	if err := run(nil, &out, nil, nil); err == nil || !strings.Contains(err.Error(), "usage") {
		t.Fatalf("err = %v, want usage error", err)
	}
	if err := run([]string{"dance"}, &out, nil, nil); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
}

// TestServeLifecycle boots the daemon on an ephemeral port, exercises a
// request and /healthz, then delivers SIGTERM and asserts a clean drain.
func TestServeLifecycle(t *testing.T) {
	var out bytes.Buffer
	ready := make(chan string, 1)
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-addr", "127.0.0.1:0", "-thr-cache", "off"}, &out, ready, sigs)
	}()
	var base string
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited early: %v\n%s", err, out.String())
	case <-time.After(10 * time.Second):
		t.Fatal("daemon never became ready")
	}

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}
	fresp, err := http.Post(base+"/v1/fleet", "application/json",
		strings.NewReader(`{"badges":2,"seed":7,"apps":["mp3"],"policies":["expavg"],"dpms":["none"]}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(fresp.Body)
	fresp.Body.Close()
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("fleet = %d: %s", fresp.StatusCode, body)
	}

	sigs <- syscall.SIGTERM
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("serve returned %v\n%s", err, out.String())
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not drain after SIGTERM")
	}
	if !strings.Contains(out.String(), "drained") {
		t.Errorf("no drain confirmation in output:\n%s", out.String())
	}
}

// startDaemon boots `dvsimd serve` on an ephemeral port with the given
// extra flags and returns its base URL, the serve output so far (the
// startup lines) and a stop function that drains it.
func startDaemon(t *testing.T, flags ...string) (base, startup string, stop func()) {
	t.Helper()
	var out bytes.Buffer
	ready := make(chan string, 1)
	sigs := make(chan os.Signal, 1)
	done := make(chan error, 1)
	args := append([]string{"serve", "-addr", "127.0.0.1:0"}, flags...)
	go func() {
		done <- run(args, &out, ready, sigs)
	}()
	select {
	case addr := <-ready:
		base = "http://" + addr
	case err := <-done:
		t.Fatalf("daemon exited early: %v\n%s", err, out.String())
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never became ready")
	}
	// run writes nothing more to out until a signal arrives.
	startup = out.String()
	return base, startup, func() {
		sigs <- syscall.SIGTERM
		<-done
	}
}

// TestIdempotencyReplayOverHTTP: the acceptance criterion end to end — a
// repeated keyed POST performs zero additional simulations, visible both
// in the identical bytes and in the /metrics counters.
func TestIdempotencyReplayOverHTTP(t *testing.T) {
	base, _, stop := startDaemon(t, "-thr-cache", "off", "-idem-entries", "8")
	defer stop()

	const body = `{"badges":2,"seed":7,"apps":["mp3"],"policies":["expavg"],"dpms":["none"]}`
	post := func() string {
		req, err := http.NewRequest(http.MethodPost, base+"/v1/fleet", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", "smoke-1")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("fleet = %d: %s", resp.StatusCode, b)
		}
		return string(b)
	}
	first, second := post(), post()
	if first != second {
		t.Fatal("replayed body differs from the original")
	}

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{`"server.engine.fleet_runs": 1`, `"server.idem.replay": 1`} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("metrics missing %q:\n%s", want, metrics)
		}
	}
}

// metricsSnapshot scrapes /metrics.
func metricsSnapshot(t *testing.T, base string) obs.Snapshot {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestServeStartsWarm: the daemon characterises the default apps' five
// distinct rate grids before it listens, so serving them adds no miss, and
// the served tables are the in-process characterisation byte for byte.
func TestServeStartsWarm(t *testing.T) {
	base, startup, stop := startDaemon(t, "-thr-cache", "off")
	defer stop()
	addr := strings.TrimPrefix(base, "http://")
	if want := "dvsimd: serving on http://" + addr + " (inflight "; !strings.HasPrefix(startup, want) {
		t.Errorf("startup line %q does not start with %q", startup, want)
	}
	if got := metricsSnapshot(t, base).Gauges["server.thrcache.misses"]; got != 5 {
		t.Fatalf("server.thrcache.misses = %v once ready, want 5", got)
	}

	var grids [][]float64
	for _, app := range []experiments.App{experiments.MP3App(), experiments.MPEGApp(), experiments.MixedApp()} {
		for _, g := range [][]float64{app.ArrivalGrid, app.ServiceGrid} {
			if !slices.ContainsFunc(grids, func(o []float64) bool { return slices.Equal(o, g) }) {
				grids = append(grids, g)
			}
		}
	}
	if len(grids) != 5 {
		t.Fatalf("%d distinct default grids, want 5", len(grids))
	}
	for _, g := range grids {
		req, err := json.Marshal(server.ThresholdsRequest{Rates: g})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(base+"/v1/thresholds", "application/json", bytes.NewReader(req))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("thresholds %v = %d: %s", g, resp.StatusCode, body)
		}
		th, err := changepoint.Characterise(changepoint.DefaultConfig(g))
		if err != nil {
			t.Fatal(err)
		}
		set := th.Snapshot()
		want, err := json.Marshal(server.ThresholdsResponse{Status: "ok", WindowSize: set.WindowSize,
			Confidence: set.Confidence, Ratios: set.Ratios, Values: set.Values})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(body, append(want, '\n')) {
			t.Errorf("grid %v: served body differs from the in-process characterisation:\n%s\nwant\n%s", g, body, want)
		}
	}
	if got := metricsSnapshot(t, base).Gauges["server.thrcache.misses"]; got != 5 {
		t.Errorf("server.thrcache.misses = %v after serving the default grids, want 5", got)
	}
}
