package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"smartbadge/internal/client"
	"smartbadge/internal/experiments"
	"smartbadge/internal/obs"
	"smartbadge/internal/parallel"
	"smartbadge/internal/server"
)

// daemon is one running dvsimd process plus the client that loads it.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	exited chan struct{} // closed once cmd.Wait has returned
	tr     *http.Transport
	cl     *client.Client
}

// startDaemon execs `dvsimd serve` on a loopback port with the threshold
// cache off (every start is cold, like a fresh deploy) and returns once it
// listens. conns caps the client's connections to the daemon.
func startDaemon(bin string, conns int, seed uint64) (*daemon, error) {
	addr := make(chan string, 1)
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-thr-cache", "off")
	cmd.Stderr = &addrScanner{addr: addr}
	// The daemon must not outlive the benchmark, even if the benchmark is
	// killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting dvsimd: %w", err)
	}
	d := &daemon{cmd: cmd, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	select {
	case d.base = <-addr:
	case <-d.exited:
		return nil, errors.New("dvsimd exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("dvsimd did not report its address within 30s")
	}

	d.tr = &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}
	var err error
	d.cl, err = client.New(client.Config{BaseURL: d.base, HTTP: &http.Client{Transport: d.tr}, Seed: seed})
	if err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// addrScanner is the daemon's stderr: it sends the address from the
// "dvsimd: serving on http://ADDR ..." line once and discards the rest.
// os/exec calls Write from one goroutine and Wait waits for it.
type addrScanner struct {
	addr chan<- string // nil once the address has been sent
	line []byte
}

func (a *addrScanner) Write(p []byte) (int, error) {
	for _, c := range p {
		if c != '\n' {
			a.line = append(a.line, c)
			continue
		}
		if _, rest, ok := strings.Cut(string(a.line), "serving on "); ok && a.addr != nil {
			if f := strings.Fields(rest); len(f) > 0 {
				a.addr <- f[0]
				a.addr = nil
			}
		}
		a.line = a.line[:0]
	}
	return len(p), nil
}

// stop terminates the daemon (SIGTERM, then SIGKILL after 10 s) and waits
// for it to exit.
func (d *daemon) stop() {
	if d.tr != nil {
		d.tr.CloseIdleConnections()
	}
	d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.exited:
	case <-time.After(10 * time.Second):
		d.cmd.Process.Kill()
		<-d.exited
	}
}

// warm blocks until the daemon is healthy and has characterised every
// default rate grid, each through one /v1/thresholds request.
func (d *daemon) warm(ctx context.Context, conns int) error {
	if _, err := d.cl.Health(ctx); err != nil {
		return fmt.Errorf("health: %w", err)
	}
	grids := defaultGrids()
	return parallel.ForEachCtx(ctx, conns, len(grids), func(i int) error {
		body, err := json.Marshal(server.ThresholdsRequest{Rates: grids[i]})
		if err == nil {
			_, err = d.cl.Thresholds(ctx, body)
		}
		return err
	})
}

// defaultGrids lists the distinct rate grids the default app × policy mix
// characterises (arrival and service grids of the three apps).
func defaultGrids() [][]float64 {
	var out [][]float64
	for _, app := range []experiments.App{experiments.MP3App(), experiments.MPEGApp(), experiments.MixedApp()} {
		for _, g := range [][]float64{app.ArrivalGrid, app.ServiceGrid} {
			if !slices.ContainsFunc(out, func(o []float64) bool { return slices.Equal(o, g) }) {
				out = append(out, g)
			}
		}
	}
	return out
}

// metrics scrapes the daemon's /metrics snapshot.
func (d *daemon) metrics(ctx context.Context) (obs.Snapshot, error) {
	var snap obs.Snapshot
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/metrics", nil)
	if err != nil {
		return snap, err
	}
	resp, err := (&http.Client{Transport: d.tr}).Do(req)
	if err != nil {
		return snap, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		return snap, fmt.Errorf("decoding /metrics: %w", err)
	}
	return snap, nil
}

// peakRSSMB reads the daemon's resident-set high-water mark (VmHWM) from
// /proc, from outside the process.
func (d *daemon) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				if err != nil {
					return 0, err
				}
				return kb / 1024, nil
			}
		}
	}
	return 0, errors.New("no VmHWM line in /proc status")
}
