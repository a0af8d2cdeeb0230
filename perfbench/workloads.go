package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"sync"
	"time"

	"smartbadge/internal/experiments"
	"smartbadge/internal/fleet"
	"smartbadge/internal/server"
)

// Workload shapes (see BENCHMARK.json for why each was chosen).
const (
	fleetBadges = 48 // 4 full cycles of the 12 default specs
	openRate    = 20 // run-open requests per second, ~45% of the knee
	// The replay working set: fleet and run bodies answered during set-up,
	// well under the daemon's 256-entry replay cache.
	replayFleets      = 3
	replayFleetBadges = 12
	replayRuns        = 21
	// sloPerBadge is the latency objective per badge in a request body:
	// 250 ms for a single-badge /v1/run, scaled with batch size.
	sloPerBadge = 250 * time.Millisecond
)

// gatedWorkloads are the ones BENCHMARK.json lists. replay runs the same way
// but is not gated: its closed loop of ~0.2 ms loopback round trips tracks
// the host's scheduling noise, and its 10-seed spread reached 0.20-0.28 on
// the reference 2-vCPU VM, at the 0.25 limit of any bound.
var (
	gatedWorkloads = []string{"fleet-mix", "fleet-skew", "run-open"}
	allWorkloads   = []string{"fleet-mix", "fleet-skew", "run-open", "replay"}
)

// request is one generated body plus the engine config the daemon must
// compute for it (Workers 1: the reference the answer is checked against).
type request struct {
	path string // "/v1/fleet" or "/v1/run"
	body []byte
	cfg  fleet.Config
}

// generator derives every request of a workload from the benchmark seed.
// Each body carries a fresh seed: internal/client derives the
// Idempotency-Key from the body, so repeated seeds would silently measure
// the replay cache instead of the engine.
type generator struct {
	workload string
	rng      *rand.Rand
	seen     map[uint64]bool
	n        int // requests generated so far
}

func newGenerator(workload string, seed uint64) *generator {
	h := fnv.New64a()
	h.Write([]byte(workload))
	return &generator{workload: workload, rng: rand.New(rand.NewPCG(seed, h.Sum64())), seen: map[uint64]bool{}}
}

// freshSeed draws a body seed never used before in this run.
func (g *generator) freshSeed() uint64 {
	for {
		s := g.rng.Uint64()
		if !g.seen[s] {
			g.seen[s] = true
			return s
		}
	}
}

// next returns the workload's next timed request.
func (g *generator) next() request {
	i := g.n
	g.n++
	switch g.workload {
	case "fleet-mix":
		return fleetRequest(fleetBadges, g.freshSeed(), nil)
	case "fleet-skew":
		return fleetRequest(fleetBadges, g.freshSeed(), []string{"mp3", "mpeg"})
	default: // run-open cycles through the 12 default specs
		return runRequest(i, g.freshSeed())
	}
}

// workingSet returns the replay workload's bodies, answered during set-up.
func (g *generator) workingSet() []request {
	var out []request
	for i := 0; i < replayFleets; i++ {
		out = append(out, fleetRequest(replayFleetBadges, g.freshSeed(), nil))
	}
	for i := 0; i < replayRuns; i++ {
		out = append(out, runRequest(i, g.freshSeed()))
	}
	return out
}

// fleetRequest builds a POST /v1/fleet body with default policy and DPM
// axes and workers omitted.
func fleetRequest(badges int, seed uint64, apps []string) request {
	body, err := json.Marshal(server.FleetRequest{Badges: badges, Seed: seed, Apps: apps})
	if err != nil {
		panic(err) // unreachable: a closed DTO type
	}
	return request{path: "/v1/fleet", body: body,
		cfg: fleet.Config{Badges: badges, Seed: seed, Workers: 1, Apps: apps}}
}

// runRequest builds a single-badge POST /v1/run body for default spec
// i mod 12.
func runRequest(i int, seed uint64) request {
	var all fleet.Config
	spec := all.SpecFor(i % 12)
	body, err := json.Marshal(server.RunRequest{App: spec.App, Policy: spec.Policy.WireName(), DPM: spec.DPM, Seed: seed})
	if err != nil {
		panic(err) // unreachable: a closed DTO type
	}
	return request{path: "/v1/run", body: body, cfg: fleet.Config{Badges: 1, Seed: seed, Workers: 1,
		Apps: []string{spec.App}, Policies: []experiments.PolicyKind{spec.Policy}, DPMs: []string{spec.DPM}}}
}

// sample is one timed request. due is when it was scheduled (open loop)
// or issued (closed loop); lag is how late the generator sent it.
type sample struct {
	req  int // index into the request list
	due  time.Time
	done time.Time
	lag  time.Duration
	body []byte
	err  error
}

func (s sample) latency() time.Duration { return s.done.Sub(s.due) }

// send posts one request through the retrying client.
func send(ctx context.Context, d *daemon, r request) ([]byte, error) {
	if r.path == "/v1/fleet" {
		return d.cl.Fleet(ctx, r.body)
	}
	return d.cl.Run(ctx, r.body)
}

// closedLoop runs one client that sends its next request as soon as the
// previous one is answered, until the window ends. It returns the requests
// sent and their samples.
func closedLoop(ctx context.Context, d *daemon, g *generator, window time.Duration) ([]request, []sample) {
	var reqs []request
	var out []sample
	start := time.Now()
	prev := start
	for time.Since(start) < window {
		r := g.next()
		reqs = append(reqs, r)
		due := time.Now()
		body, err := send(ctx, d, r)
		out = append(out, sample{req: len(reqs) - 1, due: due, done: time.Now(), lag: due.Sub(prev), body: body, err: err})
		prev = time.Now()
	}
	return reqs, out
}

// openLoop sends rate requests per second on a fixed schedule for the
// window, whatever the daemon's state, each on its own goroutine; the
// client's connection cap makes requests queue client-side when all
// connections are busy. Latency runs from each request's scheduled send.
func openLoop(ctx context.Context, d *daemon, g *generator, window time.Duration, rate int) ([]request, []sample) {
	n := int(window.Seconds() * float64(rate))
	interval := time.Second / time.Duration(rate)
	reqs := make([]request, n)
	for i := range reqs {
		reqs[i] = g.next()
	}
	out := make([]sample, n)
	var wg sync.WaitGroup
	start := time.Now()
	for i := range reqs {
		due := start.Add(time.Duration(i) * interval)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		lag := time.Since(due)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			body, err := send(ctx, d, reqs[i])
			out[i] = sample{req: i, due: due, done: time.Now(), lag: lag, body: body, err: err}
		}(i)
	}
	wg.Wait()
	return reqs, out
}

// replayLoop runs conns closed-loop clients re-posting bodies of the
// working set, each answer checked byte-for-byte against its leader's (the
// answer given during set-up). Bodies are not kept.
func replayLoop(ctx context.Context, d *daemon, set []request, leaders [][]byte, window time.Duration, conns int, seed uint64) ([]sample, error) {
	per := make([][]sample, conns)
	errs := make([]error, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewPCG(seed, uint64(w)+1))
			prev := start
			for time.Since(start) < window {
				i := rng.IntN(len(set))
				due := time.Now()
				body, err := send(ctx, d, set[i])
				s := sample{req: i, due: due, done: time.Now(), lag: due.Sub(prev), err: err}
				prev = s.done
				if err == nil && !bytes.Equal(body, leaders[i]) {
					errs[w] = fmt.Errorf("replayed %s body %d differs from its leader's answer", set[i].path, i)
					return
				}
				per[w] = append(per[w], s)
			}
		}(w)
	}
	wg.Wait()
	var out []sample
	for _, p := range per {
		out = append(out, p...)
	}
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}
