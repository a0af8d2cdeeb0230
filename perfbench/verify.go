package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"time"

	"smartbadge/internal/fleet"
	"smartbadge/internal/parallel"
	"smartbadge/internal/server"
)

// recomputed is the in-process reference answer to one request.
type recomputed struct {
	rep  *fleet.Report
	wall time.Duration // fleet.Run wall time at Workers 1
}

// recompute runs every request's config in-process with fleet.Run at
// Workers 1, on up to workers goroutines (1 keeps the timings clean for the
// traced run's overhead comparison).
func recompute(reqs []request, workers int) ([]recomputed, error) {
	out := make([]recomputed, len(reqs))
	err := parallel.ForEach(workers, len(reqs), func(i int) error {
		t0 := time.Now()
		rep, err := fleet.Run(reqs[i].cfg)
		if err != nil {
			return fmt.Errorf("recomputing request %d in-process: %w", i, err)
		}
		out[i] = recomputed{rep: rep, wall: time.Since(t0)}
		return nil
	})
	return out, err
}

// expectedBody renders the 200 body the daemon must have sent for r: the
// canonical encoding of the recomputed report (json.Marshal of the wire
// DTO plus a trailing newline), so comparing bytes compares every badge's
// numbers bit for bit.
func expectedBody(r request, rep *fleet.Report) ([]byte, error) {
	var v any
	if r.path == "/v1/fleet" {
		v = fleetResponse(rep)
	} else {
		if len(rep.Badges) != 1 {
			return nil, fmt.Errorf("single-badge run produced %d results", len(rep.Badges))
		}
		v = server.RunResponse{Status: "ok", Badge: badgeJSON(rep.Badges[0])}
	}
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return append(body, '\n'), nil
}

// checkBodies compares each served body with its in-process reference.
func checkBodies(reqs []request, bodies [][]byte, ref []recomputed) error {
	for i, r := range reqs {
		want, err := expectedBody(r, ref[i].rep)
		if err != nil {
			return err
		}
		if !bytes.Equal(bodies[i], want) {
			return fmt.Errorf("%s body %d (%s) differs from the in-process fleet.Run answer:\n served %.300s\n wanted %.300s",
				r.path, i, r.body, bodies[i], want)
		}
	}
	return nil
}

// digest hashes the 200 bodies in request order, length-prefixed.
func digest(bodies [][]byte) string {
	h := sha256.New()
	var n [8]byte
	for _, b := range bodies {
		binary.LittleEndian.PutUint64(n[:], uint64(len(b)))
		h.Write(n[:])
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// badgeJSON and fleetResponse mirror the daemon's rendering of engine
// results onto its exported wire types.
func badgeJSON(b fleet.BadgeResult) server.BadgeJSON {
	return server.BadgeJSON{
		Index:         b.Index,
		App:           b.App,
		Policy:        b.Policy.WireName(),
		DPM:           b.DPM,
		EnergyJ:       b.EnergyJ,
		MeanDelayS:    b.MeanDelayS,
		SimTimeS:      b.SimTimeS,
		AvgPowerW:     b.AvgPowerW,
		FramesDecoded: b.FramesDecoded,
		Sleeps:        b.Sleeps,
	}
}

func fleetResponse(rep *fleet.Report) server.FleetResponse {
	status := "ok"
	if len(rep.Failed) > 0 {
		status = "partial"
	}
	a := rep.Agg
	resp := server.FleetResponse{
		Status: status,
		Agg: server.AggregateJSON{
			Runs: a.Runs, TotalEnergyJ: a.TotalEnergyJ, TotalSimS: a.TotalSimS,
			EnergyP50J: a.EnergyP50J, EnergyP90J: a.EnergyP90J, EnergyP99J: a.EnergyP99J,
			DelayP50S: a.DelayP50S, DelayP90S: a.DelayP90S, DelayP99S: a.DelayP99S,
		},
		Badges: make([]server.BadgeJSON, len(rep.Badges)),
	}
	for i, b := range rep.Badges {
		resp.Badges[i] = badgeJSON(b)
	}
	for _, f := range rep.Failed {
		resp.Failed = append(resp.Failed, server.FailedBadgeJSON{
			Index: f.Index, App: f.Spec.App, Policy: f.Spec.Policy.WireName(), DPM: f.Spec.DPM, Error: f.Cause.Error(),
		})
	}
	return resp
}
