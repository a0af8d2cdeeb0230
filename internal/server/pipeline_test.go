package server

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"smartbadge/internal/changepoint"
	"smartbadge/internal/fleet"
)

// routeBodies are one POST route's request bodies for the contract table.
type routeBodies struct {
	name                           string
	valid, invalid, unknown, timed string
}

var postRoutes = []routeBodies{
	{"fleet", `{"badges":1,"seed":1}`, `{"badges":0}`, `{"badges":1,"knob":1}`, `{"badges":1,"seed":1,"timeout_ms":10}`},
	{"run", `{"seed":1}`, `{"app":"doom"}`, `{"seed":1,"knob":1}`, `{"seed":1,"timeout_ms":10}`},
	{"thresholds", `{"rates":[2,4]}`, `{"rates":[5]}`, `{"rates":[2,4],"knob":1}`, `{"rates":[2,4],"timeout_ms":10}`},
}

// stubEngines replaces both engine seams with instant successes, so a row
// exercises only the pipeline around them.
func stubEngines(s *Server) {
	s.runFleet = func(ctx context.Context, cfg fleet.Config) (*fleet.Report, error) {
		return &fleet.Report{Badges: []fleet.BadgeResult{{Spec: cfg.SpecFor(0)}}}, nil
	}
	s.characterise = func(cfg changepoint.Config) (*changepoint.Thresholds, error) {
		return changepoint.RestoreThresholds(changepoint.ThresholdSet{
			WindowSize: cfg.WindowSize,
			Confidence: cfg.Confidence,
			Ratios:     []float64{0.5, 2},
			Values:     []float64{1.5, 1.75},
		})
	}
}

// failEngines makes both engine seams fail once they have run clientGone
// (a no-op, or the cancel of the request's client context).
func failEngines(s *Server, clientGone func()) {
	errEngine := errors.New("engine exploded")
	s.runFleet = func(ctx context.Context, cfg fleet.Config) (*fleet.Report, error) {
		clientGone()
		return nil, errEngine
	}
	s.characterise = func(cfg changepoint.Config) (*changepoint.Thresholds, error) {
		clientGone()
		return nil, errEngine
	}
}

// TestPOSTRouteContract runs every row against /v1/fleet, /v1/run and
// /v1/thresholds: the three routes share one pipeline, so each outcome —
// status, body status, Retry-After and the route's counters — must be the
// same on all of them.
func TestPOSTRouteContract(t *testing.T) {
	rows := []struct {
		name   string
		method string
		body   func(routeBodies) string
		// setup arranges the server; cancel ends the request's client
		// context.
		setup      func(s *Server, cancel context.CancelFunc)
		code       int
		status     string // the body's "status"
		retryAfter string
		failures   float64
		cancelled  float64
	}{
		{name: "GET", method: http.MethodGet,
			code: http.StatusMethodNotAllowed, status: "error"},
		{name: "malformed JSON", body: func(routeBodies) string { return `{not json` },
			code: http.StatusBadRequest, status: "error", failures: 1},
		{name: "unknown field", body: func(r routeBodies) string { return r.unknown },
			code: http.StatusBadRequest, status: "error", failures: 1},
		{name: "invalid config", body: func(r routeBodies) string { return r.invalid },
			code: http.StatusBadRequest, status: "error", failures: 1},
		{name: "oversized body", body: func(routeBodies) string { return strings.Repeat(" ", maxBodyBytes+1) },
			code: http.StatusRequestEntityTooLarge, status: "error", failures: 1},
		{name: "queue full",
			setup: func(s *Server, _ context.CancelFunc) { s.waiting.Store(int64(s.cfg.QueueDepth)) },
			code:  http.StatusTooManyRequests, status: "shed", retryAfter: "16", failures: 1},
		{name: "draining",
			setup: func(s *Server, _ context.CancelFunc) { s.draining.Store(true) },
			code:  http.StatusServiceUnavailable, status: "error", retryAfter: "1", failures: 1},
		{name: "deadline while queued", body: func(r routeBodies) string { return r.timed },
			setup: func(s *Server, _ context.CancelFunc) {
				for len(s.sem) < cap(s.sem) {
					s.sem <- struct{}{} // every execution slot busy
				}
			},
			code: http.StatusGatewayTimeout, status: "cancelled", failures: 1, cancelled: 1},
		{name: "client gone mid-run",
			setup: func(s *Server, cancel context.CancelFunc) {
				// The fleet engine returns the context's error; a
				// characterisation cannot see the context and succeeds.
				stubEngines(s)
				characterise := s.characterise
				s.runFleet = func(ctx context.Context, cfg fleet.Config) (*fleet.Report, error) {
					cancel()
					<-ctx.Done()
					return nil, ctx.Err()
				}
				s.characterise = func(cfg changepoint.Config) (*changepoint.Thresholds, error) {
					cancel()
					return characterise(cfg)
				}
			},
			code: http.StatusGatewayTimeout, status: "cancelled", failures: 1, cancelled: 1},
		{name: "engine error",
			setup: func(s *Server, _ context.CancelFunc) { failEngines(s, func() {}) },
			code:  http.StatusInternalServerError, status: "error", failures: 1},
		// The error rule is the same on every route: an engine error after
		// the request context is done is a cancellation, not a 500.
		{name: "engine error after client gone",
			setup: func(s *Server, cancel context.CancelFunc) { failEngines(s, cancel) },
			code:  http.StatusGatewayTimeout, status: "cancelled", failures: 1, cancelled: 1},
		{name: "success", setup: func(s *Server, _ context.CancelFunc) { stubEngines(s) },
			code: http.StatusOK, status: "ok"},
	}
	for _, row := range rows {
		for _, rb := range postRoutes {
			t.Run(row.name+"/"+rb.name, func(t *testing.T) {
				s := New(Config{})
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				if row.setup != nil {
					row.setup(s, cancel)
				}
				method, body := http.MethodPost, rb.valid
				if row.method != "" {
					method = row.method
				}
				if row.body != nil {
					body = row.body(rb)
				}
				req := httptest.NewRequest(method, "/v1/"+rb.name, strings.NewReader(body)).WithContext(ctx)
				rec := httptest.NewRecorder()
				s.Handler().ServeHTTP(rec, req)

				if rec.Code != row.code {
					t.Fatalf("status %d, want %d: %s", rec.Code, row.code, rec.Body.String())
				}
				var got struct{ Status string }
				if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || got.Status != row.status {
					t.Errorf("body %s, want status %q", rec.Body.String(), row.status)
				}
				if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
					t.Errorf("Content-Type = %q", ct)
				}
				if ra := rec.Header().Get("Retry-After"); ra != row.retryAfter {
					t.Errorf("Retry-After = %q, want %q", ra, row.retryAfter)
				}
				for name, want := range map[string]float64{
					"server." + rb.name + ".requests": 1,
					"server." + rb.name + ".failures": row.failures,
					"server.cancelled":                row.cancelled,
				} {
					if v := counterValue(s, name); v != want {
						t.Errorf("%s = %v, want %v", name, v, want)
					}
				}
			})
		}
	}
}
