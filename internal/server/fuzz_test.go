package server

import (
	"context"
	"fmt"
	"testing"

	"smartbadge/internal/changepoint"
	"smartbadge/internal/fleet"
)

// FuzzDecodeFleetRequest drives arbitrary bytes through the parse step of
// every POST route — /v1/fleet, /v1/run and /v1/thresholds: strict decode,
// limit validation, config lowering — and runs each accepted job against
// engine stubs that pin what a validated config must satisfy. A fleet
// config must hash (checkpoint keys depend on it), and a characterisation
// must stay within the changepoint sample-size caps (past them one request
// asks for gigabytes per worker). A panic anywhere in a parse step is a
// crash a remote caller could trigger with one POST.
func FuzzDecodeFleetRequest(f *testing.F) {
	f.Add([]byte(`{"badges":3,"seed":7,"apps":["mp3"],"policies":["expavg"],"dpms":["none"]}`))
	f.Add([]byte(`{"badges":1,"seed":0}`))
	f.Add([]byte(`{"badges":-1}`))
	f.Add([]byte(`{"badges":1e9,"workers":-5}`))
	f.Add([]byte(`{"badges":2,"policies":["nosuch"]}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[]`))
	f.Add([]byte(`{"badges":2,"timeout_ms":-1}`))
	f.Add([]byte(`{"app":" MP3","policy":"ExpAvg","dpm":"renewal","seed":7}`))
	f.Add([]byte(`{"rates":[2,4],"window_size":20,"characterisation_windows":120,"seed":11}`))
	f.Add([]byte(`{"rates":[2,4],"characterisation_windows":2000000000}`))
	s := New(Config{})
	stubEngines(s)
	runFleet, characterise := s.runFleet, s.characterise
	s.runFleet = func(ctx context.Context, cfg fleet.Config) (*fleet.Report, error) {
		if _, err := cfg.Hash(); err != nil {
			return nil, fmt.Errorf("validated fleet config failed to hash: %v", err)
		}
		return runFleet(ctx, cfg)
	}
	s.characterise = func(cfg changepoint.Config) (*changepoint.Thresholds, error) {
		if cfg.WindowSize > changepoint.MaxWindowSize || cfg.CharacterisationWindows > changepoint.MaxCharacterisationWindows {
			return nil, fmt.Errorf("characterisation past the caps: window_size %d, characterisation_windows %d",
				cfg.WindowSize, cfg.CharacterisationWindows)
		}
		return characterise(cfg)
	}
	routes := []struct {
		name  string
		parse func([]byte) (job, error)
	}{{"fleet", s.parseFleet}, {"run", s.parseRun}, {"thresholds", s.parseThresholds}}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, rt := range routes {
			j, err := rt.parse(data)
			if err != nil {
				continue // malformed or invalid bodies are rejected, not crashed on
			}
			if _, err := j.run(context.Background()); err != nil {
				t.Fatalf("/v1/%s accepted %q: %v", rt.name, data, err)
			}
		}
	})
}
