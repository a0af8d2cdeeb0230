package dpm

import (
	"math"
	"testing"

	"smartbadge/internal/stats"
)

// TestSearchTimeoutGridAnyValidFloors drives the pruned search with
// synthetic energies full of exact ties and with floors that are valid but
// adversarial: each is its point's energy minus a random non-negative
// amount, often exactly the energy. Whatever valid floors it is given, the
// search must return the earliest index of the minimum. A search that
// stopped on a floor equal to the best energy would keep a later tied point
// whose floor happened to sort first.
func TestSearchTimeoutGridAnyValidFloors(t *testing.T) {
	rng := stats.NewRNG(14)
	const n = 43
	energies := make([]float64, n)
	floors := make([]float64, n)
	for trial := 0; trial < 2000; trial++ {
		// Few distinct levels, so the minimum is usually tied.
		for i := range energies {
			energies[i] = float64(1 + rng.Intn(4))
		}
		want := 0
		for i, e := range energies {
			if e < energies[want] {
				want = i
			}
		}
		for i, e := range energies {
			floors[i] = e
			if rng.Intn(2) == 0 {
				floors[i] = e - rng.Float64()*float64(rng.Intn(3))
			}
		}
		got := searchTimeoutGrid(floors, func(i int) float64 { return energies[i] })
		if got != want {
			t.Fatalf("trial %d: index %d, want %d; energies %v, floors %v", trial, got, want, energies, floors)
		}
	}
	// Every floor −Inf: the plain scan, which keeps a NaN at point 0.
	for i := range floors {
		floors[i] = math.Inf(-1)
		energies[i] = float64(n - i)
	}
	energies[0] = math.NaN()
	if got := searchTimeoutGrid(floors, func(i int) float64 { return energies[i] }); got != 0 {
		t.Errorf("fallback scan with NaN at 0: index %d, want 0", got)
	}
}
