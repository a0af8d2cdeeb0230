package markov

import (
	"math"
	"testing"

	"smartbadge/internal/queue"
)

func TestNewBirthDeathValidation(t *testing.T) {
	if _, err := NewBirthDeath([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := NewBirthDeath(nil, nil); err == nil {
		t.Error("empty chain accepted")
	}
	if _, err := NewBirthDeath([]float64{0}, []float64{1}); err == nil {
		t.Error("zero rate accepted")
	}
	c, err := NewBirthDeath([]float64{2}, []float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if c.States() != 2 {
		t.Errorf("states = %d", c.States())
	}
}

func TestSteadyStateTwoState(t *testing.T) {
	// 0 -> 1 at 2, 1 -> 0 at 3: π = (3/5, 2/5).
	c, _ := NewBirthDeath([]float64{2}, []float64{3})
	pi := c.SteadyState()
	if math.Abs(pi[0]-0.6) > 1e-12 || math.Abs(pi[1]-0.4) > 1e-12 {
		t.Errorf("pi = %v", pi)
	}
}

// With a large K the finite queue converges to the classic M/M/1 geometric
// distribution and its mean formulas.
func TestMM1KConvergesToMM1(t *testing.T) {
	lambda, mu := 20.0, 30.0
	s, err := AnalyzeMM1K(lambda, mu, 200)
	if err != nil {
		t.Fatal(err)
	}
	rho := lambda / mu
	// Geometric π_k = (1-ρ)ρ^k.
	for k := 0; k <= 10; k++ {
		want := (1 - rho) * math.Pow(rho, float64(k))
		if math.Abs(s.Pi[k]-want) > 1e-9 {
			t.Errorf("π_%d = %v, want %v", k, s.Pi[k], want)
		}
	}
	inf := queue.MM1{Lambda: lambda, Mu: mu}
	if math.Abs(s.MeanLength-inf.MeanQueueLength()) > 1e-6 {
		t.Errorf("L = %v, want %v", s.MeanLength, inf.MeanQueueLength())
	}
	if math.Abs(s.MeanDelay-inf.MeanDelay()) > 1e-6 {
		t.Errorf("W = %v, want %v", s.MeanDelay, inf.MeanDelay())
	}
	if s.Blocking > 1e-12 {
		t.Errorf("blocking = %v, want ~0 for K=200", s.Blocking)
	}
}

func TestMM1KBlockingKnownValue(t *testing.T) {
	// ρ = 1 (λ = µ): π uniform over K+1 states, blocking = 1/(K+1).
	s, err := AnalyzeMM1K(10, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	for k, p := range s.Pi {
		if math.Abs(p-0.2) > 1e-12 {
			t.Errorf("π_%d = %v, want 0.2", k, p)
		}
	}
	if math.Abs(s.Blocking-0.2) > 1e-12 {
		t.Errorf("blocking = %v, want 0.2", s.Blocking)
	}
	if math.Abs(s.Throughput-8) > 1e-12 {
		t.Errorf("throughput = %v, want 8", s.Throughput)
	}
}

func TestMM1KValidation(t *testing.T) {
	if _, err := AnalyzeMM1K(0, 1, 3); err == nil {
		t.Error("zero lambda accepted")
	}
	if _, err := AnalyzeMM1K(1, 0, 3); err == nil {
		t.Error("zero mu accepted")
	}
	if _, err := AnalyzeMM1K(1, 1, 0); err == nil {
		t.Error("zero capacity accepted")
	}
}
