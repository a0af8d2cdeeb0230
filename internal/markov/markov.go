// Package markov provides the continuous-time Markov chain machinery behind
// the paper's system model (Figures 7 and 8): birth-death chains for the
// M/M/1 frame queue, including the finite-buffer M/M/1/K variant the real
// SmartBadge implements.
//
// The package exists for analytic cross-validation: the simulator's
// queue-length distribution, delay and drop rate must match what the chain
// predicts whenever the modelling assumptions (exponential arrivals and
// service) hold. The test suites of sim and markov enforce that agreement.
package markov

import "fmt"

// BirthDeath is a finite birth-death chain on states 0..N.
type BirthDeath struct {
	// Birth[i] is the rate of i -> i+1, for i in 0..N-1.
	Birth []float64
	// Death[i] is the rate of i+1 -> i, for i in 0..N-1.
	Death []float64
}

// NewBirthDeath validates and returns a chain. len(birth) == len(death) == N.
func NewBirthDeath(birth, death []float64) (BirthDeath, error) {
	if len(birth) != len(death) {
		return BirthDeath{}, fmt.Errorf("markov: birth and death must have equal length, got %d and %d", len(birth), len(death))
	}
	if len(birth) == 0 {
		return BirthDeath{}, fmt.Errorf("markov: chain needs at least one transition")
	}
	for i := range birth {
		if birth[i] <= 0 || death[i] <= 0 {
			return BirthDeath{}, fmt.Errorf("markov: rates must be positive at %d", i)
		}
	}
	return BirthDeath{Birth: birth, Death: death}, nil
}

// States returns the number of states, N+1.
func (c BirthDeath) States() int { return len(c.Birth) + 1 }

// SteadyState returns the stationary distribution via detailed balance:
// π_{i+1} = π_i · λ_i / µ_i, normalised.
func (c BirthDeath) SteadyState() []float64 {
	n := c.States()
	pi := make([]float64, n)
	pi[0] = 1
	for i := 0; i < n-1; i++ {
		pi[i+1] = pi[i] * c.Birth[i] / c.Death[i]
	}
	total := 0.0
	for _, p := range pi {
		total += p
	}
	for i := range pi {
		pi[i] /= total
	}
	return pi
}

// MM1K builds the M/M/1/K queue: Poisson arrivals at lambda, exponential
// service at mu, at most k frames in the system (arrivals beyond are lost).
func MM1K(lambda, mu float64, k int) (BirthDeath, error) {
	if lambda <= 0 || mu <= 0 {
		return BirthDeath{}, fmt.Errorf("markov: rates must be positive, got λ=%v µ=%v", lambda, mu)
	}
	if k < 1 {
		return BirthDeath{}, fmt.Errorf("markov: capacity must be >= 1, got %d", k)
	}
	birth := make([]float64, k)
	death := make([]float64, k)
	for i := range birth {
		birth[i] = lambda
		death[i] = mu
	}
	return BirthDeath{Birth: birth, Death: death}, nil
}

// QueueStats summarises an M/M/1/K chain.
type QueueStats struct {
	// Pi is the queue-length distribution π_0..π_K.
	Pi []float64
	// MeanLength is E[N].
	MeanLength float64
	// Blocking is π_K: the fraction of arrivals dropped (PASTA).
	Blocking float64
	// Throughput is λ·(1 − π_K): the accepted arrival rate.
	Throughput float64
	// MeanDelay is the mean sojourn time of accepted frames,
	// E[N]/throughput by Little's law.
	MeanDelay float64
}

// AnalyzeMM1K solves the finite queue.
func AnalyzeMM1K(lambda, mu float64, k int) (QueueStats, error) {
	chain, err := MM1K(lambda, mu, k)
	if err != nil {
		return QueueStats{}, err
	}
	pi := chain.SteadyState()
	s := QueueStats{Pi: pi, Blocking: pi[len(pi)-1]}
	for i, p := range pi {
		s.MeanLength += float64(i) * p
	}
	s.Throughput = lambda * (1 - s.Blocking)
	if s.Throughput > 0 {
		s.MeanDelay = s.MeanLength / s.Throughput
	}
	return s, nil
}
