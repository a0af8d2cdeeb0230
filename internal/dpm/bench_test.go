package dpm

import (
	"testing"

	"smartbadge/internal/device"
	"smartbadge/internal/stats"
	"smartbadge/internal/workload"
)

// benchTimeout keeps the benchmark result live.
var benchTimeout float64

// BenchmarkOptimalTimeout times the renewal policy's set-up search on the
// idle model a badge derives from its trace: the six MP3 clips separated by
// heavy-tailed inter-clip gaps (the Table 5 gap law), which IdleModel turns
// into an exponential-plus-Pareto Mixture. One op is one OptimalTimeout.
func BenchmarkOptimalTimeout(b *testing.B) {
	tr, err := workload.Generate(stats.NewRNG(1), workload.MP3Clips(), workload.GenerateOptions{
		Gap: stats.Shifted{Offset: 120, Base: stats.NewPareto(280, 3.5)},
	})
	if err != nil {
		b.Fatal(err)
	}
	dist := tr.IdleModel()
	if _, ok := dist.(*stats.Mixture); !ok {
		b.Fatalf("idle model is %v, want a Mixture", dist)
	}
	costs := CostsForBadge(device.SmartBadge(), device.Standby)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTimeout = OptimalTimeout(dist, costs)
	}
}

// BenchmarkOptimalTimeoutExponential times the same search on the idle model
// of an MP3 trace without inter-clip gaps, an Exponential: its expected
// energy is flat to rounding for long timeouts, so the tied plateau must be
// scored point by point.
func BenchmarkOptimalTimeoutExponential(b *testing.B) {
	tr, err := workload.Generate(stats.NewRNG(1), workload.MP3Clips(), workload.GenerateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	dist := tr.IdleModel()
	if _, ok := dist.(stats.Exponential); !ok {
		b.Fatalf("idle model is %v, want an Exponential", dist)
	}
	costs := CostsForBadge(device.SmartBadge(), device.Standby)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTimeout = OptimalTimeout(dist, costs)
	}
}
