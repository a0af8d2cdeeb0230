package changepoint

import (
	"math"
	"testing"

	"smartbadge/internal/stats"
	"smartbadge/internal/workload"
)

// likelihoodMaxFromSuffixes is the full scan the bounded check replaces,
// kept as its oracle: max_k ln P(k) over the suffix sums sufs[k] =
// Σ_{j=k+1..m} x_j, scoring every k in ascending order with >= so the
// largest k among tied maxima wins (the reference backward pass keeps the
// first maximum it meets coming down from k = m−1). The point statistic has
// the same shape as in Detector.maxAbove.
func likelihoodMaxFromSuffixes(sufs []float64, oldRate, newRate float64) (best float64, bestK int) {
	m := len(sufs)
	logRatio := math.Log(newRate / oldRate)
	delta := newRate - oldRate
	best = math.Inf(-1)
	bestK = m
	for k := 0; k < m; k++ {
		lp := float64(float64(m-k)*logRatio) - float64(delta*sufs[k])
		if lp >= best {
			best = lp
			bestK = k
		}
	}
	return best, bestK
}

// paperDetector builds a detector at the paper's operating point: m = 100,
// check every 5 samples, an 8-rate geometric grid. Characterisation uses a
// reduced null sample; the thresholds only need to be realistic numbers.
func paperDetector(t *testing.T) *Detector {
	t.Helper()
	rates, err := GeometricRates(6, 44, 8)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(rates)
	cfg.CharacterisationWindows = 400
	th, err := Characterise(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDetector(cfg, th, rates[0])
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// push feeds the window directly, bypassing detection, and counts the
// sample as observed (checkSlack bounds the stream length by it).
func push(d *Detector, x float64) {
	d.window.Push(x)
	d.observed++
}

// checkBounded compares the bounded check against the full scan for every
// ordered rate pair on the detector's current window. Each pair is tried at
// its characterised threshold and at thresholds placed around the true
// maximum — just below it (only blocks holding a maximum may be scored, so
// ties are resolved from the bounds alone), at it, and well below it — and
// the bounded result must equal the scan's whenever the maximum exceeds the
// threshold, and must not exceed the threshold otherwise.
func checkBounded(t *testing.T, d *Detector, label string) (fired int) {
	t.Helper()
	n := d.window.Len()
	sufs := make([]float64, n)
	for k := range sufs {
		sufs[k] = d.window.SuffixSum(n - k)
	}
	g := len(d.cfg.Rates)
	for o, lo := range d.cfg.Rates {
		for j, ln := range d.cfg.Rates {
			if o == j {
				continue
			}
			want, wantK := likelihoodMaxFromSuffixes(sufs, lo, ln)
			p := d.pairs[o*g+j]
			for _, th := range []float64{p.threshold, math.Nextafter(want, math.Inf(-1)), want, want - 1, want - 1e3} {
				q := p
				q.threshold = th
				d.loadBlocks(n)
				got, gotK := d.maxAbove(n, q)
				if want > th {
					fired++
					if got != want || gotK != wantK {
						t.Fatalf("%s: n=%d %v→%v th=%v: bounded (%v, k=%d), full scan (%v, k=%d)",
							label, n, lo, ln, th, got, gotK, want, wantK)
					}
				} else if got > th {
					t.Fatalf("%s: n=%d %v→%v th=%v: bounded fired at %v (k=%d), full scan max %v",
						label, n, lo, ln, th, got, gotK, want)
				}
			}
		}
	}
	return fired
}

// TestBoundedMatchesFullScanRandomWindows covers random windows at every
// fill level from the minimum check size to a full, long-evicting window,
// drawn at rates on, between and off the grid, in both rate directions.
func TestBoundedMatchesFullScanRandomWindows(t *testing.T) {
	d := paperDetector(t)
	rng := stats.NewRNG(11)
	fired := 0
	for trial := 0; trial < 150; trial++ {
		d.window.Reset()
		n := 2 + rng.Intn(3*d.cfg.WindowSize)
		rate := 3 * math.Exp(rng.Float64()*3)
		change := rng.Intn(n)
		for i := 0; i < n; i++ {
			if i == change {
				rate = 3 * math.Exp(rng.Float64()*3)
			}
			push(d, rng.Exp(rate))
		}
		fired += checkBounded(t, d, "random")
	}
	if fired == 0 {
		t.Fatal("no threshold was ever exceeded — the test is vacuous")
	}
}

// TestBoundedMatchesFullScanTies uses constant windows, whose statistic is
// linear in the suffix length and, at x = ln(λn/λo)/(λn − λo), flat up to
// rounding: many points then tie exactly and the largest k must still win.
func TestBoundedMatchesFullScanTies(t *testing.T) {
	d := paperDetector(t)
	rates := d.cfg.Rates
	for _, n := range []int{2, 11, 37, 100} {
		for o, lo := range rates {
			for j, ln := range rates {
				if o == j {
					continue
				}
				for _, x := range []float64{math.Log(ln/lo) / (ln - lo), 1 / lo, 0.25} {
					d.window.Reset()
					for i := 0; i < n; i++ {
						push(d, x)
					}
					checkBounded(t, d, "constant")
				}
			}
		}
	}
}

// TestBoundedMatchesFullScanZeroSamples mixes exact zeros into windows (a
// zero-length interarrival is a legal sample): suffix sums then stay
// constant across runs of k, and an all-zero window has no positive sum.
func TestBoundedMatchesFullScanZeroSamples(t *testing.T) {
	d := paperDetector(t)
	rng := stats.NewRNG(5)
	for trial := 0; trial < 40; trial++ {
		d.window.Reset()
		n := 2 + rng.Intn(d.cfg.WindowSize-1)
		zeroFrac := float64(trial%5) / 4 // 0, ¼, ½, ¾, all zeros
		for i := 0; i < n; i++ {
			x := 0.0
			if rng.Float64() >= zeroFrac {
				x = rng.Exp(20)
			}
			push(d, x)
		}
		checkBounded(t, d, "zeros")
	}
}

// TestBoundedMatchesFullScanLongPrefix grows the stream prefix past 10⁶
// pushes without a reset, so every suffix sum is a difference of two large
// prefixes and carries rounding of the prefix's magnitude. The windows then
// alternate between ordinary samples and samples far below the prefix's
// ulp, where computed suffix sums are no longer monotone in k: the slack
// is what keeps the bounds sound there.
func TestBoundedMatchesFullScanLongPrefix(t *testing.T) {
	d := paperDetector(t)
	rng := stats.NewRNG(3)
	d.window.Reset()
	for i := 0; i < 1_000_000; i++ {
		push(d, rng.Exp(20))
	}
	if p := d.window.Prefix(); p < 1e4 {
		t.Fatalf("stream prefix %v after 10⁶ pushes, want ≥ 1e4", p)
	}
	for phase := 0; phase < 40; phase++ {
		rate := 20.0
		if phase%2 == 1 {
			rate = 1e12 // samples ~1e-12, below the prefix's ulp
		}
		for i := 0; i < 1+rng.Intn(d.cfg.WindowSize); i++ {
			push(d, rng.Exp(rate))
		}
		checkBounded(t, d, "long prefix")
	}
}

// TestNewDetectorRejectsUncharacterisedRatio: a threshold table missing one
// of the grid's ratios fails when the detector is built, not mid-stream.
func TestNewDetectorRejectsUncharacterisedRatio(t *testing.T) {
	rates := []float64{10, 20, 40}
	cfg := DefaultConfig(rates)
	th, err := RestoreThresholds(ThresholdSet{
		WindowSize: cfg.WindowSize,
		Confidence: cfg.Confidence,
		Ratios:     []float64{0.5, 2}, // 4 and 0.25 are missing
		Values:     []float64{3, 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewDetector(cfg, th, 10); err == nil {
		t.Fatal("detector built over thresholds missing the 10→40 ratio")
	}
}

// BenchmarkDetectorObserve runs the paper-config detector (m = 100, check
// every 5 samples, the 8-rate MPEG arrival grid) over the frame
// interarrival times of a generated MPEG clip sequence, cycled. One op is
// one Observe.
func BenchmarkDetectorObserve(b *testing.B) {
	rates, err := GeometricRates(8, 34, 8)
	if err != nil {
		b.Fatal(err)
	}
	cfg := DefaultConfig(rates)
	th, err := Characterise(cfg)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := workload.Generate(stats.NewRNG(1), workload.MPEGClips(), workload.GenerateOptions{})
	if err != nil {
		b.Fatal(err)
	}
	xs := tr.Interarrivals()
	d, err := NewDetector(cfg, th, tr.Changes[0].ArrivalRate)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	detections := 0
	for i := 0; i < b.N; i++ {
		if _, ok := d.Observe(xs[i%len(xs)]); ok {
			detections++
		}
	}
	b.ReportMetric(float64(detections)/float64(b.N), "detections/op")
}
