package changepoint

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"smartbadge/internal/parallel"
	"smartbadge/internal/stats"
)

// characteriseReference is the ratio-major characterisation that the
// stream-major engine replaced, kept as its oracle: one config at a time,
// every distinct ratio simulated on its own stream SplitAt(i), and a Clone
// of that stream re-simulated over a doubled span whenever the histogram
// clips.
func characteriseReference(cfg Config) (*Thresholds, map[float64]*stats.Histogram, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	seen := make(map[int64]bool)
	var ratios []float64
	for _, lo := range cfg.Rates {
		for _, ln := range cfg.Rates {
			if lo == ln {
				continue
			}
			ratio := ln / lo
			if key := ratioKey(ratio); !seen[key] {
				seen[key] = true
				ratios = append(ratios, ratio)
			}
		}
	}
	base := stats.NewRNG(cfg.Seed)
	hs, err := parallel.Map(0, len(ratios), func(i int) (*stats.Histogram, error) {
		return referenceRatio(base.SplitAt(uint64(i)), ratios[i], cfg)
	})
	if err != nil {
		return nil, nil, err
	}
	t := &Thresholds{windowSize: cfg.WindowSize, confidence: cfg.Confidence, byRatio: make(map[int64]float64)}
	hists := make(map[float64]*stats.Histogram)
	for i, ratio := range ratios {
		t.byRatio[ratioKey(ratio)] = hs[i].Quantile(cfg.Confidence)
		t.ratios = append(t.ratios, ratio)
		hists[ratio] = hs[i]
	}
	sort.Float64s(t.ratios)
	return t, hists, nil
}

// referenceRatio simulates one ratio's null windows, re-simulating a Clone
// of the untouched stream over a doubled span while the histogram clips.
func referenceRatio(rng *stats.RNG, ratio float64, cfg Config) (*stats.Histogram, error) {
	span := float64(cfg.WindowSize)*math.Abs(math.Log(ratio)) + 10
	for attempt := 0; attempt < 8; attempt++ {
		r := rng.Clone()
		values := make([]float64, cfg.WindowSize)
		h := stats.NewHistogram(-span, span, 4096)
		for w := 0; w < cfg.CharacterisationWindows; w++ {
			for i := range values {
				values[i] = r.Exp(1)
			}
			h.Add(referenceStatistic(values, 1, ratio))
		}
		if !quantileClipped(h, cfg.Confidence) {
			return h, nil
		}
		span *= 2
	}
	return nil, fmt.Errorf("reference: ratio %v clips at every span", ratio)
}

// referenceStatistic is Equation 4's maximum in one backward pass, written
// out independently of suffixSums and scoreSuffixes.
func referenceStatistic(values []float64, oldRate, newRate float64) float64 {
	m := len(values)
	logRatio := math.Log(newRate / oldRate)
	delta := newRate - oldRate
	best := math.Inf(-1)
	suffix := 0.0
	for k := m - 1; k >= 0; k-- {
		suffix += values[k]
		if lp := float64(m-k)*logRatio - delta*suffix; lp > best {
			best = lp
		}
	}
	return best
}

// defaultGrids are the five distinct detector grids of the default apps
// (experiments.MP3App, MPEGApp and MixedApp; MP3 and Mixed share their
// arrival grid): 3 × 14 + 2 × 10 = 62 ratios over 14 distinct streams.
func defaultGrids(tb testing.TB) [][]float64 {
	tb.Helper()
	var grids [][]float64
	for _, g := range []struct {
		lo, hi float64
		n      int
	}{{6, 44, 8}, {60, 150, 6}, {8, 34, 8}, {34, 80, 6}, {34, 150, 8}} {
		rates, err := GeometricRates(g.lo, g.hi, g.n)
		if err != nil {
			tb.Fatal(err)
		}
		grids = append(grids, rates)
	}
	return grids
}

// sameThresholds fails unless got and want snapshot to the same bits.
func sameThresholds(t *testing.T, label string, got, want *Thresholds) {
	t.Helper()
	g, w := got.Snapshot(), want.Snapshot()
	if g.WindowSize != w.WindowSize || math.Float64bits(g.Confidence) != math.Float64bits(w.Confidence) {
		t.Fatalf("%s: window/confidence %d/%v, want %d/%v", label, g.WindowSize, g.Confidence, w.WindowSize, w.Confidence)
	}
	if len(g.Ratios) != len(w.Ratios) {
		t.Fatalf("%s: %d ratios, want %d", label, len(g.Ratios), len(w.Ratios))
	}
	for i := range w.Ratios {
		if math.Float64bits(g.Ratios[i]) != math.Float64bits(w.Ratios[i]) ||
			math.Float64bits(g.Values[i]) != math.Float64bits(w.Values[i]) {
			t.Fatalf("%s: ratio %v threshold %v, want ratio %v threshold %v",
				label, g.Ratios[i], g.Values[i], w.Ratios[i], w.Values[i])
		}
	}
}

// sameHistograms fails unless every ratio's histogram has the same range,
// bins, clipping counts and mean bits.
func sameHistograms(t *testing.T, label string, got, want map[float64]*stats.Histogram) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d histograms, want %d", label, len(got), len(want))
	}
	for ratio, wh := range want {
		gh := got[ratio]
		if gh == nil {
			t.Fatalf("%s: no histogram for ratio %v", label, ratio)
		}
		glo, ghi := gh.Range()
		wlo, whi := wh.Range()
		if glo != wlo || ghi != whi || gh.Count() != wh.Count() ||
			gh.UnderflowCount() != wh.UnderflowCount() || gh.OverflowCount() != wh.OverflowCount() ||
			math.Float64bits(gh.Mean()) != math.Float64bits(wh.Mean()) {
			t.Fatalf("%s, ratio %v: histogram [%v,%v) n=%d under=%d over=%d mean=%v, want [%v,%v) n=%d under=%d over=%d mean=%v",
				label, ratio, glo, ghi, gh.Count(), gh.UnderflowCount(), gh.OverflowCount(), gh.Mean(),
				wlo, whi, wh.Count(), wh.UnderflowCount(), wh.OverflowCount(), wh.Mean())
		}
		gb, wb := gh.Bins(), wh.Bins()
		for i := range wb {
			if gb[i] != wb[i] {
				t.Fatalf("%s, ratio %v: bin %d = %d, want %d", label, ratio, i, gb[i], wb[i])
			}
		}
	}
}

// TestCharacteriseAllMatchesReferenceDefaultGrids: the daemon's start-up
// batch, the five default grids at the paper's settings in one call, is
// bit-identical to characterising each grid ratio-major on its own.
func TestCharacteriseAllMatchesReferenceDefaultGrids(t *testing.T) {
	var cfgs []Config
	for _, rates := range defaultGrids(t) {
		cfgs = append(cfgs, DefaultConfig(rates))
	}
	got, err := CharacteriseAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		want, _, err := characteriseReference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sameThresholds(t, fmt.Sprintf("grid %v", cfg.Rates), got[i], want)
	}
}

// mixedBatch spans several null samples in one call: two seeds, two window
// sizes and two window counts, two confidences within one sample, grids of
// 30, 14, 10 and 2 ratios sharing one sample, and a duplicated config.
func mixedBatch(t *testing.T) []Config {
	t.Helper()
	grid8, err := GeometricRates(6, 44, 8)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(rates []float64, seed uint64, m, windows int, conf float64) Config {
		cfg := DefaultConfig(rates)
		cfg.Seed, cfg.WindowSize, cfg.CharacterisationWindows, cfg.Confidence = seed, m, windows, conf
		return cfg
	}
	base := []float64{10, 20, 40, 60}
	return []Config{
		mk(grid8, 7, 100, 300, 0.995),
		mk(base, 7, 100, 300, 0.995),
		mk([]float64{12, 30}, 7, 100, 300, 0.995),
		mk(base, 7, 100, 300, 0.95),
		mk([]float64{15, 25, 35, 45, 55, 65}, 7, 100, 300, 0.995),
		mk(base, 8, 100, 300, 0.995),
		mk(base, 7, 40, 300, 0.995),
		mk(base, 7, 100, 200, 0.995),
		mk(base, 7, 100, 300, 0.995), // duplicate of the second config
	}
}

// TestCharacteriseAllMatchesReferenceMixedBatch compares a mixed batch,
// histograms included, against the reference at 1, 2 and GOMAXPROCS
// workers.
func TestCharacteriseAllMatchesReferenceMixedBatch(t *testing.T) {
	cfgs := mixedBatch(t)
	type ref struct {
		th    *Thresholds
		hists map[float64]*stats.Histogram
	}
	want := make([]ref, len(cfgs))
	for i, cfg := range cfgs {
		th, hists, err := characteriseReference(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = ref{th, hists}
	}
	for _, workers := range []int{1, 2, 0} {
		batch := make([]Config, len(cfgs))
		for i, cfg := range cfgs {
			cfg.Workers = workers
			batch[i] = cfg
		}
		ths, hists, err := characterise(batch, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(ths) != len(cfgs) || len(hists) != len(cfgs) {
			t.Fatalf("workers %d: %d tables and %d histogram sets for %d configs", workers, len(ths), len(hists), len(cfgs))
		}
		for i := range batch {
			label := fmt.Sprintf("workers %d, config %d", workers, i)
			sameThresholds(t, label, ths[i], want[i].th)
			sameHistograms(t, label, hists[i], want[i].hists)
		}
	}
	// The one-config entry points are the batch of one.
	th, hists, err := CharacteriseDetailed(cfgs[0])
	if err != nil {
		t.Fatal(err)
	}
	sameThresholds(t, "CharacteriseDetailed", th, want[0].th)
	sameHistograms(t, "CharacteriseDetailed", hists, want[0].hists)
	sameThresholds(t, "Characterise", mustThresholds(t, cfgs[1]), want[1].th)
}

// TestCharacteriseAllRejectsInvalidConfig: one invalid config fails the
// whole batch, and an empty batch is empty.
func TestCharacteriseAllRejectsInvalidConfig(t *testing.T) {
	bad := testConfig()
	bad.Rates = []float64{10}
	if _, err := CharacteriseAll([]Config{testConfig(), bad}); err == nil {
		t.Fatal("batch with an invalid config accepted")
	}
	ths, err := CharacteriseAll(nil)
	if err != nil || len(ths) != 0 {
		t.Fatalf("empty batch = %v, %v", ths, err)
	}
}

// BenchmarkCharacteriseDefaultGrids characterises the five default grids
// in one batch, the daemon's start-up work. exp_draws/op counts the Exp(1)
// samples the stream plan draws (14 streams × 100 × 4000 = 5.6 M); ratios
// one at a time would draw 62 × 100 × 4000 = 24.8 M.
func BenchmarkCharacteriseDefaultGrids(b *testing.B) {
	var cfgs []Config
	ratios := make([][]float64, 0, 5)
	for _, rates := range defaultGrids(b) {
		cfgs = append(cfgs, DefaultConfig(rates))
		ratios = append(ratios, gridRatios(rates))
	}
	draws := 0
	for _, job := range planStreams(cfgs, ratios) {
		draws += job.sample.m * job.sample.windows
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := CharacteriseAll(cfgs); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(draws), "exp_draws/op")
}
