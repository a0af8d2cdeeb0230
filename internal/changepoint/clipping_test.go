package changepoint

import (
	"testing"

	"smartbadge/internal/stats"
)

// TestQuantileClipped pins the clipping rule: overflow biases the confidence
// quantile once the clipped upper tail is comparable to the tail mass the
// quantile leaves above itself; underflow only once it swallows the whole
// quantile target.
func TestQuantileClipped(t *testing.T) {
	mk := func(inRange, under, over int) *stats.Histogram {
		h := stats.NewHistogram(0, 10, 10)
		for i := 0; i < inRange; i++ {
			h.Add(5)
		}
		for i := 0; i < under; i++ {
			h.Add(-1)
		}
		for i := 0; i < over; i++ {
			h.Add(100)
		}
		return h
	}
	if quantileClipped(mk(1000, 0, 0), 0.995) {
		t.Error("clean histogram flagged as clipped")
	}
	// Tail mass at 0.995 over ~1000 samples is ~5; a single overflow sample
	// is well under half of that and tolerable...
	if quantileClipped(mk(1000, 0, 1), 0.995) {
		t.Error("single overflow sample flagged as clipped")
	}
	// ...but three or more overlap the quantile's own tail.
	if !quantileClipped(mk(1000, 0, 3), 0.995) {
		t.Error("overflow overlapping the quantile tail not flagged")
	}
	// Underflow below the quantile target does not bias an upper quantile.
	if quantileClipped(mk(1000, 500, 0), 0.995) {
		t.Error("benign underflow flagged as clipped")
	}
	// Underflow swallowing the whole target does.
	if !quantileClipped(mk(0, 1000, 0), 0.995) {
		t.Error("total underflow not flagged")
	}
	if quantileClipped(stats.NewHistogram(0, 1, 4), 0.995) {
		t.Error("empty histogram flagged as clipped")
	}
}

// TestNullHistogramWidensSpanWhenClipped checks the loud-failure fix end
// to end on stored statistics: a span too narrow for the statistic clips,
// and nullHistogram, started from that span, recovers by re-binning the
// same statistics over doubled spans until the confidence quantile is
// clean.
func TestNullHistogramWidensSpanWhenClipped(t *testing.T) {
	cfg := testConfig()
	const ratio, tinySpan = 6, 0.05
	statistics := scoreNullStream(stats.NewRNG(cfg.Seed).SplitAt(3),
		cfg.WindowSize, cfg.CharacterisationWindows, []float64{ratio})[0]

	// A deliberately tiny span must clip near the quantile...
	tiny := binStatistics(statistics, tinySpan)
	if !quantileClipped(tiny, cfg.Confidence) {
		t.Fatal("expected a 0.05-wide span to clip the null statistic")
	}

	// ...while widening from it returns a clean histogram over the same
	// statistics.
	h, err := nullHistogram(statistics, ratio, tinySpan, cfg.Confidence)
	if err != nil {
		t.Fatal(err)
	}
	if _, hi := h.Range(); hi <= tinySpan {
		t.Fatalf("span %v was not widened", hi)
	}
	if quantileClipped(h, cfg.Confidence) {
		t.Fatal("nullHistogram returned a clipped histogram")
	}
	if h.Count() != tiny.Count() || h.Count() != int64(cfg.CharacterisationWindows) {
		t.Fatalf("sample count = %d (clipped %d), want %d", h.Count(), tiny.Count(), cfg.CharacterisationWindows)
	}
	if h.Mean() != tiny.Mean() {
		t.Fatalf("widening changed the data: mean %v vs %v", h.Mean(), tiny.Mean())
	}
}
