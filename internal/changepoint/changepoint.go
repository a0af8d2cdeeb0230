// Package changepoint implements the first contribution of the paper
// (Section 3.1): optimal detection of rate changes in exponential arrival and
// service processes via the maximum likelihood ratio, with off-line threshold
// characterisation by stochastic simulation and on-line sliding-window
// detection.
//
// The statistic. For a window holding the last m interarrival (or decoding)
// times x_1..x_m, the hypothesis "the rate changed from λo to λn after the
// k-th sample" is scored against "the rate is still λo" by the likelihood
// ratio of Equation 3, whose logarithm (Equation 4) is
//
//	ln P(k) = (m − k)·ln(λn/λo) − (λn − λo)·Σ_{j=k+1..m} x_j
//
// The detection statistic for a candidate new rate λn is max_k ln P(k); only
// the suffix sums S_k = Σ_{j=k+1..m} x_j of the window are needed, and the
// detector reads each in O(1) from the window's compensated prefix ring
// (stats.Window.SuffixSum).
//
// Bound and verify. A check only has to act on candidates whose maximum
// exceeds their threshold, so the detector never scans all m points per
// candidate. It reads S_k at block boundaries k_0 = 0 < k_1 < … < k_r = m−1,
// about every blockLen samples. S_k does not increase with k, so on a block
// [a, b] every point is bounded by
//
//	(m − a)·L − δ·S_b   when λn > λo (L = ln(λn/λo) > 0, δ = λn − λo > 0)
//	(m − b)·L − δ·S_a   when λn < λo (L < 0, δ < 0)
//
// and only blocks whose bound exceeds the threshold are filled and scored
// point by point, in ascending k with the >= tie-break of the full scan.
// Every point above the threshold lies in a scored block, so whenever the
// full scan's maximum exceeds the threshold the bounded walk returns the
// same maximum and the same (largest) argmax, bit for bit; when it does not,
// neither fires. The bound is certified in floating point, not only in real
// arithmetic: it is evaluated in the same expression shape as the point
// statistic, with each product rounded explicitly by float64(...) so no
// platform may fuse a multiply-add into either, and IEEE rounding is
// monotone, so a larger operand never yields a smaller rounded result. The
// computed suffix sums are monotone only to within the prefix ring's
// rounding, so the block's end sums are widened by a slack of a few units
// of roundoff of the stream prefix (see checkSlack) before they enter the
// bound.
//
// Config.NaiveStats selects the reference path instead: the window is
// materialised and every candidate is rescored by an O(m) backward pass
// (characterisation always uses that pass, so thresholds are independent of
// the flag).
//
// Off-line characterisation. For each (λo, λn) pair from the predefined rate
// set Λ, windows are simulated under the null hypothesis (all m samples at
// rate λo), the statistic is accumulated into a histogram, and the
// confidence quantile (99.5 % in the paper) becomes the on-line threshold:
// a statistic above it occurs with probability ≤ 0.5 % when no change
// happened. Because the null distribution of ln P(k) depends on (λo, λn)
// only through the ratio λn/λo (λo·Σx is a Gamma(m−k, 1) pivot), thresholds
// are cached per ratio, which collapses a geometric rate grid to a handful
// of simulations. A detector resolves its G×G table of log ratios, rate
// differences and thresholds once, in NewDetector.
//
// On-line detection. Every k-th observation (the paper's check interval),
// the detector evaluates the statistic for every candidate λn ≠ λo and
// reports the candidate with the largest margin above its threshold, if any.
// After a detection the samples before the estimated change point are
// discarded and λo becomes λn.
package changepoint

import (
	"fmt"
	"math"
	"sort"

	"smartbadge/internal/obs"
	"smartbadge/internal/parallel"
	"smartbadge/internal/stats"
)

// Config parameterises both characterisation and on-line detection.
type Config struct {
	// Rates is the predefined candidate rate set Λ (events/second).
	// Must contain at least two distinct positive rates.
	Rates []float64
	// WindowSize is m, the number of recent samples considered (paper: 100).
	WindowSize int
	// CheckInterval is how many new samples arrive between statistic
	// evaluations (the paper's "check every k points"). 1 checks on every
	// sample.
	CheckInterval int
	// MinWindow is the smallest number of buffered samples at which checks
	// run. After a detection the pre-change samples are discarded, so the
	// window is short for a while; evaluating the statistic on n < m samples
	// against the m-sample threshold is conservative (the null statistic over
	// a suffix subset is stochastically smaller), and it is what lets the
	// detector settle within ~10 frames as in Figure 10 instead of waiting
	// for a full window to refill.
	//
	// MinWindow < CheckInterval is allowed but inert: after the window is
	// cleared, the first evaluation cannot happen before CheckInterval
	// samples have accumulated anyway, so the effective minimum is
	// max(MinWindow, CheckInterval).
	MinWindow int
	// RefineAfter schedules refinement passes every RefineAfter samples
	// following a detection, until WindowSize post-change samples have
	// accumulated: the mean of the samples observed since the detection is
	// re-snapped to the rate grid and adopted when it disagrees with the
	// current rate. Detection fires on ~10 post-change samples, which is
	// enough to notice *that* the rate changed but noisy for picking *which*
	// neighbouring grid rate it changed to; refinement corrects an
	// off-by-one grid pick without waiting for the slow threshold crossing
	// between adjacent rates. 0 disables refinement.
	RefineAfter int
	// Confidence is the characterisation quantile (paper: 0.995).
	Confidence float64
	// CharacterisationWindows is the number of null windows simulated per
	// rate ratio during off-line characterisation.
	CharacterisationWindows int
	// Seed drives the characterisation simulation.
	Seed uint64
	// Workers bounds the characterisation fan-out: the distinct rate ratios
	// are simulated concurrently, each on its own index-derived RNG stream,
	// so the thresholds are bit-for-bit identical for any worker count.
	// 0 selects runtime.GOMAXPROCS(0); negative is invalid.
	Workers int
	// Obs, when non-nil, attaches the observability layer to the off-line
	// characterisation: a phase timer around the simulation, a counter of
	// simulated windows, and one "threshold" trace event per rate ratio.
	// It does not affect the computed thresholds.
	Obs *obs.Obs
	// NaiveStats selects the reference statistic path for on-line detection:
	// at every check the window is materialised and each candidate's suffix
	// sums are recomputed by a backward O(m) pass (the pre-optimisation
	// code). The default (false) is the bound-and-verify path described in
	// the package comment: suffix sums are O(1) reads of the window's
	// compensated prefix ring, taken at block boundaries, and only blocks
	// whose certified upper bound exceeds the threshold are scored point by
	// point, with no allocation. The two paths differ only at rounding level
	// in the statistic (prefix-ring versus backward-pass sums); the root
	// golden regression asserts full-run byte-identity between them.
	// Off-line characterisation ignores this field (and the threshold cache
	// therefore excludes it from its key).
	NaiveStats bool
}

// DefaultConfig returns the paper's operating point: m = 100, check every
// 5 samples, 99.5 % confidence, and a null sample of 4000 windows per ratio.
func DefaultConfig(rates []float64) Config {
	return Config{
		Rates:                   rates,
		WindowSize:              100,
		CheckInterval:           5,
		MinWindow:               10,
		RefineAfter:             20,
		Confidence:              0.995,
		CharacterisationWindows: 4000,
		Seed:                    0x5eed,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if len(c.Rates) < 2 {
		return fmt.Errorf("changepoint: need at least two candidate rates, got %d", len(c.Rates))
	}
	seen := map[float64]bool{}
	for _, r := range c.Rates {
		if r <= 0 {
			return fmt.Errorf("changepoint: candidate rate must be positive, got %v", r)
		}
		if seen[r] {
			return fmt.Errorf("changepoint: duplicate candidate rate %v", r)
		}
		seen[r] = true
	}
	if c.WindowSize < 10 {
		return fmt.Errorf("changepoint: window size %d too small (need >= 10)", c.WindowSize)
	}
	if c.CheckInterval < 1 {
		return fmt.Errorf("changepoint: check interval must be >= 1, got %d", c.CheckInterval)
	}
	if c.CheckInterval > c.WindowSize {
		// The window would evict every sample it buffers between two
		// evaluations: most observations could never contribute to any
		// statistic, silently blinding the detector.
		return fmt.Errorf("changepoint: check interval %d exceeds window size %d (samples would be evicted unevaluated)",
			c.CheckInterval, c.WindowSize)
	}
	if c.MinWindow < 2 || c.MinWindow > c.WindowSize {
		return fmt.Errorf("changepoint: min window %d must be in [2, %d]", c.MinWindow, c.WindowSize)
	}
	if c.RefineAfter < 0 {
		return fmt.Errorf("changepoint: refine-after must be non-negative, got %d", c.RefineAfter)
	}
	if c.Confidence <= 0.5 || c.Confidence >= 1 {
		return fmt.Errorf("changepoint: confidence must be in (0.5, 1), got %v", c.Confidence)
	}
	if c.CharacterisationWindows < 100 {
		return fmt.Errorf("changepoint: need >= 100 characterisation windows, got %d", c.CharacterisationWindows)
	}
	if c.Workers < 0 {
		return fmt.Errorf("changepoint: workers must be non-negative, got %d", c.Workers)
	}
	return nil
}

// GeometricRates builds a geometric candidate rate grid from lo to hi with
// the given number of points — the natural Λ for multimedia rates that span
// an order of magnitude. The grid always includes both endpoints.
func GeometricRates(lo, hi float64, n int) ([]float64, error) {
	if lo <= 0 || hi <= lo {
		return nil, fmt.Errorf("changepoint: need 0 < lo < hi, got [%v, %v]", lo, hi)
	}
	if n < 2 {
		return nil, fmt.Errorf("changepoint: need at least two grid points, got %d", n)
	}
	out := make([]float64, n)
	ratio := math.Pow(hi/lo, 1/float64(n-1))
	v := lo
	for i := range out {
		out[i] = v
		v *= ratio
	}
	out[n-1] = hi // kill accumulated rounding
	return out, nil
}

// SnapRate returns the candidate rate closest to x (in log space, since the
// grid is ratio-structured). It panics on an empty grid.
func SnapRate(rates []float64, x float64) float64 {
	return rates[snapIndex(rates, x)]
}

// snapIndex is SnapRate returning the grid index.
func snapIndex(rates []float64, x float64) int {
	if len(rates) == 0 {
		panic("changepoint: empty rate grid")
	}
	if x <= 0 {
		return 0
	}
	best := 0
	bestD := math.Abs(math.Log(x / rates[0]))
	for i, r := range rates[1:] {
		if d := math.Abs(math.Log(x / r)); d < bestD {
			best, bestD = i+1, d
		}
	}
	return best
}

// logLikelihoodMax computes max_k ln P(k) for the window values (oldest
// first) under candidate rates (λo → λn), along with the argmax k.
// Equation 4 of the paper, evaluated for every k in one backward pass.
func logLikelihoodMax(values []float64, oldRate, newRate float64) (best float64, bestK int) {
	m := len(values)
	logRatio := math.Log(newRate / oldRate)
	delta := newRate - oldRate
	best = math.Inf(-1)
	bestK = m
	suffix := 0.0
	// k = m-1 .. 0; suffix holds Σ_{j=k+1..m} x_j after adding values[k].
	for k := m - 1; k >= 0; k-- {
		suffix += values[k]
		lp := float64(m-k)*logRatio - delta*suffix
		if lp > best {
			best = lp
			bestK = k
		}
	}
	return best, bestK
}

// Thresholds holds the characterised detection thresholds, keyed by rate
// ratio λn/λo.
type Thresholds struct {
	windowSize int
	confidence float64
	// byRatio maps a quantised ratio to the null-quantile threshold.
	byRatio map[int64]float64
	// ratios retains the characterised ratios for reporting.
	ratios []float64
}

// ratioKey quantises a ratio for map lookup (1e-9 relative resolution in log
// space, far finer than any practical grid spacing).
func ratioKey(ratio float64) int64 {
	return int64(math.Round(math.Log(ratio) * 1e9))
}

// Characterise runs the off-line stochastic simulation and returns the
// threshold table for the configured rate set. This is the expensive,
// run-once step; the result can be shared by any number of detectors.
func Characterise(cfg Config) (*Thresholds, error) {
	t, _, err := characterise(cfg, false)
	return t, err
}

// CharacteriseDetailed additionally returns the null-hypothesis statistic
// histograms per rate ratio — the "results accumulated in a histogram" the
// paper describes — for inspection (see cmd/characterize -hist).
func CharacteriseDetailed(cfg Config) (*Thresholds, map[float64]*stats.Histogram, error) {
	return characterise(cfg, true)
}

func characterise(cfg Config, keepHistograms bool) (*Thresholds, map[float64]*stats.Histogram, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	t := &Thresholds{
		windowSize: cfg.WindowSize,
		confidence: cfg.Confidence,
		byRatio:    make(map[int64]float64),
	}
	var hists map[float64]*stats.Histogram
	if keepHistograms {
		hists = make(map[float64]*stats.Histogram)
	}
	// The null distribution depends only on the ratio, and the pivot
	// λo·Σx lets us simulate once at λo = 1. Collect the distinct ratios in
	// deterministic scan order, then fan the simulations out: each ratio gets
	// its own index-derived RNG stream, so the thresholds are identical for
	// any worker count.
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
	stop := cfg.Obs.Registry().Timer("changepoint.characterise").Start()
	base := stats.NewRNG(cfg.Seed)
	hs, err := parallel.Map(cfg.Workers, len(ratios), func(i int) (*stats.Histogram, error) {
		return characteriseRatio(base.SplitAt(uint64(i)), ratios[i], cfg)
	})
	stop()
	if err != nil {
		return nil, nil, err
	}
	tr := cfg.Obs.Tracer()
	for i, ratio := range ratios {
		th := hs[i].Quantile(cfg.Confidence)
		t.byRatio[ratioKey(ratio)] = th
		t.ratios = append(t.ratios, ratio)
		if keepHistograms {
			hists[ratio] = hs[i]
		}
		if tr != nil {
			tr.Emit(obs.Event{Kind: "threshold", NewRate: ratio, Value: th,
				Detail: fmt.Sprintf("m=%d conf=%g windows=%d", cfg.WindowSize, cfg.Confidence, cfg.CharacterisationWindows)})
		}
	}
	if reg := cfg.Obs.Registry(); reg != nil {
		reg.Counter("changepoint.characterise.windows").
			Add(float64(len(ratios) * cfg.CharacterisationWindows))
		reg.Counter("changepoint.characterise.ratios").Add(float64(len(ratios)))
	}
	sort.Float64s(t.ratios)
	return t, hists, nil
}

// characteriseRatio simulates null windows at unit rate and returns the
// histogram of the statistic for candidate rate = ratio. rng is this
// ratio's private stream (the caller derives it with SplitAt, so workers
// never share generator state). When the histogram clips near the
// confidence quantile (extreme statistics landing in the under/overflow
// bins, which would silently bias the threshold), the span is doubled and a
// Clone of the untouched stream re-simulated — every attempt scores the
// identical sample sequence and widening changes only the binning, never
// the data. Persistent clipping fails loudly rather than returning a
// biased threshold.
func characteriseRatio(rng *stats.RNG, ratio float64, cfg Config) (*stats.Histogram, error) {
	// Statistic range: ln P is bounded above by m·|ln ratio| in practice;
	// histogram over a generous span with fine bins.
	span := float64(cfg.WindowSize)*math.Abs(math.Log(ratio)) + 10
	const maxAttempts = 8
	for attempt := 0; ; attempt++ {
		h := nullStatisticHistogram(rng.Clone(), ratio, cfg, span)
		if !quantileClipped(h, cfg.Confidence) {
			return h, nil
		}
		if attempt == maxAttempts-1 {
			return nil, fmt.Errorf(
				"changepoint: null statistic for ratio %v clips near the %.4g quantile even at span ±%g (under=%d over=%d of %d): threshold would be biased",
				ratio, cfg.Confidence, span, h.UnderflowCount(), h.OverflowCount(), h.Count())
		}
		span *= 2
	}
}

// nullStatisticHistogram fills one null-hypothesis histogram over [-span, span).
func nullStatisticHistogram(rng *stats.RNG, ratio float64, cfg Config, span float64) *stats.Histogram {
	values := make([]float64, cfg.WindowSize)
	h := stats.NewHistogram(-span, span, 4096)
	for w := 0; w < cfg.CharacterisationWindows; w++ {
		for i := range values {
			values[i] = rng.Exp(1)
		}
		s, _ := logLikelihoodMax(values, 1, ratio)
		h.Add(s)
	}
	return h
}

// quantileClipped reports whether out-of-range samples could bias the
// confidence quantile read from h. Underflow biases it when enough samples
// sit below the range to swallow the whole quantile target; overflow biases
// it when the clipped upper tail is of the same order as the tail mass the
// quantile leaves above itself (factor-two safety margin).
func quantileClipped(h *stats.Histogram, confidence float64) bool {
	n := float64(h.Count())
	if n == 0 {
		return false
	}
	if float64(h.UnderflowCount()) >= math.Ceil(confidence*n) {
		return true
	}
	tail := (1 - confidence) * n
	return h.OverflowCount() > 0 && float64(h.OverflowCount()) >= tail/2
}

// For returns the threshold for a change from oldRate to newRate.
// It returns an error if the ratio was not characterised.
func (t *Thresholds) For(oldRate, newRate float64) (float64, error) {
	th, ok := t.byRatio[ratioKey(newRate/oldRate)]
	if !ok {
		return 0, fmt.Errorf("changepoint: ratio %v/%v not characterised", newRate, oldRate)
	}
	return th, nil
}

// Ratios returns the characterised ratios in ascending order.
func (t *Thresholds) Ratios() []float64 {
	out := make([]float64, len(t.ratios))
	copy(out, t.ratios)
	return out
}

// WindowSize returns the window size the thresholds were characterised for.
func (t *Thresholds) WindowSize() int { return t.windowSize }

// Confidence returns the characterisation confidence level.
func (t *Thresholds) Confidence() float64 { return t.confidence }

// ThresholdSet is the portable, exact snapshot of a threshold table: the
// characterised ratios in ascending order, each with its null-quantile
// threshold. Snapshot and RestoreThresholds round-trip every float64 bit for
// bit — the serialisation contract the content-addressed threshold cache
// (internal/thrcache) is built on.
type ThresholdSet struct {
	WindowSize int
	Confidence float64
	Ratios     []float64
	Values     []float64
}

// Snapshot exports the threshold table. The returned slices are fresh copies.
func (t *Thresholds) Snapshot() ThresholdSet {
	s := ThresholdSet{
		WindowSize: t.windowSize,
		Confidence: t.confidence,
		Ratios:     make([]float64, len(t.ratios)),
		Values:     make([]float64, len(t.ratios)),
	}
	copy(s.Ratios, t.ratios)
	for i, r := range s.Ratios {
		s.Values[i] = t.byRatio[ratioKey(r)]
	}
	return s
}

// RestoreThresholds rebuilds a threshold table from a snapshot, validating
// the invariants Characterise guarantees (positive non-unit ratios, strictly
// ascending with distinct quantisation keys, one value per ratio). The
// restored table answers For, Ratios, WindowSize and Confidence identically
// to the table the snapshot was taken from.
func RestoreThresholds(s ThresholdSet) (*Thresholds, error) {
	if s.WindowSize < 10 {
		return nil, fmt.Errorf("changepoint: snapshot window size %d too small (need >= 10)", s.WindowSize)
	}
	if s.Confidence <= 0.5 || s.Confidence >= 1 {
		return nil, fmt.Errorf("changepoint: snapshot confidence %v outside (0.5, 1)", s.Confidence)
	}
	if len(s.Ratios) == 0 {
		return nil, fmt.Errorf("changepoint: snapshot has no ratios")
	}
	if len(s.Ratios) != len(s.Values) {
		return nil, fmt.Errorf("changepoint: snapshot has %d ratios but %d values", len(s.Ratios), len(s.Values))
	}
	t := &Thresholds{
		windowSize: s.WindowSize,
		confidence: s.Confidence,
		byRatio:    make(map[int64]float64, len(s.Ratios)),
		ratios:     make([]float64, len(s.Ratios)),
	}
	copy(t.ratios, s.Ratios)
	prev := math.Inf(-1)
	for i, r := range s.Ratios {
		if !(r > 0) || r == 1 || math.IsInf(r, 0) {
			return nil, fmt.Errorf("changepoint: invalid snapshot ratio %v", r)
		}
		if r <= prev {
			return nil, fmt.Errorf("changepoint: snapshot ratios not strictly ascending (%v after %v)", r, prev)
		}
		prev = r
		key := ratioKey(r)
		if _, dup := t.byRatio[key]; dup {
			return nil, fmt.Errorf("changepoint: snapshot ratios %v quantise to a duplicate key", r)
		}
		if v := s.Values[i]; math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("changepoint: non-finite snapshot threshold %v for ratio %v", v, r)
		}
		t.byRatio[key] = s.Values[i]
	}
	return t, nil
}

// Detection reports one detected rate change.
type Detection struct {
	// OldRate and NewRate are the grid rates before and after the change.
	OldRate, NewRate float64
	// SampleIndex is the total number of samples observed when the change was
	// declared.
	SampleIndex int
	// ChangeOffset is the estimated k: how many of the window's samples
	// precede the change.
	ChangeOffset int
	// Statistic and Threshold are the winning ln P_max and its threshold.
	Statistic, Threshold float64
	// MLERate is the maximum-likelihood rate of the post-change suffix.
	MLERate float64
	// Refined marks a refinement correction (see Config.RefineAfter) rather
	// than a fresh threshold crossing.
	Refined bool
}

// blockLen is the spacing, in samples, of the block boundaries at which a
// check reads suffix sums to bound the statistic (see the package comment).
// Shorter blocks give tighter bounds but more boundary reads per check.
const blockLen = 10

// unitRoundoff is u = 2⁻⁵³, the relative rounding error bound of float64.
const unitRoundoff = 0x1p-53

// ratePair is the precomputed state of one (λo, λn) candidate pair.
type ratePair struct {
	logRatio  float64 // ln(λn/λo)
	delta     float64 // λn − λo
	threshold float64 // characterised null quantile for λn/λo
}

// Detector performs on-line change detection over a stream of interarrival
// or decoding times.
type Detector struct {
	cfg    Config
	window *stats.Window
	// cur is the index in cfg.Rates of the current rate estimate.
	cur        int
	sinceCheck int
	observed   int
	// sinceDetect counts clean post-detection samples while refinement is
	// active; -1 means no refinement pending.
	sinceDetect int
	// pairs[o*G+n] holds the (cfg.Rates[o] → cfg.Rates[n]) candidate pair,
	// G = len(cfg.Rates); the diagonal is unused.
	pairs []ratePair

	// Per-check scratch, sized for a full window in NewDetector so Observe
	// never allocates. sufs[k] = Σ_{j=k+1..n} x_j is valid at every block
	// boundary, and inside block b once filled[b] is set. bounds holds the
	// block boundaries k_0 = 0 < … < k_r = n−1; block b is
	// [bounds[b], bounds[b+1]]. slack widens the boundary sums to cover the
	// prefix ring's rounding (see checkSlack).
	sufs   []float64
	bounds []int
	filled []bool
	slack  float64

	// Observability (nil when uninstrumented — the fast path).
	tr      *obs.Tracer
	label   string
	cDetect *obs.Counter
	cRefine *obs.Counter
}

// NewDetector builds a detector starting from the given initial rate, which
// is snapped to the candidate grid. The thresholds must come from
// Characterise with the same Config; a rate ratio of the grid that they do
// not cover is an error.
func NewDetector(cfg Config, th *Thresholds, initialRate float64) (*Detector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if th == nil {
		return nil, fmt.Errorf("changepoint: nil thresholds (run Characterise first)")
	}
	if th.windowSize != cfg.WindowSize {
		return nil, fmt.Errorf("changepoint: thresholds characterised for window %d, config has %d",
			th.windowSize, cfg.WindowSize)
	}
	if initialRate <= 0 {
		return nil, fmt.Errorf("changepoint: initial rate must be positive, got %v", initialRate)
	}
	g := len(cfg.Rates)
	pairs := make([]ratePair, g*g)
	for o, lo := range cfg.Rates {
		for n, ln := range cfg.Rates {
			if o == n {
				continue
			}
			v, err := th.For(lo, ln)
			if err != nil {
				return nil, err
			}
			pairs[o*g+n] = ratePair{logRatio: math.Log(ln / lo), delta: ln - lo, threshold: v}
		}
	}
	blocks := (cfg.WindowSize-2)/blockLen + 1 // the most a check over n <= WindowSize samples uses
	return &Detector{
		cfg:         cfg,
		window:      stats.NewWindow(cfg.WindowSize),
		cur:         snapIndex(cfg.Rates, initialRate),
		sinceDetect: -1,
		pairs:       pairs,
		sufs:        make([]float64, cfg.WindowSize),
		bounds:      make([]int, 0, blocks+1),
		filled:      make([]bool, blocks),
	}, nil
}

// Instrument attaches observability to the detector: detections and
// refinements are counted in the registry under the given label (e.g.
// "arrival" or "service") and streamed to the tracer as "detect" events.
// A nil o leaves the detector uninstrumented.
func (d *Detector) Instrument(o *obs.Obs, label string) {
	if o == nil {
		return
	}
	d.tr = o.Tracer()
	d.label = label
	if r := o.Registry(); r != nil {
		d.cDetect = r.Counter("changepoint." + label + ".detections")
		d.cRefine = r.Counter("changepoint." + label + ".refinements")
	}
}

// observeDetection records one accepted detection in the observability layer.
func (d *Detector) observeDetection(det Detection) {
	if det.Refined {
		d.cRefine.Inc()
	} else {
		d.cDetect.Inc()
	}
	if d.tr != nil {
		d.tr.Emit(obs.Event{Kind: "detect", Comp: d.label,
			OldRate: det.OldRate, NewRate: det.NewRate,
			Stat: det.Statistic, Threshold: det.Threshold, Refined: det.Refined})
	}
}

// CurrentRate returns the detector's current rate estimate (a grid rate).
func (d *Detector) CurrentRate() float64 { return d.cfg.Rates[d.cur] }

// Observed returns the total number of samples seen.
func (d *Detector) Observed() int { return d.observed }

// SetRate forces the current rate (snapped to the grid) and clears the
// window; used when the power manager knows the regime changed for reasons
// outside the sample stream (e.g. a new clip started after an idle period).
func (d *Detector) SetRate(rate float64) {
	d.cur = snapIndex(d.cfg.Rates, rate)
	d.window.Reset()
	d.sinceCheck = 0
	d.sinceDetect = -1
}

// checkSlack bounds how far the computed suffix sums may stray from being
// monotone in k. Each is the difference between the stream prefix P and
// the prefix stored when the sample was pushed. A stored prefix is a
// rounded Neumaier-compensated sum of non-negative samples: within u·P of
// the exact prefix, plus at most (N·u)²·P from rounding the compensation
// term over N pushes (u = 2⁻⁵³). Each difference adds one rounding of at
// most u·P. Two computed sums whose exact values are ordered can therefore
// be inverted by at most 4u·P + 2(N·u)²·P; the slack is twice that. N is
// bounded by the samples observed plus one window of re-pushes after the
// last reset.
func (d *Detector) checkSlack() float64 {
	nu := float64(d.observed+d.window.Cap()) * unitRoundoff
	return (8*unitRoundoff + 4*nu*nu) * d.window.Prefix()
}

// loadBlocks prepares a bounded check over the n buffered samples: it lays
// out the block boundaries, reads the suffix sum at each and resets the
// per-block fill marks.
func (d *Detector) loadBlocks(n int) {
	d.bounds = d.bounds[:0]
	for k := 0; k < n-1; k += blockLen {
		d.bounds = append(d.bounds, k)
	}
	d.bounds = append(d.bounds, n-1)
	for _, k := range d.bounds {
		d.sufs[k] = d.window.SuffixSum(n - k)
	}
	clear(d.filled)
	d.slack = d.checkSlack()
}

// maxAbove returns max_k ln P(k) over the n buffered samples and its
// largest argmax for the candidate pair p, exactly as the full scan would —
// provided that maximum exceeds p.threshold. Otherwise the returned maximum
// does not exceed the threshold either (it is -Inf when no block needed
// scoring). loadBlocks must have run for this check.
func (d *Detector) maxAbove(n int, p ratePair) (best float64, bestK int) {
	best, bestK = math.Inf(-1), n
	for b := 0; b+1 < len(d.bounds); b++ {
		lo, hi := d.bounds[b], d.bounds[b+1]
		var bound float64
		if p.delta > 0 {
			bound = float64(float64(n-lo)*p.logRatio) - float64(p.delta*(d.sufs[hi]-d.slack))
		} else {
			bound = float64(float64(n-hi)*p.logRatio) - float64(p.delta*(d.sufs[lo]+d.slack))
		}
		if bound <= p.threshold {
			continue
		}
		if !d.filled[b] {
			for k := lo + 1; k < hi; k++ {
				d.sufs[k] = d.window.SuffixSum(n - k)
			}
			d.filled[b] = true
		}
		// Adjacent scored blocks both score their shared boundary; scoring
		// a point twice in a row cannot change (best, bestK).
		for k := lo; k <= hi; k++ {
			lp := float64(float64(n-k)*p.logRatio) - float64(p.delta*d.sufs[k])
			if lp >= best {
				best, bestK = lp, k
			}
		}
	}
	return best, bestK
}

// Observe feeds one interarrival (or decoding) time. It returns a Detection
// and true when a rate change is declared. Negative or non-finite samples
// are rejected with a panic — they indicate a simulator bug, not a data
// condition.
func (d *Detector) Observe(x float64) (Detection, bool) {
	if x < 0 || math.IsNaN(x) || math.IsInf(x, 0) {
		panic(fmt.Sprintf("changepoint: invalid sample %v", x))
	}
	d.window.Push(x)
	d.observed++
	d.sinceCheck++
	rates := d.cfg.Rates
	// Refinement after a recent detection (see Config.RefineAfter): every
	// RefineAfter samples, re-estimate the rate over the samples observed
	// since the detection (a clean post-change suffix — anything older may
	// predate the change, since the detection's change-point estimate is
	// imprecise) and adopt the grid snap if it disagrees. The suffix grows
	// with every pass, so the estimate sharpens until a full window has
	// accumulated and the regular mechanism takes over.
	if d.sinceDetect >= 0 {
		d.sinceDetect++
		if d.sinceDetect >= d.window.Cap() {
			d.sinceDetect = -1
		} else if d.cfg.RefineAfter > 0 && d.sinceDetect%d.cfg.RefineAfter == 0 {
			n := d.sinceDetect
			if l := d.window.Len(); l < n {
				n = l
			}
			var mle float64
			if s := d.window.SuffixSum(n); s > 0 {
				mle = float64(n) / s
			}
			if snapped := snapIndex(rates, mle); mle > 0 && snapped != d.cur {
				det := Detection{
					OldRate:      rates[d.cur],
					NewRate:      rates[snapped],
					SampleIndex:  d.observed,
					ChangeOffset: d.window.Len() - n,
					MLERate:      mle,
					Refined:      true,
				}
				d.cur = snapped
				// Adopt-and-trim, exactly like the threshold-crossing path
				// below: discard the samples that predate the original
				// detection (they may predate the change itself — the
				// change-point estimate is imprecise) and restart the check
				// cadence. Without this, the next threshold evaluation
				// scores a mixed-rate window against the newly adopted
				// rate, which both hides real follow-up changes and
				// manufactures spurious ones.
				if n < d.window.Len() {
					post := d.window.Values()
					d.window.Reset()
					for _, v := range post[len(post)-n:] {
						d.window.Push(v)
					}
				}
				d.sinceCheck = 0
				d.observeDetection(det)
				return det, true
			}
		}
	}
	if d.window.Len() < d.cfg.MinWindow || d.sinceCheck < d.cfg.CheckInterval {
		return Detection{}, false
	}
	d.sinceCheck = 0
	n := d.window.Len()
	var values []float64 // window contents; materialised lazily on the bounded path
	if d.cfg.NaiveStats {
		values = d.window.Values()
	} else {
		d.loadBlocks(n)
	}
	bestMargin := 0.0
	bestIdx := -1
	var best Detection
	g := len(rates)
	for j, cand := range rates {
		if j == d.cur {
			continue
		}
		p := d.pairs[d.cur*g+j]
		var s float64
		var k int
		if d.cfg.NaiveStats {
			s, k = logLikelihoodMax(values, rates[d.cur], cand)
		} else {
			s, k = d.maxAbove(n, p)
		}
		if margin := s - p.threshold; s > p.threshold && margin > bestMargin {
			var mle float64
			if d.cfg.NaiveStats {
				mle = stats.MeanRate(values[k:])
			} else if suf := d.sufs[k]; suf > 0 {
				mle = float64(n-k) / suf
			}
			best = Detection{
				OldRate:      rates[d.cur],
				NewRate:      cand,
				SampleIndex:  d.observed,
				ChangeOffset: k,
				Statistic:    s,
				Threshold:    p.threshold,
				MLERate:      mle,
			}
			bestMargin = margin
			bestIdx = j
		}
	}
	if bestIdx < 0 {
		return Detection{}, false
	}
	if values == nil {
		values = d.window.Values() // detections are rare; allocate only here
	}
	// Adopt the new rate and keep only the post-change samples. When the
	// suffix is long enough for a meaningful estimate, the suffix MLE picks
	// the grid rate — the threshold crossing says *that* the rate changed,
	// the suffix mean says *to what*.
	post := values[best.ChangeOffset:]
	if len(post) >= 5 && best.MLERate > 0 {
		if snapped := snapIndex(rates, best.MLERate); snapped != d.cur {
			bestIdx = snapped
			best.NewRate = rates[snapped]
		}
	}
	d.cur = bestIdx
	d.window.Reset()
	for _, v := range post {
		d.window.Push(v)
	}
	if d.cfg.RefineAfter > 0 {
		d.sinceDetect = 0
	}
	d.observeDetection(best)
	return best, true
}
