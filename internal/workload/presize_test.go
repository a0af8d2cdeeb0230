package workload_test

import (
	"reflect"
	"testing"

	"smartbadge/internal/experiments"
	"smartbadge/internal/stats"
	"smartbadge/internal/workload"
)

// appendGenerate is Generate without the up-front frame reservation: the
// reference the presized generator must reproduce exactly.
func appendGenerate(rng *stats.RNG, clips []workload.Clip, opts workload.GenerateOptions) (*workload.Trace, error) {
	tr := &workload.Trace{Kind: clips[0].Kind, Clips: clips}
	now := 0.0
	for ci, clip := range clips {
		if err := clip.Validate(); err != nil {
			return nil, err
		}
		if ci > 0 && opts.Gap != nil {
			g := opts.Gap.Sample(rng)
			tr.IdleGaps = append(tr.IdleGaps, g)
			now += g
		}
		gop := normalised(clip.GOP)
		gopPos := 0
		for si, seg := range clip.Segments {
			tr.Changes = append(tr.Changes, workload.RateChange{
				Time:              now,
				ArrivalRate:       seg.ArrivalRate,
				DecodeRateMax:     seg.DecodeRateMax,
				ClipIndex:         ci,
				SegmentIndex:      si,
				FirstFrameOfRange: len(tr.Frames),
			})
			segEnd := now + seg.Duration
			for {
				gap := rng.Exp(seg.ArrivalRate)
				if now+gap > segEnd {
					now = segEnd
					break
				}
				now += gap
				work := rng.Exp(seg.DecodeRateMax)
				if len(gop) > 0 {
					work *= gop[gopPos%len(gop)]
					gopPos++
				}
				tr.Frames = append(tr.Frames, workload.TraceFrame{
					Seq:               len(tr.Frames),
					Arrival:           now,
					Work:              work,
					ClipIndex:         ci,
					TrueArrivalRate:   seg.ArrivalRate,
					TrueDecodeRateMax: seg.DecodeRateMax,
				})
			}
		}
	}
	tr.Duration = tr.Frames[len(tr.Frames)-1].Arrival
	return tr, nil
}

func normalised(gop []float64) []float64 {
	if len(gop) == 0 {
		return nil
	}
	sum := 0.0
	for _, m := range gop {
		sum += m
	}
	mean := sum / float64(len(gop))
	out := make([]float64, len(gop))
	for i, m := range gop {
		out[i] = m / mean
	}
	return out
}

// TestGeneratePresizedMatchesAppended: reserving the frame slice up front
// changes only its capacity, never the trace — for the MP3 sequence, the
// MPEG clips and the Table 5 mixed workload with its idle gaps.
func TestGeneratePresizedMatchesAppended(t *testing.T) {
	mp3, err := workload.MP3Sequence("ACEFBD")
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		for _, tc := range []struct {
			name  string
			clips []workload.Clip
		}{
			{"mp3", mp3},
			{"mpeg", workload.MPEGClips()},
		} {
			got, err := workload.Generate(stats.NewRNG(seed), tc.clips, workload.GenerateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			want, err := appendGenerate(stats.NewRNG(seed), tc.clips, workload.GenerateOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s seed %d: presized trace differs from appended one", tc.name, seed)
			}
		}
		got, err := experiments.Table5Workload(seed)
		if err != nil {
			t.Fatal(err)
		}
		want, err := appendGenerate(stats.NewRNG(seed), got.Clips,
			workload.GenerateOptions{Gap: experiments.Table5GapDistribution()})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("table5 seed %d: presized trace differs from appended one", seed)
		}
	}
}

// benchTrace keeps the benchmark result live.
var benchTrace *workload.Trace

// BenchmarkGenerate times trace generation for the MPEG clips, the largest
// per-badge trace of the default mix. One op is one Generate.
func BenchmarkGenerate(b *testing.B) {
	clips := workload.MPEGClips()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr, err := workload.Generate(stats.NewRNG(uint64(i)), clips, workload.GenerateOptions{})
		if err != nil {
			b.Fatal(err)
		}
		benchTrace = tr
	}
	b.ReportMetric(float64(len(benchTrace.Frames)), "frames")
}
