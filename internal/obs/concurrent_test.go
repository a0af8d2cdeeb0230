package obs

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// TestRegistryConcurrentWriters hammers one registry's instruments from many
// goroutines; run under -race this is the data-race proof, and the final
// totals prove no update was lost.
func TestRegistryConcurrentWriters(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("req")
	g := r.Gauge("depth")
	h := r.Histogram("lat", []float64{1, 10, 100})
	const goroutines, per = 8, 1000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				c.Inc()
				g.Set(float64(k))
				h.Observe(float64(k % 200))
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != goroutines*per {
		t.Errorf("counter = %v, want %d", got, goroutines*per)
	}
	if got := h.Count(); got != goroutines*per {
		t.Errorf("histogram count = %v, want %d", got, goroutines*per)
	}
	// Every goroutine observes 0..199 five times: Σ(k%200) per goroutine.
	if got, want := h.Sum(), float64(goroutines*5*(199*200/2)); got != want {
		t.Errorf("histogram sum = %v, want %v", got, want)
	}
	snap := r.Snapshot()
	if snap.Counters["req"] != goroutines*per {
		t.Errorf("snapshot counter = %v", snap.Counters["req"])
	}
	if hs := snap.Histograms["lat"]; hs.Count != goroutines*per || len(hs.Counts) != 4 {
		t.Errorf("snapshot histogram = %+v", hs)
	}
}

// TestRegistryConcurrentRegistration registers overlapping names from many
// goroutines while they write through the handles they get back: every
// goroutine must resolve the same instrument per name, and no update may be
// lost.
func TestRegistryConcurrentRegistration(t *testing.T) {
	r := NewRegistry()
	const goroutines, names, rounds = 4, 4, 4
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer wg.Done()
			for k := 0; k < rounds; k++ {
				for n := 0; n < names; n++ {
					name := fmt.Sprintf("c%d", n)
					r.Counter(name).Inc()
					r.Gauge(name).Set(1)
					r.Histogram(name, []float64{1}).Observe(0.5)
					r.Timer(name).Start()()
				}
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	const want = goroutines * rounds
	for n := 0; n < names; n++ {
		name := fmt.Sprintf("c%d", n)
		if got := snap.Counters[name]; got != want {
			t.Errorf("%s = %v, want %d", name, got, want)
		}
		if got := snap.Histograms[name].Count; got != want {
			t.Errorf("histogram %s count = %d, want %d", name, got, want)
		}
		if got := snap.Timers[name].Count; got != want {
			t.Errorf("timer %s count = %d, want %d", name, got, want)
		}
	}
	if len(snap.Counters) != names || len(snap.Gauges) != names {
		t.Errorf("registered %d counters / %d gauges, want %d each",
			len(snap.Counters), len(snap.Gauges), names)
	}
}

// TestSnapshotHistogramConsistent snapshots a histogram while writers
// observe into it: no snapshot may show a total that disagrees with its
// buckets.
func TestSnapshotHistogramConsistent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", []float64{1, 10})
	const goroutines, per = 4, 2000
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				h.Observe(float64(k % 20))
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for snaps := 0; ; snaps++ {
		hs := r.Snapshot().Histograms["lat"]
		var sum int64
		for _, n := range hs.Counts {
			sum += n
		}
		if hs.Count != sum {
			t.Fatalf("snapshot %d: count = %d, Σcounts = %d", snaps, hs.Count, sum)
		}
		select {
		case <-done:
			if hs := r.Snapshot().Histograms["lat"]; hs.Count != goroutines*per {
				t.Fatalf("final count = %d, want %d", hs.Count, goroutines*per)
			}
			return
		default:
		}
	}
}

// TestPhaseTimerConcurrentPhases starts and stops phases on one timer from
// many goroutines.
func TestPhaseTimerConcurrentPhases(t *testing.T) {
	r := NewRegistry()
	pt := r.Timer("phase")
	const goroutines, per = 8, 500
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer wg.Done()
			for k := 0; k < per; k++ {
				stop := pt.Start()
				stop()
			}
		}()
	}
	wg.Wait()
	if ts := r.Snapshot().Timers["phase"]; ts.Count != goroutines*per || ts.TotalS < 0 {
		t.Errorf("timer snapshot = %+v, want count %d", ts, goroutines*per)
	}
}

// TestRegistryNilSafe: every handle and method on a nil registry is a usable
// no-op, reads as zero, and renders as an empty JSON object.
func TestRegistryNilSafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x", []float64{1})
	c.Inc()
	c.Add(3)
	g.Set(7)
	h.Observe(2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Error("nil handles accumulated state")
	}
	if snap := r.Snapshot(); len(snap.Counters) != 0 {
		t.Errorf("nil snapshot = %+v", snap)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(buf.String()) != "{}" {
		t.Errorf("nil WriteJSON = %q, want {}", buf.String())
	}
}

// TestRegistrySameNameSharesInstrument: handles fetched for one name from
// different goroutines update one underlying instrument.
func TestRegistrySameNameSharesInstrument(t *testing.T) {
	r := NewRegistry()
	const goroutines = 4
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for i := 0; i < goroutines; i++ {
		go func() {
			defer wg.Done()
			r.Counter("n").Inc()
			r.Histogram("h", []float64{1}).Observe(0.5)
		}()
	}
	wg.Wait()
	a, b := r.Counter("n"), r.Counter("n")
	if a != b {
		t.Fatal("same name must return the same counter")
	}
	if got := a.Value(); got != goroutines {
		t.Errorf("shared counter = %v, want %d", got, goroutines)
	}
	if got := r.Histogram("h", nil).Count(); got != goroutines {
		t.Errorf("shared histogram count = %v, want %d", got, goroutines)
	}
}
