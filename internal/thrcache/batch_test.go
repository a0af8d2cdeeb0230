package thrcache

import (
	"reflect"
	"sync"
	"testing"
	"time"

	"smartbadge/internal/changepoint"
)

// batchConfigs returns n distinct keys that share one null sample (same
// seed, window size and window count; different grids), so a batch of them
// is one stream-major pass.
func batchConfigs(n int) []changepoint.Config {
	cfgs := make([]changepoint.Config, n)
	for i := range cfgs {
		cfg := testConfig(5)
		cfg.Rates = []float64{10, 20, 40, float64(50 + 10*i)}
		cfgs[i] = cfg
	}
	return cfgs
}

// TestBatchSingleFlight: single-key calls racing a batch over the same keys
// join its flights (or hit memory once it has finished). Every key is
// characterised exactly once and every caller gets the batch's table.
func TestBatchSingleFlight(t *testing.T) {
	c := Memory()
	cfgs := batchConfigs(4)
	const singles = 12
	var (
		wg      sync.WaitGroup
		release = make(chan struct{})
		batch   []*changepoint.Thresholds
		got     = make([]*changepoint.Thresholds, singles)
	)
	wg.Add(1 + singles)
	go func() {
		defer wg.Done()
		<-release
		var err error
		if batch, err = c.CharacteriseAll(cfgs); err != nil {
			t.Error(err)
		}
	}()
	for i := 0; i < singles; i++ {
		go func() {
			defer wg.Done()
			<-release
			th, err := c.Characterise(cfgs[i%len(cfgs)])
			if err != nil {
				t.Error(err)
			}
			got[i] = th
		}()
	}
	close(release)
	wg.Wait()
	if t.Failed() {
		return
	}
	st := c.Stats()
	if st.Misses != uint64(len(cfgs)) {
		t.Errorf("misses = %d, want %d (one characterisation per key)", st.Misses, len(cfgs))
	}
	if st.Misses+st.Shared+st.MemHits != uint64(len(cfgs)+singles) {
		t.Errorf("stats %+v don't account for %d batch keys and %d single calls", st, len(cfgs), singles)
	}
	for i, th := range got {
		if th != batch[i%len(cfgs)] {
			t.Errorf("single call %d got a different table instance than the batch", i)
		}
	}
	fresh, err := changepoint.CharacteriseAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if !reflect.DeepEqual(batch[i].Snapshot(), fresh[i].Snapshot()) {
			t.Errorf("key %d: cached table differs from a fresh characterisation", i)
		}
	}
}

// TestBatchResolvesMemoryAndDiskFirst: a batch with one key in memory and
// one on disk characterises only the others; a key repeated within the
// batch joins its first occurrence.
func TestBatchResolvesMemoryAndDiskFirst(t *testing.T) {
	dir := t.TempDir()
	cfgs := batchConfigs(4)
	writer, err := New(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Characterise(cfgs[0]); err != nil { // on disk
		t.Fatal(err)
	}
	c, err := New(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	memTable, err := c.Characterise(cfgs[1]) // in memory (and on disk)
	if err != nil {
		t.Fatal(err)
	}
	before := c.Stats()

	ths, err := c.CharacteriseAll(append(cfgs, cfgs[3]))
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	delta := Stats{
		MemHits:  st.MemHits - before.MemHits,
		DiskHits: st.DiskHits - before.DiskHits,
		Misses:   st.Misses - before.Misses,
		Shared:   st.Shared - before.Shared,
	}
	if want := (Stats{MemHits: 1, DiskHits: 1, Misses: 2, Shared: 1}); delta != want {
		t.Errorf("batch stats = %+v, want %+v", delta, want)
	}
	if ths[1] != memTable {
		t.Error("memory hit returned a different table instance")
	}
	if ths[4] != ths[3] {
		t.Error("repeated key got a different table instance")
	}
	fresh, err := changepoint.CharacteriseAll(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cfgs {
		if !reflect.DeepEqual(ths[i].Snapshot(), fresh[i].Snapshot()) {
			t.Errorf("key %d: batch result differs from a fresh characterisation", i)
		}
	}
}

// TestBatchInvalidConfigRegistersNoFlight: an invalid config fails the
// batch before any flight is registered, so a later call for a valid key
// of that batch characterises instead of blocking.
func TestBatchInvalidConfigRegistersNoFlight(t *testing.T) {
	c := Memory()
	good := testConfig(9)
	bad := testConfig(9)
	bad.Rates = []float64{10}
	if _, err := c.CharacteriseAll([]changepoint.Config{good, bad}); err == nil {
		t.Fatal("batch with an invalid config accepted")
	}
	c.mu.Lock()
	inflight := len(c.inflight)
	c.mu.Unlock()
	if inflight != 0 {
		t.Fatalf("%d flights left registered after a rejected batch", inflight)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Characterise(good)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("follow-up call blocked on a flight the rejected batch left behind")
	}
	if st := c.Stats(); st.Misses != 1 || st.Shared != 0 {
		t.Errorf("stats = %+v, want one miss and no shared flight", st)
	}
}
