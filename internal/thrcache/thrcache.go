// Package thrcache is a content-addressed, versioned cache for the expensive
// off-line change-point threshold characterisation
// (changepoint.Characterise) — the Monte Carlo step the paper runs once per
// rate grid so the on-line detector stays cheap. The repository used to
// repeat it in every dvsim/sweep/test process; this cache makes it
// run-once-per-config across processes.
//
// # Keying
//
// The key is the SHA-256 of a canonical binary encoding of exactly the
// changepoint.Config fields that determine the characterisation output: a
// format version, the window size m, the confidence quantile, the number of
// null windows per ratio, the seed, and the rate grid in its given order
// (the per-ratio RNG stream assignment follows the grid's scan order, so
// order matters). Fields that cannot change the result — CheckInterval,
// MinWindow, RefineAfter, Workers (characterisation is bit-identical for any
// worker count), Obs, NaiveStats — are deliberately excluded so they can
// never cause a spurious miss.
//
// # Storage and integrity
//
// Lookups are served from an in-memory LRU first, then from the on-disk
// store: one file per key holding a SHA-256 checksum line followed by a JSON
// payload in which every float64 travels as its exact IEEE-754 bit pattern.
// Writes go to a temporary file in the cache directory, fsynced, and then
// renamed into place atomically, so a reader never observes a partial entry
// and a published entry survives a power cut; an entry that is truncated,
// corrupted, checksum-mismatched, version-skewed or keyed for a different
// config is rejected and recomputed, never returned. Store failures
// (read-only directory, full disk) silently degrade the cache to
// memory-only — caching is best-effort, correctness never depends on it.
// Temp files orphaned by a writer that crashed before its rename are
// garbage-collected the next time the cache directory is opened.
//
// All disk traffic goes through the injectable fsfault.FS seam, so every
// rejection and degradation path is regression-tested under seeded ENOSPC,
// torn-write, crash-before-rename and bit-rot fault plans.
//
// Concurrent requests for the same key share one computation (single
// flight): the first caller characterises, the rest block and receive the
// same table. CharacteriseAll resolves a batch of keys at once and
// characterises all of its misses in one stream-major pass
// (changepoint.CharacteriseAll).
//
// # Determinism
//
// Characterise is bit-deterministic for a fixed Config and the entry format
// round-trips floats exactly, so a cache hit — memory or disk — is
// bit-identical to a fresh characterisation. The package tests and the root
// golden regression assert this.
//
// This package deliberately sits OUTSIDE the deterministic core enforced by
// internal/analysis/detcheck: it owns disk I/O and observes filesystem
// state. Everything it returns is nevertheless a pure function of the Config
// by construction.
package thrcache

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"

	"smartbadge/internal/changepoint"
	"smartbadge/internal/faults/fsfault"
)

// FormatVersion is baked into both the key derivation and the on-disk entry.
// Bump it whenever the characterisation algorithm, the RNG stream layout or
// the entry format changes meaning: old entries then miss (key side) or are
// rejected (entry side) instead of silently serving stale thresholds.
const FormatVersion = 1

// DefaultMaxEntries bounds the in-memory LRU when the caller passes 0.
const DefaultMaxEntries = 64

// Stats counts cache outcomes since creation.
type Stats struct {
	// MemHits served from the in-memory LRU.
	MemHits uint64
	// DiskHits loaded (and verified) from the on-disk store.
	DiskHits uint64
	// Misses characterised from scratch.
	Misses uint64
	// Shared joined an in-flight characterisation for the same key.
	Shared uint64
	// Rejected counts on-disk entries discarded as corrupt, truncated,
	// version-skewed or mis-keyed (each also counted as a miss once
	// recomputed).
	Rejected uint64
}

// Cache memoises Characterise results. Safe for concurrent use.
type Cache struct {
	fs         fsfault.FS
	dir        string // "" = memory-only
	maxEntries int

	mu       sync.Mutex
	entries  map[string]*list.Element // key -> LRU element holding *memEntry
	order    *list.List               // front = most recently used
	inflight map[string]*flight
	stats    Stats
}

type memEntry struct {
	key string
	th  *changepoint.Thresholds
}

type flight struct {
	done chan struct{}
	th   *changepoint.Thresholds
	err  error
}

// New returns a cache backed by dir (created if missing). An empty dir makes
// the cache memory-only. maxEntries bounds the in-memory LRU; 0 selects
// DefaultMaxEntries.
func New(dir string, maxEntries int) (*Cache, error) {
	return NewFS(fsfault.OS(), dir, maxEntries)
}

// NewFS is New with an injectable filesystem seam — the hook the fault
// plans use to prove the cache's degradation paths.
func NewFS(fs fsfault.FS, dir string, maxEntries int) (*Cache, error) {
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	c := &Cache{
		fs:         fs,
		dir:        dir,
		maxEntries: maxEntries,
		entries:    make(map[string]*list.Element),
		order:      list.New(),
		inflight:   make(map[string]*flight),
	}
	if dir != "" {
		if err := fs.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("thrcache: %w", err)
		}
		c.collectOrphans()
	}
	return c, nil
}

// collectOrphans removes tmp-* files left behind by writers that crashed
// between CreateTemp and their rename. Published entries are never
// touched; failures are ignored (best-effort, like the stores that
// created the orphans).
func (c *Cache) collectOrphans() {
	names, err := c.fs.ReadDirNames(c.dir)
	if err != nil {
		return
	}
	for _, name := range names {
		if strings.HasPrefix(name, "tmp-") {
			c.fs.Remove(filepath.Join(c.dir, name))
		}
	}
}

// Memory returns a memory-only cache (in-process memoisation with single
// flight, no disk).
func Memory() *Cache {
	c, err := New("", 0)
	if err != nil {
		panic(err) // unreachable: New("" ,0) cannot fail
	}
	return c
}

// Open resolves a -thr-cache flag value:
//
//	"", "off"  memory-only (the escape hatch: never touches disk)
//	"auto"     the per-user default directory (os.UserCacheDir()/
//	           smartbadge/thresholds); memory-only if no user cache
//	           directory can be determined
//	anything   that directory
func Open(spec string) (*Cache, error) {
	switch strings.ToLower(strings.TrimSpace(spec)) {
	case "", "off":
		return Memory(), nil
	case "auto":
		base, err := os.UserCacheDir()
		if err != nil {
			return Memory(), nil
		}
		return New(filepath.Join(base, "smartbadge", "thresholds"), 0)
	default:
		return New(spec, 0)
	}
}

// Dir returns the on-disk store directory ("" for a memory-only cache).
func (c *Cache) Dir() string { return c.dir }

// Stats returns a snapshot of the outcome counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// Key derives the content-addressed cache key for cfg (validating it first).
// See the package comment for what is — and is deliberately not — keyed.
func Key(cfg changepoint.Config) (string, error) {
	if err := cfg.Validate(); err != nil {
		return "", err
	}
	h := sha256.New()
	var b [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(b[:], u)
		h.Write(b[:])
	}
	put(FormatVersion)
	put(uint64(cfg.WindowSize))
	put(math.Float64bits(cfg.Confidence))
	put(uint64(cfg.CharacterisationWindows))
	put(cfg.Seed)
	put(uint64(len(cfg.Rates)))
	for _, r := range cfg.Rates {
		put(math.Float64bits(r))
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Characterise returns the threshold table for cfg, from cache when
// possible: CharacteriseAll of one config. The returned *Thresholds is
// shared and must be treated as read-only (its API is). Hits are
// bit-identical to a fresh changepoint.Characterise(cfg).
func (c *Cache) Characterise(cfg changepoint.Config) (*changepoint.Thresholds, error) {
	ths, err := c.CharacteriseAll([]changepoint.Config{cfg})
	if err != nil {
		return nil, err
	}
	return ths[0], nil
}

// CharacteriseAll returns the threshold tables for cfgs, in order, from
// cache when possible. Under one lock acquisition each key becomes a memory
// hit, a join of a characterisation already in flight (another caller's,
// or an earlier duplicate in this batch), or a flight this call owns. The
// owned keys are then loaded from disk where possible, and the rest are
// characterised together in one changepoint.CharacteriseAll pass, so keys
// sharing a null sample draw it once. An invalid config fails the batch
// before any flight is registered. A failed pass fails every flight it
// owned with the pass's error, so one config that fails characterisation
// fails every key this call computes, and a concurrent Characterise caller
// that joined one of those flights receives that other config's error.
// The one caller, dvsimd's warm start, runs before the daemon serves, so
// no request can join its flights.
func (c *Cache) CharacteriseAll(cfgs []changepoint.Config) ([]*changepoint.Thresholds, error) {
	keys := make([]string, len(cfgs))
	for i, cfg := range cfgs {
		key, err := Key(cfg)
		if err != nil {
			return nil, err
		}
		keys[i] = key
	}
	out := make([]*changepoint.Thresholds, len(cfgs))
	flights := make([]*flight, len(cfgs)) // nil for memory hits
	var (
		ownedKeys    []string
		ownedCfgs    []changepoint.Config
		ownedFlights []*flight
	)
	c.mu.Lock()
	for i, key := range keys {
		th, fl, owned := c.lookupLocked(key)
		out[i], flights[i] = th, fl
		if owned {
			ownedKeys = append(ownedKeys, key)
			ownedCfgs = append(ownedCfgs, cfgs[i])
			ownedFlights = append(ownedFlights, fl)
		}
	}
	c.mu.Unlock()

	if len(ownedKeys) > 0 {
		c.fill(ownedKeys, ownedCfgs, ownedFlights)
	}
	for i, fl := range flights {
		if fl == nil {
			continue
		}
		<-fl.done
		if fl.err != nil {
			return nil, fl.err
		}
		out[i] = fl.th
	}
	return out, nil
}

// lookupLocked resolves key under c.mu. A memory hit returns its table.
// Otherwise it returns the flight to wait on: one already in flight, or a
// new one that owned reports the caller must fill.
func (c *Cache) lookupLocked(key string) (th *changepoint.Thresholds, fl *flight, owned bool) {
	if el, ok := c.entries[key]; ok {
		c.order.MoveToFront(el)
		c.stats.MemHits++
		return el.Value.(*memEntry).th, nil, false
	}
	if fl, ok := c.inflight[key]; ok {
		c.stats.Shared++
		return nil, fl, false
	}
	fl = &flight{done: make(chan struct{})}
	c.inflight[key] = fl
	return nil, fl, true
}

// fill resolves the keys whose flights the caller owns: disk loads first,
// then one characterisation pass over the rest, each stored best-effort.
// It runs outside the cache lock (this is the slow path the single flight
// protects) and closes every flight.
func (c *Cache) fill(keys []string, cfgs []changepoint.Config, flights []*flight) {
	ths := make([]*changepoint.Thresholds, len(keys))
	fromDisk := make([]bool, len(keys))
	var (
		rejected uint64
		todo     []int // indices left to characterise
		todoCfgs []changepoint.Config
	)
	for i, key := range keys {
		if c.dir != "" {
			th, ok, rej := c.load(key)
			rejected += rej
			if ok {
				ths[i], fromDisk[i] = th, true
				continue
			}
		}
		todo = append(todo, i)
		todoCfgs = append(todoCfgs, cfgs[i])
	}
	var err error
	if len(todo) > 0 {
		var fresh []*changepoint.Thresholds
		if fresh, err = changepoint.CharacteriseAll(todoCfgs); err == nil {
			for q, i := range todo {
				ths[i] = fresh[q]
				if c.dir != "" {
					c.store(keys[i], fresh[q]) // best-effort; see package comment
				}
			}
		}
	}

	c.mu.Lock()
	c.stats.Rejected += rejected
	for i, key := range keys {
		delete(c.inflight, key)
		switch {
		case ths[i] == nil: // the failed pass
		case fromDisk[i]:
			c.stats.DiskHits++
			c.insertLocked(key, ths[i])
		default:
			c.stats.Misses++
			c.insertLocked(key, ths[i])
		}
	}
	c.mu.Unlock()

	for i, fl := range flights {
		fl.th = ths[i]
		if fl.th == nil {
			fl.err = err
		}
		close(fl.done)
	}
}

// insertLocked adds the entry to the LRU, evicting from the back past
// maxEntries. Caller holds c.mu.
func (c *Cache) insertLocked(key string, th *changepoint.Thresholds) {
	if el, ok := c.entries[key]; ok { // lost a race with a later fill: refresh
		el.Value.(*memEntry).th = th
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&memEntry{key: key, th: th})
	for c.order.Len() > c.maxEntries {
		back := c.order.Back()
		c.order.Remove(back)
		delete(c.entries, back.Value.(*memEntry).key)
	}
}

// diskEntry is the JSON payload of one on-disk entry. Every float64 is
// carried as the 16-hex-digit big-endian rendering of its IEEE-754 bits so
// the round trip is exact by construction, independent of any formatter.
type diskEntry struct {
	Version        int      `json:"version"`
	Key            string   `json:"key"`
	WindowSize     int      `json:"window_size"`
	ConfidenceBits string   `json:"confidence_bits"`
	RatioBits      []string `json:"ratio_bits"`
	ValueBits      []string `json:"value_bits"`
}

const checksumPrefix = "sha256 "

// checksumLine renders the integrity header (without trailing newline) for a
// payload.
func checksumLine(payload []byte) string {
	return checksumPrefix + fmt.Sprintf("%x", sha256.Sum256(payload))
}

func (c *Cache) path(key string) string {
	return filepath.Join(c.dir, key+".thr.json")
}

func floatBits(f float64) string {
	return fmt.Sprintf("%016x", math.Float64bits(f))
}

func parseBits(s string) (float64, bool) {
	if len(s) != 16 {
		return 0, false
	}
	u, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, false
	}
	return math.Float64frombits(u), true
}

// load reads and verifies the on-disk entry for key. A missing file is a
// plain miss; anything present-but-invalid counts in rejected.
func (c *Cache) load(key string) (th *changepoint.Thresholds, ok bool, rejected uint64) {
	data, err := c.fs.ReadFile(c.path(key))
	if err != nil {
		return nil, false, 0
	}
	reject := func() (*changepoint.Thresholds, bool, uint64) { return nil, false, 1 }
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return reject()
	}
	header, payload := string(data[:nl]), data[nl+1:]
	if header != checksumLine(payload) {
		return reject()
	}
	var e diskEntry
	if json.Unmarshal(payload, &e) != nil {
		return reject()
	}
	if e.Version != FormatVersion || e.Key != key {
		return reject()
	}
	conf, okc := parseBits(e.ConfidenceBits)
	if !okc || len(e.RatioBits) != len(e.ValueBits) {
		return reject()
	}
	set := changepoint.ThresholdSet{
		WindowSize: e.WindowSize,
		Confidence: conf,
		Ratios:     make([]float64, len(e.RatioBits)),
		Values:     make([]float64, len(e.ValueBits)),
	}
	for i := range e.RatioBits {
		r, okr := parseBits(e.RatioBits[i])
		v, okv := parseBits(e.ValueBits[i])
		if !okr || !okv {
			return reject()
		}
		set.Ratios[i], set.Values[i] = r, v
	}
	restored, err := changepoint.RestoreThresholds(set)
	if err != nil {
		return reject()
	}
	return restored, true, 0
}

// store writes the entry atomically: temp file in the cache directory,
// fsync, then rename — the fsync before the rename is what makes the
// published entry durable across a power cut rather than just atomic
// against concurrent readers. Errors are swallowed — a failed store leaves
// the cache memory-only for this entry, it never corrupts the store
// (rename is atomic) or the caller (the in-memory table is already
// correct); any temp file it strands is collected on the next open.
func (c *Cache) store(key string, th *changepoint.Thresholds) {
	snap := th.Snapshot()
	e := diskEntry{
		Version:        FormatVersion,
		Key:            key,
		WindowSize:     snap.WindowSize,
		ConfidenceBits: floatBits(snap.Confidence),
		RatioBits:      make([]string, len(snap.Ratios)),
		ValueBits:      make([]string, len(snap.Values)),
	}
	for i := range snap.Ratios {
		e.RatioBits[i] = floatBits(snap.Ratios[i])
		e.ValueBits[i] = floatBits(snap.Values[i])
	}
	payload, err := json.Marshal(e)
	if err != nil {
		return
	}
	tmp, err := c.fs.CreateTemp(c.dir, "tmp-*")
	if err != nil {
		return
	}
	_, werr := tmp.Write([]byte(checksumLine(payload) + "\n"))
	if werr == nil {
		_, werr = tmp.Write(payload)
	}
	if werr == nil {
		werr = tmp.Sync()
	}
	cerr := tmp.Close()
	if werr != nil || cerr != nil || c.fs.Rename(tmp.Name(), c.path(key)) != nil {
		c.fs.Remove(tmp.Name())
	}
}
