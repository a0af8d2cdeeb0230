// idempotency.go: single-flight dedup for the POST endpoints, keyed by the
// client's Idempotency-Key header.
//
// A retried request must not recompute the batch: the retry either joins
// the in-flight computation (single-flight), or replays the completed
// response bytes from a bounded LRU. Replay is byte-exact — the cached
// body is the rendered response, so a retry is indistinguishable from the
// original on the wire. Only 200s are cached: an error response describes
// a transient condition (shed, cancelled, engine failure) that a retry
// should re-attempt, so error entries are broadcast to waiting joiners and
// then forgotten.
package server

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net/http"
	"sync"
)

const (
	// DefaultIdemEntries is the completed-response LRU capacity.
	DefaultIdemEntries = 256
	// maxIdemKeyLen bounds the client-supplied Idempotency-Key header; the
	// key is an opaque token, not a payload.
	maxIdemKeyLen = 256
	// maxIdemBodyBytes bounds cached response bodies; a batch large enough
	// to exceed it is recomputed on retry rather than pinned in memory.
	maxIdemBodyBytes = 4 << 20
)

// response is one rendered HTTP answer: status, optional Retry-After, and
// the exact body bytes. It is what the idempotency cache stores and what
// every handler's compute step returns.
type response struct {
	code       int
	retryAfter string
	body       []byte
}

// Roles a request can take against the idempotency cache.
const (
	idemLead   = iota // first arrival: runs compute and publishes the result
	idemJoin          // concurrent duplicate: waits for the leader's result
	idemReplay        // later duplicate: the completed response is cached
)

// idemEntry is one key's slot: done closes once resp is final. resp is
// written under the cache mutex before completed flips and before done
// closes, so both the replay path (mutex) and the join path (channel) read
// it race-free.
type idemEntry struct {
	done      chan struct{}
	resp      response
	completed bool
}

// idemCache is the single-flight table plus a bounded FIFO of completed
// 200s. In-flight entries are never evicted — eviction only considers keys
// already in order, which holds completed entries only.
type idemCache struct {
	mu      sync.Mutex
	cap     int
	entries map[string]*idemEntry
	order   []string
}

func newIdemCache(capacity int) *idemCache {
	return &idemCache{cap: capacity, entries: make(map[string]*idemEntry)}
}

// begin claims key and reports this request's role. The returned entry is
// valid for the lifetime of the request regardless of later eviction.
func (c *idemCache) begin(key string) (*idemEntry, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[key]; ok {
		if e.completed {
			return e, idemReplay
		}
		return e, idemJoin
	}
	e := &idemEntry{done: make(chan struct{})}
	c.entries[key] = e
	return e, idemLead
}

// finish publishes the leader's response: 200s small enough to pin are
// kept for replay (evicting the oldest completed entry beyond capacity),
// everything else is broadcast to joiners and dropped.
func (c *idemCache) finish(key string, e *idemEntry, resp response) {
	c.mu.Lock()
	e.resp = resp
	e.completed = true
	if resp.code == http.StatusOK && len(resp.body) <= maxIdemBodyBytes {
		c.order = append(c.order, key)
		for len(c.order) > c.cap {
			oldest := c.order[0]
			c.order = c.order[1:]
			delete(c.entries, oldest)
		}
	} else {
		delete(c.entries, key)
	}
	c.mu.Unlock()
	close(e.done)
}

// len reports how many keys are resident (in-flight + completed).
func (c *idemCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// idemKey derives the dedup key for one request, or "" when the client
// sent no Idempotency-Key header (no dedup). The client's token is scoped
// by route and by the raw body's SHA-256, so a token reused across
// different work cannot collide and covers exactly the bytes the client
// sent. Every request field that determines the response is in those
// bytes, so no derived hash of the parsed config could split or merge two
// keys.
func idemKey(r *http.Request, route string, body []byte) (string, error) {
	hdr := r.Header.Get("Idempotency-Key")
	if hdr == "" {
		return "", nil
	}
	if len(hdr) > maxIdemKeyLen {
		return "", fmt.Errorf("Idempotency-Key exceeds %d bytes", maxIdemKeyLen)
	}
	sum := sha256.Sum256(body)
	return route + "\x00" + hdr + "\x00" + hex.EncodeToString(sum[:]), nil
}

// serveIdempotent answers r with the idempotency contract: leaders run
// compute and publish, joiners wait for the leader (or their own context),
// replayers get the cached bytes. With no key, compute runs unshared.
func (s *Server) serveIdempotent(w http.ResponseWriter, r *http.Request, rt *route, key string, compute func() response) {
	if key == "" {
		resp := compute()
		if resp.code != http.StatusOK {
			rt.failures.Inc()
		}
		writeResponse(w, resp)
		return
	}
	e, role := s.idem.begin(key)
	switch role {
	case idemReplay:
		s.cIdemReplay.Inc()
		writeResponse(w, e.resp)
	case idemJoin:
		s.cIdemJoin.Inc()
		select {
		case <-e.done:
			if e.resp.code != http.StatusOK {
				rt.failures.Inc()
			}
			writeResponse(w, e.resp)
		case <-r.Context().Done():
			rt.failures.Inc()
			s.cCanceled.Inc()
			writeCancelled(w)
		}
	default: // idemLead
		s.cIdemMiss.Inc()
		finished := false
		defer func() {
			if !finished {
				// A panic is unwinding through compute: release joiners with
				// a 500 so they never hang, then let net/http handle it.
				s.idem.finish(key, e, respJSON(http.StatusInternalServerError,
					errorResponse{Status: "error", Error: "internal error"}))
			}
		}()
		resp := compute()
		finished = true
		s.idem.finish(key, e, resp)
		if resp.code != http.StatusOK {
			rt.failures.Inc()
		}
		writeResponse(w, resp)
	}
}
