package archive

// Singleflight coalescing for cold queries.
//
// Identical requests that miss the result cache at the same moment would
// each fan out over the store and compute the same answer — at "spot
// availability probing" scale (many clients polling the same endpoint in
// tight loops) a single slow broad query multiplies into one store scan
// per client. The flight group collapses them: the first caller for a
// key (the same canonical cacheKey the result cache uses) becomes the
// leader and computes; every caller that arrives while the computation
// is in flight blocks until the leader finishes and shares its result,
// its error, and — because the leader's compute closure captures the
// store generation and publishes through the cache — its generation
// capture and the cache entry it installed, so the HTTP layer encodes
// the shared result once too. Coalesced callers are counted in
// spotlake_cache_coalesced_total, a subset of the misses, so store
// computations = misses - coalesced.

import (
	"fmt"
	"sync"

	"repro/internal/obs"
)

// flightCall is one in-flight leader computation plus everyone waiting
// on it.
type flightCall struct {
	done    chan struct{}
	waiters int
	val     any
	entry   *cacheEntry // nil when val was too large to cache
	err     error
}

// flightGroup deduplicates concurrent computations by key. Unlike a
// cache it holds no results: an entry exists only while its leader is
// computing, so a key that completes and is requested again computes
// again (and normally hits the result cache instead).
type flightGroup struct {
	mu        sync.Mutex
	inflight  map[string]*flightCall
	coalesced obs.Counter

	// leaderBarrier, when set (tests only), runs in the leader's
	// goroutine before compute — a seam for holding a computation open
	// until followers have provably coalesced onto it.
	leaderBarrier func(key string)
}

// do runs compute under singleflight on key: the first caller computes,
// concurrent callers for the same key wait and share the outcome.
func (g *flightGroup) do(key string, compute func() (any, *cacheEntry, error)) (any, *cacheEntry, error) {
	g.mu.Lock()
	if g.inflight == nil {
		g.inflight = make(map[string]*flightCall)
	}
	if c, ok := g.inflight[key]; ok {
		c.waiters++
		g.mu.Unlock()
		g.coalesced.Add(1)
		<-c.done
		return c.val, c.entry, c.err
	}
	c := &flightCall{done: make(chan struct{})}
	g.inflight[key] = c
	g.mu.Unlock()

	// The entry must be cleared and followers released even when compute
	// panics (the panic propagates to this caller's recover/abort
	// machinery; followers get an error rather than blocking forever).
	finished := false
	defer func() {
		if !finished {
			c.err = fmt.Errorf("archive: in-flight query leader aborted")
		}
		g.mu.Lock()
		delete(g.inflight, key)
		g.mu.Unlock()
		close(c.done)
	}()
	if g.leaderBarrier != nil {
		g.leaderBarrier(key)
	}
	c.val, c.entry, c.err = compute()
	finished = true
	return c.val, c.entry, c.err
}

// waiters reports how many callers are currently coalesced onto key's
// in-flight computation (0 when no computation is in flight).
func (g *flightGroup) waiters(key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if c, ok := g.inflight[key]; ok {
		return c.waiters
	}
	return 0
}
