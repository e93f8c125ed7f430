package archive

import (
	"bytes"
	"compress/gzip"
	"container/list"
	"errors"
	"io"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// resultCache is a small LRU over query results, keyed on the canonical
// (filter, window) string. Every entry records the store generation it
// was computed at (tsdb.DB.Generation, which any stored point moves) and
// the store's swap epoch. A hit is served only while both are unchanged,
// so the cache can never return stale data: any stored point, or a store
// swap, invalidates every entry. A finer guard would keep nothing on the
// traffic served here: a collector tick writes to every shard, and a
// catalog sweep or region slice reads from every shard.
//
// An entry also holds what a client actually receives: the gzip'd JSON
// body of its value, encoded by the first response that serves it and
// written as-is by every later one (see gzipBody). The bytes live and die
// with the entry, so the guard that keeps values fresh keeps them fresh.
type resultCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[string]*list.Element
	// hits, miss and inval are cache.hits, cache.misses and
	// cache.invalidations (an entry evicted because a point was stored
	// or the store swapped since it was computed; a subset of misses).
	hits  obs.Counter
	miss  obs.Counter
	inval obs.Counter
	// bodyHits counts responses written from an entry's stored bytes,
	// i.e. without running the encoder.
	bodyHits obs.Counter
}

type cacheEntry struct {
	key string
	// epoch is the service's store epoch the entry was computed under
	// (bumped whenever SwapDB installs a new store), and gen that store's
	// generation when the computation began. A freshly opened replica
	// restarts its generation, so an entry from another epoch is stale by
	// definition, even if the two counters happen to collide.
	epoch, gen uint64
	val        any

	// body is val's response body, gzip'd, and plainLen its length before
	// compression; bodyLen repeats body's length for the body-bytes gauge,
	// which reads entries it does not serve.
	bodyOnce sync.Once
	body     []byte
	plainLen int
	bodyErr  error
	bodyLen  atomic.Int64
}

func newResultCache(capacity int) *resultCache {
	return &resultCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

// bodyScratch is what building one stored body works in: the JSON as the
// encoder wrote it and its compressed form. Pooled, so that a build
// allocates the entry's exact-size copy of the latter and nothing else.
type bodyScratch struct{ plain, wire bytes.Buffer }

var bodyScratchPool = sync.Pool{New: func() any { return new(bodyScratch) }}

// gzipBody returns the entry's stored response body, running encode and
// compressing what it wrote (in one Write, so the compressor sees whole
// windows) to build it on the first call; concurrent first calls wait for
// that one encode. built reports whether this call ran the encoder. A
// failed encode stores no bytes and every call reports the error: the
// value cannot be rendered, now or later.
func (e *cacheEntry) gzipBody(encode func(io.Writer) error) (body []byte, built bool, err error) {
	e.bodyOnce.Do(func() {
		built = true
		// Stands if encode panics out of the Once.
		e.bodyErr = errors.New("archive: response encoder aborted")
		sc := bodyScratchPool.Get().(*bodyScratch)
		defer bodyScratchPool.Put(sc)
		sc.plain.Reset()
		sc.wire.Reset()
		if e.bodyErr = encode(&sc.plain); e.bodyErr != nil {
			return
		}
		gz := gzipPool.Get().(*gzip.Writer)
		defer gzipPool.Put(gz)
		gz.Reset(&sc.wire)
		_, _ = gz.Write(sc.plain.Bytes()) // a failed write is Close's error too
		if e.bodyErr = gz.Close(); e.bodyErr != nil {
			return
		}
		e.body = bytes.Clone(sc.wire.Bytes())
		e.plainLen = sc.plain.Len()
		e.bodyLen.Store(int64(len(e.body)))
	})
	return e.body, built, e.bodyErr
}

// get returns the entry cached for key if it was computed at the given
// store epoch and generation, else nil; stale entries are evicted on
// sight and counted as invalidations.
func (c *resultCache) get(key string, epoch, gen uint64) *cacheEntry {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.miss.Add(1)
		return nil
	}
	e := el.Value.(*cacheEntry)
	if e.epoch != epoch || e.gen != gen {
		c.ll.Remove(el)
		delete(c.m, key)
		c.inval.Add(1)
		c.miss.Add(1)
		return nil
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return e
}

// put installs a fresh entry for key and returns it. An entry already
// under the key is replaced, never updated in place: requests may still
// be serving it, and its stored body must not outlive the value and
// generation it was encoded from.
func (c *resultCache) put(key string, epoch, gen uint64, val any) *cacheEntry {
	e := &cacheEntry{key: key, epoch: epoch, gen: gen, val: val}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.Remove(el)
	}
	c.m[key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.m, el.Value.(*cacheEntry).key)
	}
	return e
}

// purge drops every entry. SwapDB calls it so results computed against a
// replaced store free their memory immediately; the epoch check in get
// is what guarantees correctness for entries a racing put adds afterward.
func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ll.Init()
	clear(c.m)
}

// entries reports how many entries the cache holds.
func (c *resultCache) entries() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// bodyBytes reports the total length of the bodies stored on the
// cache's entries.
func (c *resultCache) bodyBytes() (n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for el := c.ll.Front(); el != nil; el = el.Next() {
		n += el.Value.(*cacheEntry).bodyLen.Load()
	}
	return n
}
