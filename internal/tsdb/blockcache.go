package tsdb

// blockCache is the store-wide, size-bounded LRU over decoded cold
// blocks. It holds whole blocks only, each admitted by a full decode: a
// window scan touching B blocks costs B decodes the first time and map
// lookups afterwards. A read whose window ends inside a block it misses
// may decode just the block's prefix through that end (coldBlockPoints);
// such a prefix serves that one read and is never admitted, so a block
// that reads only ever cut short cannot churn whole blocks out. The bound
// is in bytes of decoded samples, 16 per point, which is their real
// resident cost: a sample is unix-nanos plus the float64, with no
// pointer, so the GC never scans a cached block either.
//
// The cache is keyed by (block file sequence, block offset): block
// files are immutable and never reused under the same sequence number,
// so an entry can never go stale — eviction exists purely for the size
// bound. Entries are whole decoded []sample slices shared read-only by
// every reader (callers must not mutate them). A singleflight per key
// is deliberately absent: duplicate concurrent decodes of one block
// are harmless (last store wins) and rarer than the lock traffic a
// per-key wait channel would add on every hit.

import (
	"container/list"
	"sync"
	"time"

	"repro/internal/obs"
)

// DefaultBlockCacheBytes is the block cache's size bound when Options
// leaves BlockCacheBytes zero: ~4M decoded cold points at 16 bytes each,
// about 64 MiB resident.
const DefaultBlockCacheBytes = 64 << 20

// sampleBytes is one decoded sample's resident size, the cache's charge
// per point.
const sampleBytes = 16

type blockCacheKey struct {
	seq uint64
	off uint64
}

type blockCacheEntry struct {
	key  blockCacheKey
	pts  []sample
	cost int64
}

type blockCache struct {
	mu    sync.Mutex
	max   int64
	size  int64
	lru   *list.List // front = most recent
	index map[blockCacheKey]*list.Element

	hits      obs.Counter
	misses    obs.Counter
	evictions obs.Counter
	// The decode stage: each miss observes its block's read, CRC check
	// and decode once — a full decode or a window's prefix — as does each
	// read's decode of a block held in memory, and counts the points it
	// decoded.
	decodeTime *obs.Histogram
	decoded    obs.Counter
}

// blockDecodeBuckets span one block decode, ≈ 10–15 µs for an
// archive-shaped 512-point block, up to a slow disk read.
var blockDecodeBuckets = []float64{5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4, 1e-3, 5e-3}

// newBlockCache builds a cache bounded to max bytes of decoded points.
// max <= 0 disables caching: every cold read decodes its blocks.
func newBlockCache(max int64) *blockCache {
	return &blockCache{max: max, lru: list.New(), index: make(map[blockCacheKey]*list.Element),
		decodeTime: obs.NewHistogram(blockDecodeBuckets)}
}

func (c *blockCache) get(key blockCacheKey) ([]sample, bool) {
	if c.max <= 0 {
		c.misses.Add(1)
		return nil, false
	}
	c.mu.Lock()
	el, ok := c.index[key]
	if ok {
		c.lru.MoveToFront(el)
	}
	c.mu.Unlock()
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	return el.Value.(*blockCacheEntry).pts, true
}

func (c *blockCache) put(key blockCacheKey, pts []sample) {
	if c.max <= 0 {
		return
	}
	cost := int64(len(pts)) * sampleBytes
	if cost > c.max {
		return // a block larger than the whole budget would just thrash
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.index[key]; ok {
		// A concurrent decode of the same immutable block landed first;
		// keep it.
		c.lru.MoveToFront(el)
		return
	}
	c.index[key] = c.lru.PushFront(&blockCacheEntry{key: key, pts: pts, cost: cost})
	c.size += cost
	for c.size > c.max {
		last := c.lru.Back()
		if last == nil {
			break
		}
		ent := last.Value.(*blockCacheEntry)
		c.lru.Remove(last)
		delete(c.index, ent.key)
		c.size -= ent.cost
		c.evictions.Add(1)
	}
}

// coldRead is one read's state over the cold tier, kept on the read's
// stack. horizon is the latest timestamp any of the read's searches or
// copies needs (noHorizon for reads that want whole blocks): every
// search predicate the read asks is true of the first point past it.
// The one-slot memo (b, pts) keeps the last block the read fetched, so
// a boundary block that two searches and the copy all land on is
// fetched, and decoded, once per read. buf is the pooled storage of its
// window decodes, which release returns once the read is done with pts.
type coldRead struct {
	horizon int64
	b       *blockMeta
	pts     []sample
	buf     *[]sample
}

// windowBufs recycles window decodes' storage: a window's prefix lives
// only as long as the read that decoded it.
var windowBufs = sync.Pool{New: func() any { return new([]sample) }}

// window returns the read's pooled window-decode storage, with room for
// count points.
func (r *coldRead) window(count uint32) []sample {
	if r.buf == nil {
		r.buf = windowBufs.Get().(*[]sample)
	}
	if cap(*r.buf) < int(count) {
		*r.buf = make([]sample, count)
	}
	return *r.buf
}

// release returns the read's window-decode storage to the pool.
func (r *coldRead) release() {
	if r.buf != nil {
		windowBufs.Put(r.buf)
		r.buf = nil
	}
}

// coldBlockPoints returns block b's decoded points for read r: from r's
// memo, else the cache, else the block file. The returned slice is shared
// and must not be mutated, nor used past r's next fetch or release.
//
// A block held in memory (one of the checkpoint's unsealed blocks)
// decodes through r's horizon into r's window storage and bypasses the
// cache: its bytes are resident already, and a decoded copy would cost
// five times their memory.
//
// A miss reads the whole block and checks its CRC. When r's window ends
// inside the block (r.horizon < maxAt) and this process has decoded the
// block in full before, decoding stops at the first point past the
// horizon; that prefix goes to r alone, never to the cache. Otherwise
// the block decodes in full, which sets its decoded bit and admits it —
// so a block's first read in a process always runs the trailing-data
// check that a window decode skips.
//
// Decode failures (bit rot, a vanished file) are surfaced to the caller;
// read paths count them and fail the read with ErrColdRead rather than
// serve a partial result — see coldReadErr.
func (db *DB) coldBlockPoints(b *blockMeta, r *coldRead) ([]sample, error) {
	if r.b == b {
		return r.pts, nil
	}
	if b.seg.f == nil {
		start := time.Now()
		pts, err := decodeBlock(r.window(b.count), b.memBytes(), int(b.count), r.horizon)
		if err != nil {
			return nil, err
		}
		db.observeDecode(start, len(pts))
		r.b, r.pts = b, pts
		return pts, nil
	}
	key := blockCacheKey{seq: b.seg.seq, off: b.off}
	pts, ok := db.bcache.get(key)
	if !ok {
		window := r.horizon < b.maxAt && b.seg.decodedInFull(b.ord)
		var dst []sample
		horizon := noHorizon
		if window {
			dst, horizon = r.window(b.count), r.horizon
		}
		start := time.Now()
		var err error
		if pts, err = readBlockData(b.seg.f, b, dst, horizon); err != nil {
			return nil, err
		}
		db.observeDecode(start, len(pts))
		if !window {
			b.seg.markDecoded(b.ord)
			db.bcache.put(key, pts)
		}
	}
	r.b, r.pts = b, pts
	return pts, nil
}

// observeDecode records one read's block decode that began at start and
// decoded n points.
func (db *DB) observeDecode(start time.Time, n int) {
	db.bcache.decodeTime.Observe(time.Since(start))
	db.bcache.decoded.Add(uint64(n))
}
