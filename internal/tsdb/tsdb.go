// Package tsdb is an embedded time-series database, the stand-in for the
// Amazon Timestream service in SpotLake's architecture (paper Figure 2).
//
// The archive's datasets are step functions: a placement score, advisor
// bucket, or spot price holds its value until the next recorded change. The
// store therefore keeps one append-only, time-ordered point slice per
// series, deduplicates consecutive equal values on request, and answers
// range queries, step-aware value-at-time lookups, window means, and
// change-interval extractions (the primitives behind Figures 3, 4, 5, 8, 9
// and 10). An optional write-ahead log gives durable persistence with
// crash-safe replay.
//
// # Sharding
//
// The store is lock-striped onto a power-of-two number of shards near
// GOMAXPROCS, each shard owning its own mutex, series index, and point
// counter. Every key is hashed once per operation (keyHash: hash/maphash
// over its four fields, seeded afresh at each open); the hash's low bits
// pick the shard, and the whole hash keys the shard's index, so finding a
// series is one hash and one map probe. The seed makes placement a
// property of one open: nothing may persist a shard index or a key hash.
// Collector writes and archive reads touching different shards never
// contend, and the aggregate statistics (SeriesCount, PointCount, Keys,
// MaxTime) are computed by visiting shards one at a time without any
// global lock. AppendBatch groups a tick's worth of points by shard so
// each shard lock is taken once per batch instead of once per point.
// One store-wide counter (Generation), bumped by every point stored
// anywhere, is what read-side caches check for staleness: a collector
// tick writes to every shard and a catalog sweep or region slice reads
// from every shard, so a finer guard would keep nothing. The shard count
// is an in-memory choice: nothing on disk records it, so a directory
// opens at any count without rewriting a file.
//
// # Durability
//
// A durable store has one write-ahead log (see wal.go): every append
// goes to the active wal-<seq>.log through one buffered writer behind the
// log lock. An acknowledged append is process-crash safe on return and
// power-loss safe after Flush. Lock order is shard lock, then log lock:
// a batch writes each shard group as one record, naming each series by a
// per-segment ID, under that shard's lock with one log-lock acquisition,
// so every series' order in the log is its order in memory. The store has one writer in practice
// (the collector's tick), so the shared log costs it nothing. A versioned
// MANIFEST names the layout; snapshots double as checkpoints (Checkpoint)
// that bound recovery to "load snapshot + replay the segments written
// since", and each checkpoint rotates the log onto a new segment and
// deletes the ones it covers, instead of rewriting files. The store
// maintains
// itself (see maintain.go): a daemon started by OpenWithOptions
// checkpoints when the un-checkpointed WAL crosses
// Options.CheckpointAfterBytes, and the same trigger is enforced
// synchronously on the append path — no caller cooperation needed for
// bounded replay tails, and with them bounded WAL disk use and bounded
// hot-memory growth. The checkpoint file holds every series' unsealed
// points in the compressed block file format of the cold tier, and
// memory keeps them as that file's bytes (see block.go and wal.go).
package tsdb

import (
	"bufio"
	"errors"
	"fmt"
	"hash/maphash"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"repro/internal/obs"
)

// Dataset names used by the SpotLake collector. The store accepts any
// dataset string; these are the conventional ones.
const (
	DatasetPlacementScore = "sps"
	DatasetInterruptFree  = "if"
	DatasetPrice          = "price"
	DatasetSavings        = "savings"
)

// SeriesKey identifies one time series. AZ is empty for region-granular
// datasets (the advisor data); Region is always set.
type SeriesKey struct {
	Dataset string
	Type    string
	Region  string
	AZ      string
}

// String renders the key in its canonical "dataset|type|region|az" form.
func (k SeriesKey) String() string {
	return k.Dataset + "|" + k.Type + "|" + k.Region + "|" + k.AZ
}

// ParseSeriesKey parses the canonical key form.
func ParseSeriesKey(s string) (SeriesKey, error) {
	c, ok := keyCuts(s)
	if !ok {
		return SeriesKey{}, fmt.Errorf("tsdb: malformed series key %q", s)
	}
	return SeriesKey{Dataset: s[:c[0]], Type: s[c[0]+1 : c[1]], Region: s[c[1]+1 : c[2]], AZ: s[c[2]+1:]}, nil
}

// keyCuts finds the three separators of a canonical key. ok is true only
// when there are exactly three and the dataset, type and region between
// them are non-empty: the keys ParseSeriesKey accepts.
func keyCuts[S string | []byte](s S) (c [3]int, ok bool) {
	n := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '|' {
			if n == len(c) {
				return c, false
			}
			c[n] = i
			n++
		}
	}
	return c, n == len(c) && c[0] > 0 && c[1] > c[0]+1 && c[2] > c[1]+1
}

// Point is one sample of a series. Every read answers in UTC, whatever
// zone the point was appended in.
type Point struct {
	At    time.Time
	Value float64
}

// sample is a decoded point: unix nanoseconds and the value, 16 bytes
// with no pointers, so the GC never scans a series' raw tail or a cached
// decoded block. Every tier — the raw tail, the block cache, the block
// and checkpoint codecs, WAL replay and the rollup fold — holds samples;
// a Point is built only where one leaves the package (point).
type sample struct {
	ns int64
	v  float64
}

func (s sample) point() Point { return Point{At: time.Unix(0, s.ns).UTC(), Value: s.v} }

// minInstant and maxInstant bound the timestamps appends accept: whole
// UTC years 1678 through 2261, inside the int64 unix-nanosecond range
// (1677-09-21 … 2262-04-11) that every on-disk format stores. Trimming to
// whole years keeps every rollup bucket start representable, and keeps
// math.MinInt64 and math.MaxInt64 strictly outside every stored sample,
// which is what lets unixNanos saturate window bounds exactly.
var (
	minInstant = time.Date(1678, 1, 1, 0, 0, 0, 0, time.UTC)
	maxInstant = time.Date(2262, 1, 1, 0, 0, 0, 0, time.UTC).Add(-time.Nanosecond)
)

// Instants whose unix nanoseconds are the int64 limits: bounds beyond
// them saturate in unixNanos.
var (
	minNanosInstant = time.Unix(0, math.MinInt64)
	maxNanosInstant = time.Unix(0, math.MaxInt64)
)

// unixNanos converts a read's window bound to unix nanoseconds,
// saturating at the int64 limits instead of wrapping as a bare UnixNano
// would (the API's default window is year 1 … year 9999). No stored
// sample sits at either limit, so a saturated bound orders against every
// sample exactly as the bound itself does.
func unixNanos(t time.Time) int64 {
	switch {
	case t.Before(minNanosInstant):
		return math.MinInt64
	case t.After(maxNanosInstant):
		return math.MaxInt64
	}
	return t.UnixNano()
}

// subNanos is Time.Sub on unix nanoseconds: a - b, saturated at the
// Duration limits when the difference overflows int64.
func subNanos(a, b int64) time.Duration {
	d := a - b
	if (d < a) != (b > 0) {
		if a < b {
			return math.MinInt64
		}
		return math.MaxInt64
	}
	return time.Duration(d)
}

// Entry is one point addressed to a series, the unit of batched appends.
type Entry struct {
	Key   SeriesKey
	At    time.Time
	Value float64
}

type series struct {
	// key names the series. next is the shard's next series whose key
	// has the same hash (see shard.find), nil almost always.
	key  SeriesKey
	next *series
	// blocks holds the series' encoded points, oldest first: its sealed
	// history, blocks[:sealed], whose bytes stay on disk and decode on
	// demand through the store's block cache, then its unsealed points as
	// the last checkpoint wrote them, whose bytes stay in memory (see
	// coldSegment). points is the raw tail appended since that checkpoint:
	// all of the series on a memory-only store. A point's global index is
	// blocksN(blocks) + its offset in points; the read paths resolve the
	// tiers through the shared search/fetch helpers below.
	blocks []blockMeta
	sealed int
	points []sample
	// last is the newest point, whichever tier holds it: Last, the dedup
	// check and the out-of-order guard read it and never decode. Every
	// series holds at least one point.
	last sample
	// walSeq and walID are the WAL segment the series was last defined
	// in and the ID it has there (see writeLog). A series whose walSeq is
	// not the active segment's defines itself again, under a new ID, at
	// its next append; 0 is no segment.
	walSeq, walID uint64
}

// shard is one lock stripe: a mutex, its series and local statistics.
// The series live in slabs, in creation order: a slab is filled to its
// capacity and never reallocated, so a *series stays valid, and a walk
// over every series (each) reads memory in order. index maps a key hash
// to the shard's series with that hash; the rare keys whose hashes
// collide chain through series.next.
type shard struct {
	mu     sync.RWMutex
	slabs  [][]series
	index  map[uint64]*series
	points int
}

// slabSeries is the capacity of one slab of series.
const slabSeries = 64

// find returns the series keyed k, whose hash is h, or nil. The caller
// holds sh's lock.
func (sh *shard) find(h uint64, k SeriesKey) *series {
	s := sh.index[h]
	for s != nil && s.key != k {
		s = s.next
	}
	return s
}

// add creates the series keyed k, whose hash is h, and returns it. The
// caller holds sh's write lock and has checked that k is new.
func (sh *shard) add(h uint64, k SeriesKey) *series {
	n := len(sh.slabs)
	if n == 0 || len(sh.slabs[n-1]) == slabSeries {
		sh.slabs = append(sh.slabs, make([]series, 0, slabSeries))
		n++
	}
	slab := append(sh.slabs[n-1], series{key: k, next: sh.index[h]})
	sh.slabs[n-1] = slab
	s := &slab[len(slab)-1]
	sh.index[h] = s
	return s
}

// each calls fn with every series of sh, in creation order. The caller
// holds sh's lock.
func (sh *shard) each(fn func(s *series)) {
	for _, slab := range sh.slabs {
		for i := range slab {
			fn(&slab[i])
		}
	}
}

// seriesCount returns how many series sh holds. The caller holds sh's
// lock.
func (sh *shard) seriesCount() int {
	n := 0
	for _, slab := range sh.slabs {
		n += len(slab)
	}
	return n
}

// DB is the time-series store. It is safe for concurrent use.
type DB struct {
	shards []shard
	mask   uint32
	gen    atomic.Uint64
	closed atomic.Bool
	// seed and hashMask define keyHash for this open.
	seed     maphash.Seed
	hashMask uint64

	// Durable layout state. dir is empty for memory-only stores. man is
	// the manifest as last committed; cpMu serializes Checkpoint and
	// manifest replacement. readOnly marks a store opened with
	// Options.ReadOnly: it loads a committed layout without owning it (no
	// appends, checkpoints, or file reclamation).
	dir      string
	readOnly bool
	cpMu     sync.Mutex
	man      manifest

	// The log, nil on memory-only and read-only stores. logMu guards the
	// writer and the files; it is taken after a shard lock, never before.
	// walSeq, the active segment's sequence number, moves only under cpMu,
	// in the checkpoint's cut. unsynced holds the swapped-out segments no
	// fsync has reached yet: the checkpoint syncs them after its cut, and
	// until it has, Flush and Close sync them too.
	logMu    sync.Mutex
	wal      *bufio.Writer
	walF     *os.File
	walSeq   uint64
	unsynced []*os.File
	// walNextID is the next series ID of the active segment, walBase the
	// base timestamp of its last record and walBuf the records writeLog
	// encodes, all guarded by logMu. The cut resets walNextID and walBase
	// with every shard lock and logMu held; Open seeds them from the
	// replayed active segment.
	walNextID uint64
	walBase   int64
	walBuf    []byte
	// sealedN counts the swapped-out segments the committed manifest does
	// not cover yet, so sealedSegments reads it without a lock. Updated
	// via setSealed wherever walSeq or the manifest moves.
	sealedN atomic.Int64

	// Cold-tier state (see block.go). bcache is the store-wide LRU over
	// decoded blocks; coldSegs the open block files (appended under cpMu
	// at seal time, closed by Close under all shard locks). hotTail and
	// blockPoints are fixed at open. hotPts/coldPts mirror the
	// resident-vs-sealed split of the per-shard point counters;
	// sealedBlks and coldBytes count sealed blocks and their compressed
	// on-disk bytes; coldErrs counts cold reads that failed (bit rot,
	// vanished file) — each failed its caller's read with ErrColdRead.
	// scanned counts points materialized by reads (hot copies and
	// decoded-block windows, rollup folds included).
	bcache      *blockCache
	coldSegs    []*coldSegment
	hotTail     int
	blockPoints int
	hotPts      atomic.Int64
	coldPts     atomic.Int64
	sealedBlks  atomic.Int64
	coldBytes   atomic.Int64
	coldErrs    obs.Counter
	scanned     obs.Counter

	// replayedBytes counts the WAL record bytes the last Open replayed
	// beyond the checkpoint cut — the observable size of the recovery
	// tail that checkpointing (time- or size-triggered) bounds.
	replayedBytes obs.Counter

	// walWritten counts the bytes this store wrote to WAL segments:
	// records and segment headers. cpWritten counts the bytes of the
	// checkpoint and block files that committed checkpoints wrote.
	walWritten obs.Counter
	cpWritten  obs.Counter

	// Maintenance state (see maintain.go). cpAfterBytes is the byte
	// trigger's threshold, fixed at open. The channels belong to the
	// daemon goroutine.
	cpAfterBytes int64
	// maintRetryAt (UnixNano) gates the append path's enforcement after
	// a failed maintenance checkpoint: a trigger stays latched until a
	// checkpoint succeeds, and without the gate every append would
	// synchronously re-attempt a full snapshot against e.g. a full disk.
	maintRetryAt atomic.Int64
	// cpBytesTotal and cpPointsTotal count the WAL record bytes and the
	// points appended since the last committed checkpoint, feeding the
	// byte trigger with an atomic load each. They move under logMu with
	// every log write; a committed checkpoint subtracts what its cut
	// covered.
	cpBytesTotal  atomic.Uint64
	cpPointsTotal atomic.Uint64
	maintStop     chan struct{}
	maintDone     chan struct{}
	maintCP       obs.Counter
	maintErrs     obs.Counter

	// cpTime times every committed checkpoint.
	cpTime *obs.Histogram

	// testCrash, when armed by the crash-matrix tests, aborts the
	// checkpoint protocol at a named durable boundary. Nil in
	// production.
	testCrash func(point string) error
}

// defaultShards is the lock-stripe count a store opens with: the
// smallest power of two >= GOMAXPROCS, clamped to [8, 256]. The floor
// keeps lock striping effective on small machines; the ceiling bounds
// per-shard overhead. Nothing on disk records it: a directory opens at
// any count.
func defaultShards() int {
	s := 8
	for s < runtime.GOMAXPROCS(0) && s < 256 {
		s <<= 1
	}
	return s
}

// hotTailPoints is the per-series tail a checkpoint keeps unsealed, in
// memory as the checkpoint's own blocks, when it seals older points into
// compressed block files: it keeps recent-window reads off the disk and
// the block cache. Last, dedup and the out-of-order check read each
// series' newest point, which it keeps whatever the tail's length.
const hotTailPoints = 256

// blockPoints is the sealed block size in points. Bigger blocks
// compress better and shrink the in-memory index; smaller blocks make
// narrow cold reads decode less. Only whole blocks seal — a partial
// remainder stays unsealed. A series so seals its first block once it
// holds hotTailPoints + blockPoints points.
const blockPoints = 512

// Options configures OpenWithOptions: what a deployment sets.
type Options struct {
	// CheckpointAfterBytes, when positive on a durable store, makes the
	// store checkpoint itself once WALBytesSinceCheckpoint crosses the
	// threshold, or once the points appended since count 10 bytes each
	// to it (pointCharge) — regardless of who is writing (collector,
	// bootstrap, analysis tools). It is the store's one size knob: the
	// same threshold bounds the replay tail, the WAL bytes on disk and
	// hot-memory growth between seals ((threshold + one batch) / 10 B),
	// however few bytes the WAL spends on a point. A writable store with
	// the trigger set also runs a maintenance daemon that polls it every
	// maintenanceInterval. Zero disables the store's own size trigger
	// (callers may still schedule checkpoints themselves).
	CheckpointAfterBytes int64
	// BlockCacheBytes bounds the decoded-block LRU cache: 0 selects
	// DefaultBlockCacheBytes, negative disables caching (cold reads
	// decode every time). Each cached point is charged 16 bytes, what a
	// decoded sample really occupies (see blockcache.go).
	BlockCacheBytes int64
	// ReadOnly opens an existing durable layout without taking ownership
	// of it: no segment files are created, truncated, or reclaimed, no
	// layout commit or checkpoint ever runs, appends are rejected, and
	// the maintenance daemon stays off. The open fails if the directory
	// holds no committed manifest. Replication followers use it to serve
	// a replica whose files a puller replaces between reopens (see
	// replication.go).
	ReadOnly bool
}

// tuning is everything an open fixes: the caller's Options and the
// store's geometry. Every exported open uses the production geometry
// (defaultShards, hotTailPoints, blockPoints, the daemon on); the
// package's tests shrink it to reach seals and lock-stripe edges at
// small sizes.
type tuning struct {
	Options
	shards      int  // lock stripes, a power of two
	hotTail     int  // per-series points a seal keeps unsealed
	blockPoints int  // points per sealed block, in [2, maxBlockPoints]
	noDaemon    bool // only the append path enforces the byte trigger
}

// Open opens (or creates) a store. With a non-empty dir, points are
// persisted to an append-only log inside it and replayed on open. With
// an empty dir the store is memory-only.
func Open(dir string) (*DB, error) {
	return OpenWithOptions(dir, Options{})
}

// OpenWithOptions opens a store with the deployment's Options.
func OpenWithOptions(dir string, o Options) (*DB, error) {
	return tuning{Options: o, shards: defaultShards(), hotTail: hotTailPoints, blockPoints: blockPoints}.open(dir)
}

// open opens a store at t.
func (t tuning) open(dir string) (*DB, error) {
	db := &DB{shards: make([]shard, t.shards), mask: uint32(t.shards - 1), cpTime: obs.NewHistogram(checkpointBuckets)}
	db.seed, db.hashMask = maphash.MakeSeed(), keyHashMask
	db.cpAfterBytes = t.CheckpointAfterBytes
	db.hotTail, db.blockPoints = t.hotTail, t.blockPoints
	cacheBytes := t.BlockCacheBytes
	if cacheBytes == 0 {
		cacheBytes = DefaultBlockCacheBytes
	}
	db.bcache = newBlockCache(cacheBytes)
	for i := range db.shards {
		db.shards[i].index = make(map[uint64]*series)
	}
	if dir == "" {
		if t.ReadOnly {
			return nil, errors.New("tsdb: read-only open requires a durable directory")
		}
		return db, nil
	}
	db.readOnly = t.ReadOnly
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("tsdb: creating dir: %w", err)
	}
	db.dir = dir
	if err := db.openDurable(); err != nil {
		return nil, err
	}
	if !db.readOnly && !t.noDaemon {
		db.startMaintainer()
	}
	return db, nil
}

// Durable reports whether the store persists to disk (opened with a
// non-empty directory).
func (db *DB) Durable() bool { return db.dir != "" }

// WALBytesSinceCheckpoint returns the WAL record bytes appended since the
// last committed checkpoint — the size of the tail a restart would have
// to replay. Size-based checkpoint schedulers compare it against their
// threshold after each write burst; it resets (by the captured amount)
// when a checkpoint commits. One atomic load.
func (db *DB) WALBytesSinceCheckpoint() uint64 {
	return db.cpBytesTotal.Load()
}

// ReplayedWALBytes returns how many WAL record bytes the Open that created
// this store replayed beyond its checkpoint cut — the realized recovery
// tail. Zero for memory-only stores and for opens that loaded a
// checkpoint covering everything.
func (db *DB) ReplayedWALBytes() uint64 { return db.replayedBytes.Value() }

// Generation returns a counter that grows by the points each append,
// batch shard group or recovery stores, bumped under the storing shard's
// lock. A new series stores its first point in the lock hold that
// creates it, so the counter covers the key set too. A cache that
// captures it before reading and serves a result only while it is
// unchanged is never stale: a write racing the read makes the result
// stale at once, never the reverse.
func (db *DB) Generation() uint64 { return db.gen.Load() }

// keyHashMask is ANDed into every key hash of a store opened while it is
// set. It is all ones except in tests, which squeeze keys into a few
// hash values to drive the collision chains.
var keyHashMask = ^uint64(0)

// keyHash hashes k's four fields with the store's seed. Its low bits pick
// k's shard (locate) and the whole hash keys the shard's index. Like the
// seed, the hash holds for this open only and is never written anywhere.
func (db *DB) keyHash(k SeriesKey) uint64 {
	const mul = 0x9e3779b97f4a7c15 // odd: each step is a bijection
	h := maphash.String(db.seed, k.Dataset)
	h = (h ^ maphash.String(db.seed, k.Type)) * mul
	h = (h ^ maphash.String(db.seed, k.Region)) * mul
	h = (h ^ maphash.String(db.seed, k.AZ)) * mul
	return (h ^ h>>32) & db.hashMask
}

// locate returns k's hash and the shard it picks.
func (db *DB) locate(k SeriesKey) (uint64, *shard) {
	h := db.keyHash(k)
	return h, &db.shards[uint32(h)&db.mask]
}

// canonicalLen is the length of k's canonical form.
func canonicalLen(k SeriesKey) int {
	return len(k.Dataset) + len(k.Type) + len(k.Region) + len(k.AZ) + 3
}

// maxKeyBytes bounds the canonical key form: the block and checkpoint
// codecs store key lengths as uint16, so longer keys would silently
// truncate into unreadable files.
const maxKeyBytes = 1<<16 - 1

// ErrInvalidKey is wrapped by every append rejected for its key: a
// missing dataset, type or region, a canonical form longer than
// maxKeyBytes, or a field holding "|" or invalid UTF-8. The WAL, the
// checkpoint and the block index name a series by its canonical
// "dataset|type|region|az" form, so a "|" inside a field would make the
// key unreadable at the next open, and a response renders keys as JSON
// strings, which cannot carry invalid UTF-8 back unchanged.
var ErrInvalidKey = errors.New("tsdb: invalid series key")

// validKey is the append entry points' per-entry check on the key.
func validKey(k SeriesKey) error {
	if k.Dataset == "" || k.Type == "" || k.Region == "" {
		return fmt.Errorf("%w: incomplete series key %v", ErrInvalidKey, k)
	}
	if canonicalLen(k) > maxKeyBytes {
		return fmt.Errorf("%w: series key exceeds %d bytes", ErrInvalidKey, maxKeyBytes)
	}
	return nil
}

// validKeyFields checks what validKey leaves to the append that creates
// k's series, so an append to an existing series pays nothing for it:
// that no field holds "|" or invalid UTF-8.
func validKeyFields(k SeriesKey) error {
	for _, f := range [...]string{k.Dataset, k.Type, k.Region, k.AZ} {
		if strings.IndexByte(f, '|') >= 0 || !utf8.ValidString(f) {
			return fmt.Errorf("%w: field %q holds \"|\" or invalid UTF-8", ErrInvalidKey, f)
		}
	}
	return nil
}

// ErrUnencodablePoint is wrapped by every append rejected because the
// point cannot be stored and served back unchanged: a NaN or infinite
// value, which JSON cannot render — stored, it would fail every later
// response whose window covers it, after its status line is committed,
// and a NaN would be stored again each tick, since it never equals the
// last value — or a timestamp outside years 1678 through 2261. The WAL,
// checkpoint and block formats all store unix nanoseconds in an int64,
// which cannot hold an instant outside 1677-09-21 … 2262-04-11: such a
// point would be acknowledged, then come back centuries away after a
// reopen or a seal (see minInstant for why the range is whole years).
var ErrUnencodablePoint = errors.New("tsdb: point cannot be encoded")

// validPoint is the append entry points' check on the point itself,
// beside validKey. WAL replay and checkpoint loads do not run it: what an
// older build stored must still open.
func validPoint(at time.Time, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("%w: value %v", ErrUnencodablePoint, v)
	}
	if at.Before(minInstant) || at.After(maxInstant) {
		return fmt.Errorf("%w: timestamp %v outside years 1678..2261", ErrUnencodablePoint, at)
	}
	return nil
}

// walEntry is one stored point on its way to the log: appendLocked
// collects a shard group's entries, writeLog encodes them.
type walEntry struct {
	s  *series
	ns int64
	v  float64
}

// appendLocked stores one point into s, k's series in sh (nil when k is
// new; h is k's hash), which the caller has write-locked, and on a
// durable store appends the point to ents, which the caller hands to
// writeLog before it releases the lock. The caller has validated at, so
// its UnixNano is exact, and counts what it stored with countLocked.
func (db *DB) appendLocked(sh *shard, s *series, h uint64, k SeriesKey, at time.Time, v float64, ents []walEntry) ([]walEntry, error) {
	if db.closed.Load() {
		return ents, errClosed
	}
	// Guard memory as well as the WAL: a read-only store has no open
	// log, so without this check an append would "succeed" in memory and
	// silently vanish at the next reopen.
	if db.readOnly {
		return ents, errors.New("tsdb: read-only store rejects appends")
	}
	ns := at.UnixNano()
	if s == nil {
		if err := validKeyFields(k); err != nil {
			return ents, err
		}
		s = sh.add(h, k)
	} else if ns < s.last.ns {
		return ents, fmt.Errorf("tsdb: out-of-order append to %v: %v before %v", k, at, s.last.point().At)
	}
	s.last = sample{ns: ns, v: v}
	s.points = append(s.points, s.last)
	if db.dir != "" {
		ents = append(ents, walEntry{s: s, ns: ns, v: v})
	}
	return ents, nil
}

// countLocked adds n unsealed points stored into sh to its point
// counter, the store's hot count and its generation. The caller holds
// sh's write lock (or owns the store, during Open).
func (db *DB) countLocked(sh *shard, n int) {
	sh.points += n
	db.hotPts.Add(int64(n))
	db.gen.Add(uint64(n))
}

// writeLog encodes ents, one shard group's stored points in order, as
// one WAL record (more only past walRecordSplit body bytes, or at a point
// too far from the record's base for its timestamp field; see
// walDeltaLimit) and hands it
// to the log's buffer with one log-lock acquisition. The caller holds the
// write lock of the shard whose points ents records, which keeps every
// series' order in the log its order in memory. A series not yet defined
// in the active segment defines itself here, under the log lock, with
// the segment's next ID: IDs enter the log densely and in order, and a
// series' definition always precedes its references.
func (db *DB) writeLog(ents []walEntry) error {
	if len(ents) == 0 {
		return nil
	}
	db.logMu.Lock()
	defer db.logMu.Unlock()
	start, base := 0, ents[0].ns
	buf := beginRecord(db.walBuf[:0], db.walBase, base)
	for _, e := range ents {
		if len(buf)-start > walRecordSplit || zigzag(e.ns-base) >= walDeltaLimit {
			buf = finishRecord(buf, start)
			prev := base
			start, base = len(buf), e.ns
			buf = beginRecord(buf, prev, base)
		}
		s := e.s
		var def *SeriesKey
		if s.walSeq != db.walSeq {
			s.walSeq, s.walID, def = db.walSeq, db.walNextID, &s.key
			db.walNextID++
		}
		buf = appendRecordEntry(buf, s.walID, def, base, e.ns, e.v)
	}
	db.walBuf = finishRecord(buf, start)
	if _, err := db.wal.Write(db.walBuf); err != nil {
		return fmt.Errorf("tsdb: wal write: %w", err)
	}
	db.walBase = base
	db.cpBytesTotal.Add(uint64(len(db.walBuf)))
	db.cpPointsTotal.Add(uint64(len(ents)))
	db.walWritten.Add(uint64(len(db.walBuf)))
	return nil
}

// flushLog hands the log's buffered records to write(2) before an append
// returns: what a durable store acknowledges is process-crash safe. A
// store closed since has no log left; Close flushed it.
func (db *DB) flushLog() error {
	if db.dir == "" {
		return nil
	}
	db.logMu.Lock()
	defer db.logMu.Unlock()
	if db.wal == nil {
		return nil
	}
	if err := db.wal.Flush(); err != nil {
		return fmt.Errorf("tsdb: wal write: %w", err)
	}
	return nil
}

// Append records a point. Appends must be time-ordered per series; an
// append earlier than the series' last point is rejected. Durability is
// AppendBatch's.
func (db *DB) Append(k SeriesKey, at time.Time, v float64) error {
	_, err := db.appendBatch([]Entry{{Key: k, At: at, Value: v}}, false)
	return err
}

// AppendIfChanged records the point only when its value differs from the
// series' last value (or the series is empty). It reports whether the point
// was stored. This is how the collector turns 10-minute samples into change
// events, which both bounds storage and makes Figure 10's
// time-between-changes analysis a direct read of the series.
func (db *DB) AppendIfChanged(k SeriesKey, at time.Time, v float64) (bool, error) {
	n, err := db.appendBatch([]Entry{{Key: k, At: at, Value: v}}, true)
	return n > 0, err
}

// unchangedLocked reports whether v equals the last value of s (nil for a
// new series), the dedup check of the IfChanged appends; the caller holds
// s's shard lock.
func (db *DB) unchangedLocked(s *series, v float64) bool {
	return s != nil && s.last.v == v
}

// AppendBatch stores the entries, grouping them by shard so each shard
// lock is acquired once per batch rather than once per point, and each
// group is written as one WAL record with one log-lock acquisition. Entries keep
// their input order within a shard, so per-series time ordering of the
// input is preserved. It returns how many points were stored and the first
// error encountered; later entries are still attempted after an error.
//
// On a durable store a stored point is process-crash safe on return (the
// batch's records reach write(2) once, after its last shard group) and
// power-loss safe after Flush.
func (db *DB) AppendBatch(entries []Entry) (int, error) {
	return db.appendBatch(entries, false)
}

// AppendBatchIfChanged is AppendBatch with AppendIfChanged's semantics:
// an entry whose value equals its series' current last value is skipped.
func (db *DB) AppendBatchIfChanged(entries []Entry) (int, error) {
	return db.appendBatch(entries, true)
}

func (db *DB) appendBatch(entries []Entry, dedup bool) (int, error) {
	if len(entries) == 0 {
		return 0, nil
	}
	db.enforceMaintenance()
	// Stable counting sort of entry indices by shard: input order is
	// preserved within a shard (so per-series time order survives), and
	// no per-call maps are allocated. Each valid entry's key is hashed
	// here, once; invalid entries land in bucket ns. One allocation
	// holds each entry's shard, the entry indices in shard order, and
	// end[s], first shard s's count, then where its run of order ends.
	ns := len(db.shards)
	var firstErr error
	hashes := make([]uint64, len(entries))
	idx := make([]int32, 2*len(entries)+ns+1)
	shardOf, order, end := idx[:len(entries)], idx[len(entries):2*len(entries)], idx[2*len(entries):]
	for i := range entries {
		si := int32(ns)
		err := validKey(entries[i].Key)
		if err == nil {
			err = validPoint(entries[i].At, entries[i].Value)
		}
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
		} else {
			hashes[i] = db.keyHash(entries[i].Key)
			si = int32(uint32(hashes[i]) & db.mask)
		}
		shardOf[i] = si
		end[si]++
	}
	var sum int32
	for s := range end {
		end[s], sum = sum, sum+end[s]
	}
	for i, s := range shardOf {
		order[end[s]] = int32(i)
		end[s]++
	}
	stored := 0
	var entsBuf [8]walEntry
	ents := entsBuf[:0]
	var lo int32
	for s := 0; s < ns; s++ {
		run := order[lo:end[s]]
		lo = end[s]
		if len(run) == 0 {
			continue
		}
		sh := &db.shards[s]
		sh.mu.Lock()
		ents = ents[:0]
		n := 0
		for _, i := range run {
			e, h := &entries[i], hashes[i]
			se := sh.find(h, e.Key)
			if dedup && db.unchangedLocked(se, e.Value) {
				continue
			}
			var err error
			if ents, err = db.appendLocked(sh, se, h, e.Key, e.At, e.Value, ents); err != nil {
				if firstErr == nil {
					firstErr = err
				}
				continue
			}
			n++
		}
		if n > 0 {
			db.countLocked(sh, n)
			stored += n
		}
		if err := db.writeLog(ents); err != nil && firstErr == nil {
			firstErr = err
		}
		sh.mu.Unlock()
	}
	if stored > 0 {
		if err := db.flushLog(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return stored, firstErr
}

// Query returns the points of a series within [from, to], oldest first:
// a window is the position (from, 0) read to its end.
func (db *DB) Query(k SeriesKey, from, to time.Time) ([]Point, error) {
	return db.QueryAfter(k, from, 0, to, -1)
}

// ErrColdRead marks a read that touched a cold block which failed to
// decode (bit rot, a vanished or truncated block file). The read APIs
// return it wrapped around the underlying cause rather than serving a
// silently truncated result: a window answer with a hole would disagree
// with CountAfter (which locates the same window by block metadata
// alone), so a page's count pass and its copy pass would drift apart
// without either side noticing. Callers that can degrade (dedup checks,
// best-effort tooling) may choose to; serving paths must surface it.
var ErrColdRead = errors.New("tsdb: cold block read failed")

// errClosed is what a closed store answers: appends and checkpoints, and
// reads whose block file Close shut under them — a closed handle, not
// corrupt data, so coldReadErr returns it uncounted.
var errClosed = errors.New("tsdb: store is closed")

// coldReadErr counts and wraps a failed cold block read. Every read
// path funnels decode failures through here so coldReadErrors stays an
// accurate corruption odometer no matter which API tripped first.
func (db *DB) coldReadErr(err error) error {
	if db.closed.Load() {
		return errClosed
	}
	db.coldErrs.Add(1)
	return fmt.Errorf("%w: %w", ErrColdRead, err)
}

// The tier-merging read primitives. A series' points form one logical
// time-ordered sequence indexed 0..total-1: the points in blocks first —
// sealed ones on disk, then the checkpoint's unsealed ones in memory —
// then the raw tail. Every read below — range and cursor windows, step
// lookups, window means, grids, intervals, the rollup fold — captures a
// seriesView under the owning shard's read lock (view), releases it, and
// resolves its window through searchView and iterateView alone, so the
// tiers can never disagree about where a timestamp falls and no read
// decodes under a shard lock. Last and the append path read series.last
// instead and never decode.
//
// Blocks decode on demand through the read's coldRead — file blocks
// through the block cache, blocks in memory straight from their bytes; a
// windowed read passes its horizon so a block its window ends inside
// decodes only that far (coldBlockPoints). A block that fails to decode
// is counted in coldReadErrors and the error propagates to the caller as
// ErrColdRead — never a silently truncated answer.

// seriesView is a stable read view of one series' tiers, captured under
// the owning shard's lock and safe to use after releasing it:
//
//   - blocks is a full-expression slice of the series' block list. A
//     checkpoint replaces that list with a fresh one and nothing writes
//     into a list's published length, so the captured blocks are
//     immutable. Block files are immutable and their handles stay open
//     until Close; a block held in memory keeps its bytes alive for as
//     long as a view names it.
//   - hot aliases the raw tail's backing array below the captured
//     length. Appends write past that length and checkpoints replace the
//     slice with a fresh copy, so the captured window never mutates.
//
// An unknown series has the empty view, which every read answers as
// "no points".
type seriesView struct {
	blocks []blockMeta
	blockN int
	hot    []sample
}

// viewLocked captures a series view (s may be nil); the caller holds the
// shard lock.
func viewLocked(s *series) seriesView {
	var v seriesView
	if s == nil {
		return v
	}
	v.hot = s.points
	v.blocks = s.blocks[:len(s.blocks):len(s.blocks)]
	v.blockN = blocksN(v.blocks)
	return v
}

// view captures k's view under its shard's read lock and releases it:
// the critical section is one index probe and two slice-header copies.
// No defer — it is on every read's path.
func (db *DB) view(k SeriesKey) seriesView {
	h, sh := db.locate(k)
	sh.mu.RLock()
	v := viewLocked(sh.find(h, k))
	sh.mu.RUnlock()
	return v
}

func (v seriesView) total() int { return v.blockN + len(v.hot) }

// iterateView streams the view's global index window [lo, hi) to fn in
// consecutive chunks — one chunk per overlapping block, then the raw
// remainder — decoding each block on demand for read r so at most
// one block's points are materialized beyond what fn retains; fn must
// not keep a chunk past its call. hi must not lie past the first point
// after r's horizon. An fn error aborts the walk; a block decode failure
// aborts it with ErrColdRead.
func (db *DB) iterateView(v seriesView, r *coldRead, lo, hi int, fn func(pts []sample) error) error {
	if total := v.total(); hi > total {
		hi = total
	}
	if lo < 0 {
		lo = 0
	}
	if lo >= hi {
		return nil
	}
	if lo < v.blockN {
		bi := sort.Search(len(v.blocks), func(i int) bool {
			return v.blocks[i].start+int(v.blocks[i].count) > lo
		})
		for ; bi < len(v.blocks) && v.blocks[bi].start < hi; bi++ {
			b := &v.blocks[bi]
			pts, err := db.coldBlockPoints(b, r)
			if err != nil {
				return db.coldReadErr(err)
			}
			from, to := 0, int(b.count)
			if lo > b.start {
				from = lo - b.start
			}
			if hi < b.start+to {
				to = hi - b.start
			}
			db.scanned.Add(uint64(to - from))
			if err := fn(pts[from:to]); err != nil {
				return err
			}
		}
	}
	if hi > v.blockN {
		from := 0
		if lo > v.blockN {
			from = lo - v.blockN
		}
		db.scanned.Add(uint64(hi - v.blockN - from))
		if err := fn(v.hot[from : hi-v.blockN]); err != nil {
			return err
		}
	}
	return nil
}

// searchView returns the smallest global index whose unix-nano timestamp
// satisfies pred, or the total count when none does. pred must be
// monotone in time (false then true), which both window predicates
// (at or after from, after to) are, and true of the first point past
// r's horizon. Blocks are located by their min/max timestamps alone; a
// block is decoded, for read r, only when the boundary falls strictly
// inside it.
func (db *DB) searchView(v seriesView, r *coldRead, pred func(ns int64) bool) (int, error) {
	nb := len(v.blocks)
	bi := sort.Search(nb, func(i int) bool { return pred(v.blocks[i].maxAt) })
	if bi < nb {
		b := &v.blocks[bi]
		if pred(b.minAt) {
			return b.start, nil
		}
		pts, err := db.coldBlockPoints(b, r)
		if err != nil {
			return 0, db.coldReadErr(err)
		}
		i := sort.Search(len(pts), func(i int) bool { return pred(pts[i].ns) })
		if i == len(pts) && i < int(b.count) {
			panic("tsdb: searchView predicate false past the read's horizon")
		}
		return b.start + i, nil
	}
	return v.blockN + sort.Search(len(v.hot), func(i int) bool { return pred(v.hot[i].ns) }), nil
}

// afterBounds returns the view's global index window [lo, hi) of the
// points after the position (after, seq) and at or before `to`. This is
// the seek primitive behind keyset-cursor pagination: the position names
// the seq-th point at timestamp `after` (every earlier point plus the
// first seq points at exactly `after` are consumed), so a resumed read
// starts at a fixed place in the append-only series, unlike an offset,
// which shifts when earlier points arrive. The store accepts
// equal-timestamp appends, so a bare timestamp cannot address a position
// inside such a run — the sequence component is what lets a page
// boundary fall there without dropping the run's remainder. Positions
// resolve identically whether the addressed points are raw, encoded in
// memory or sealed into cold blocks — checkpoints never reorder or
// renumber, so a cursor taken before a seal resumes exactly where it left
// off after one. The position (from, 0) is the plain window [from, to], so this is
// also the single source of window semantics for range reads: a page's
// count pass and copy pass agree exactly across both tiers, and a cold
// read error fails both identically instead of letting them disagree
// silently. The bounds are unix nanoseconds, converted once by the
// caller through unixNanos. Every point the read needs lies at or
// before max(after, to), which becomes r's horizon.
func (db *DB) afterBounds(v seriesView, r *coldRead, after int64, seq int, to int64) (lo, hi int, err error) {
	r.horizon = max(after, to)
	lo, err = db.searchView(v, r, func(ns int64) bool { return ns >= after })
	if err != nil {
		return 0, 0, err
	}
	if seq > 0 {
		// seq consumes points at exactly `after`, never beyond its run:
		// a forged or overshot count clamps to the run's end instead of
		// eating later timestamps.
		runEnd, err := db.searchView(v, r, func(ns int64) bool { return ns > after })
		if err != nil {
			return 0, 0, err
		}
		if seq > runEnd-lo {
			lo = runEnd
		} else {
			lo += seq
		}
	}
	hi, err = db.searchView(v, r, func(ns int64) bool { return ns > to })
	if err != nil {
		return 0, 0, err
	}
	return lo, hi, nil
}

// CountAfter returns how many points of the series lie after the
// position (after, seq) — see afterBounds — and at or before `to`,
// without copying any of them: binary searches over block metadata and
// the raw tail, decoding at most the blocks the window's ends fall in. Cursor pagination uses it to size the remainder of
// a series the cursor position has partially consumed.
func (db *DB) CountAfter(k SeriesKey, after time.Time, seq int, to time.Time) (int, error) {
	var r coldRead
	defer r.release()
	lo, hi, err := db.afterBounds(db.view(k), &r, unixNanos(after), seq, unixNanos(to))
	if err != nil || lo >= hi {
		return 0, err
	}
	return hi - lo, nil
}

// QueryAfter returns up to max points of the series after the position
// (after, seq) and at or before `to`, oldest first. A negative max means
// "all remaining". Because the store is append-only and per-series
// time-ordered, a fixed (timestamp, sequence) position never moves as
// new points arrive — the property that keeps cursor pagination stable
// under live collection, where a skipped offset would drift.
func (db *DB) QueryAfter(k SeriesKey, after time.Time, seq int, to time.Time, max int) ([]Point, error) {
	return db.queryAfter(db.view(k), unixNanos(after), seq, unixNanos(to), max)
}

// queryAfter is QueryAfter over a captured view, with its bounds in unix
// nanoseconds.
func (db *DB) queryAfter(v seriesView, after int64, seq int, to int64, max int) ([]Point, error) {
	var r coldRead
	defer r.release()
	lo, hi, err := db.afterBounds(v, &r, after, seq, to)
	if max >= 0 && max < hi-lo {
		hi = lo + max
	}
	if err != nil || lo >= hi {
		return nil, err
	}
	out := make([]Point, hi-lo)
	n := 0
	err = db.iterateView(v, &r, lo, hi, func(pts []sample) error {
		dst := out[n : n+len(pts)]
		for i, p := range pts {
			dst[i] = p.point()
		}
		n += len(pts)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// steps walks the series' step function over [from, to]: first the
// point that carries the value into from (the latest at or before it),
// if any, then every point in (from, to], oldest first, one decoded
// block at a time. ValueAt, WindowMean and Grid are folds over it, so
// none of them materializes its window.
func (db *DB) steps(k SeriesKey, from, to time.Time, fn func(Point)) error {
	v := db.view(k)
	f, t := unixNanos(from), unixNanos(to)
	r := coldRead{horizon: max(f, t)}
	defer r.release()
	lo, err := db.searchView(v, &r, func(ns int64) bool { return ns > f })
	if err != nil {
		return err
	}
	hi, err := db.searchView(v, &r, func(ns int64) bool { return ns > t })
	if err != nil {
		return err
	}
	return db.iterateView(v, &r, lo-1, hi, func(pts []sample) error {
		for _, p := range pts {
			fn(p.point())
		}
		return nil
	})
}

// ValueAt returns the series' value at time t under step semantics: the
// value of the latest point at or before t. ok is false before the first
// point or for an unknown series.
func (db *DB) ValueAt(k SeriesKey, t time.Time) (v float64, ok bool, err error) {
	err = db.steps(k, t, t, func(p Point) { v, ok = p.Value, true })
	return v, ok, err
}

// WindowMean returns the time-weighted mean of the step function over
// [from, to). ok is false when the series has no value anywhere in the
// window. The walk covers (from, to]: a point exactly at to closes the
// last segment early and adds cur*0, so the sums are the [from, to)
// ones bit for bit.
func (db *DB) WindowMean(k SeriesKey, from, to time.Time) (mean float64, ok bool, err error) {
	if !to.After(from) {
		return 0, false, nil
	}
	var cur, total, weight float64
	curSet := false
	cursor := from
	err = db.steps(k, from, to, func(p Point) {
		if curSet {
			d := p.At.Sub(cursor).Seconds()
			total += cur * d
			weight += d
		}
		cur, curSet = p.Value, true
		if p.At.After(from) {
			cursor = p.At
		}
	})
	if err != nil || !curSet {
		return 0, false, err
	}
	d := to.Sub(cursor).Seconds()
	total += cur * d
	weight += d
	if weight == 0 {
		return 0, false, nil
	}
	return total / weight, true, nil
}

// Grid samples the step function at from, from+step, ... up to and
// including to. Instants before the first point yield NaN. Every sample
// comes from one step walk — the window bounds Query uses — instead of
// a binary search per instant, so hot and cold tiers resolve
// identically for every sample.
func (db *DB) Grid(k SeriesKey, from, to time.Time, step time.Duration) ([]float64, error) {
	if step <= 0 || to.Before(from) {
		return nil, nil
	}
	var out []float64
	t, cur := from, math.NaN()
	err := db.steps(k, from, to, func(p Point) {
		for ; p.At.After(t); t = t.Add(step) {
			out = append(out, cur)
		}
		cur = p.Value
	})
	if err != nil {
		return nil, err
	}
	for ; !t.After(to); t = t.Add(step) {
		out = append(out, cur)
	}
	return out, nil
}

// ChangeIntervals returns the durations between consecutive points of the
// series. When points are appended via AppendIfChanged these are the
// value-change intervals of Figure 10. The series streams through
// iterateView one decoded block at a time (the intervals themselves are
// the only full-length allocation).
func (db *DB) ChangeIntervals(k SeriesKey) ([]time.Duration, error) {
	v := db.view(k)
	total := v.total()
	if total < 2 {
		return nil, nil
	}
	out := make([]time.Duration, 0, total-1)
	var prev int64
	first := true
	r := coldRead{horizon: noHorizon}
	err := db.iterateView(v, &r, 0, total, func(pts []sample) error {
		for _, p := range pts {
			if !first {
				out = append(out, subNanos(p.ns, prev))
			}
			prev = p.ns
			first = false
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Last returns the most recent point of the series. It reads the
// series' last point under its shard's read lock and decodes nothing, so
// its error is always nil.
func (db *DB) Last(k SeriesKey) (Point, bool, error) {
	h, sh := db.locate(k)
	sh.mu.RLock()
	s := sh.find(h, k)
	var p sample
	if s != nil {
		p = s.last
	}
	sh.mu.RUnlock()
	if s == nil {
		return Point{}, false, nil
	}
	return p.point(), true, nil
}

// KeyFilter selects series keys; empty fields match anything.
type KeyFilter struct {
	Dataset string
	Type    string
	Region  string
	AZ      string
}

func (f KeyFilter) matches(k SeriesKey) bool {
	return (f.Dataset == "" || f.Dataset == k.Dataset) &&
		(f.Type == "" || f.Type == k.Type) &&
		(f.Region == "" || f.Region == k.Region) &&
		(f.AZ == "" || f.AZ == k.AZ)
}

// Keys returns the series keys matching the filter, sorted canonically.
// Shards are visited one at a time; no global lock is held. The
// canonical forms are rendered once before sorting — comparing via
// String() inside the sort would allocate two strings per comparison,
// the dominant cost of every broad query's key-matching phase.
func (db *DB) Keys(f KeyFilter) []SeriesKey {
	var out []SeriesKey
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		sh.each(func(s *series) {
			if f.matches(s.key) {
				out = append(out, s.key)
			}
		})
		sh.mu.RUnlock()
	}
	canon := make([]string, len(out))
	for i := range out {
		canon[i] = out[i].String()
	}
	sort.Sort(&keysByCanon{keys: out, canon: canon})
	return out
}

// keysByCanon sorts a key slice by its precomputed canonical forms,
// keeping the two slices paired through swaps.
type keysByCanon struct {
	keys  []SeriesKey
	canon []string
}

func (s *keysByCanon) Len() int           { return len(s.keys) }
func (s *keysByCanon) Less(i, j int) bool { return s.canon[i] < s.canon[j] }
func (s *keysByCanon) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.canon[i], s.canon[j] = s.canon[j], s.canon[i]
}

// SeriesCount returns the number of series.
func (db *DB) SeriesCount() int {
	n := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		n += sh.seriesCount()
		sh.mu.RUnlock()
	}
	return n
}

// PointCount returns the total number of stored points, aggregated from
// the per-shard counters.
func (db *DB) PointCount() int {
	n := 0
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		n += sh.points
		sh.mu.RUnlock()
	}
	return n
}

// MaxTime returns the latest point timestamp anywhere in the store. ok is
// false for an empty store. Services resuming over a recovered archive use
// it to fast-forward their clock past the restored data.
func (db *DB) MaxTime() (time.Time, bool) {
	var max int64
	found := false
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		sh.each(func(s *series) {
			if !found || s.last.ns > max {
				max, found = s.last.ns, true
			}
		})
		sh.mu.RUnlock()
	}
	if !found {
		return time.Time{}, false
	}
	return time.Unix(0, max).UTC(), true
}

// Flush hands the log's buffered records to the kernel and fsyncs them
// to stable storage: an acknowledged append, process-crash safe on
// return, is power-loss safe once Flush returns. It takes only the log
// lock, and only for the buffer flush: the fsync runs outside it, so
// appends and reads never wait on disk latency. A checkpoint's swapped-out segments are synced too until
// the checkpoint has synced them: replay stops at a torn record, so a
// point acknowledged in the new segment is only durable once the old one
// is. A file closed between the two steps reports ErrClosed and is
// skipped: whoever closed it (the checkpoint, or Close) synced it first.
func (db *DB) Flush() error {
	db.logMu.Lock()
	if db.wal == nil {
		db.logMu.Unlock()
		return nil
	}
	err := db.wal.Flush()
	f, retired := db.walF, db.unsynced
	db.logMu.Unlock()
	if err == nil && len(retired) > 0 {
		err = db.syncRetired(retired)
	}
	if err == nil {
		if err = f.Sync(); errors.Is(err, os.ErrClosed) {
			err = nil
		}
	}
	if err != nil {
		return fmt.Errorf("tsdb: flush: %w", err)
	}
	return nil
}

// Close flushes and closes the store. Further writes fail. Close quiesces
// every shard so no append is mid-flight when the log is closed. The
// maintenance daemon, if any, is stopped first — an in-flight maintenance
// checkpoint completes before any segment file is closed.
func (db *DB) Close() error {
	if db.closed.CompareAndSwap(false, true) {
		db.stopMaintainer()
	}
	for i := range db.shards {
		db.shards[i].mu.Lock()
	}
	defer func() {
		for i := range db.shards {
			db.shards[i].mu.Unlock()
		}
	}()
	var firstErr error
	db.logMu.Lock()
	if db.wal != nil {
		// Flush AND fsync: Close is the durability boundary a clean
		// shutdown relies on (and Flush's out-of-lock sync treats a
		// concurrently-closed file as "Close will have synced it").
		err := db.wal.Flush()
		for _, f := range append(db.unsynced, db.walF) {
			if err == nil {
				err = f.Sync()
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			firstErr = fmt.Errorf("tsdb: close log: %w", err)
		}
		db.wal, db.walF, db.unsynced = nil, nil, nil
	}
	db.logMu.Unlock()
	// Reads decode outside the shard locks, so one may still hold a view
	// naming these files: os.File refcounting lets an in-flight ReadAt
	// finish, and a read starting after the close gets errClosed.
	for _, seg := range db.coldSegs {
		if err := seg.f.Close(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("tsdb: close block file %d: %w", seg.seq, err)
		}
	}
	db.coldSegs = nil
	return firstErr
}

// HotPointCount returns how many points are unsealed: held in memory, as
// the last checkpoint's blocks or the raw tails appended since.
func (db *DB) HotPointCount() int64 { return db.hotPts.Load() }

// hotBytes returns the memory the unsealed points hold: the raw tails'
// sample capacity, 16 bytes a sample, plus the encoded bytes of the
// checkpoint's blocks. Shards are visited one at a time.
func (db *DB) hotBytes() int64 {
	var n int64
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		sh.each(func(s *series) {
			n += int64(cap(s.points)) * sampleBytes
			for _, b := range s.blocks[s.sealed:] {
				n += int64(b.length)
			}
		})
		sh.mu.RUnlock()
	}
	return n
}

// ColdPointCount returns how many points have been sealed into
// compressed blocks on disk.
func (db *DB) ColdPointCount() int64 { return db.coldPts.Load() }

// SealedBlocks returns how many compressed blocks the cold tier holds.
func (db *DB) SealedBlocks() int64 { return db.sealedBlks.Load() }

// coldCompressedBytes returns the cold tier's compressed on-disk block
// bytes (data sections only, excluding per-file index overhead).
func (db *DB) coldCompressedBytes() int64 { return db.coldBytes.Load() }

// coldReadErrors returns how many cold block reads have failed —
// nonzero means on-disk corruption or a vanished block file. The
// affected reads returned ErrColdRead rather than partial results.
func (db *DB) coldReadErrors() uint64 { return db.coldErrs.Value() }

// scannedPoints returns how many points reads have materialized since
// open: raw-tail copies and decoded block windows, across every
// read API. A rollup read counts the raw points it folds, not the
// buckets it returns.
func (db *DB) scannedPoints() uint64 { return db.scanned.Value() }
