package tsdb

// Rollup tiers and per-dataset raw retention.
//
// Long-horizon queries (the paper's month-scale Figures 6/7 views) should
// not pay to decode every raw tick: every sealing store keeps downsampled
// rollups — min/max/mean/last at 1h and 1d — beside each raw series, in
// memory, as one bucket array per resolution. Query-time resolution
// selection (internal/archive's resolution= parameter) reads them through
// Tier: ~2k 1h buckets for a 90-day window instead of ~130k raw points.
//
// # Build protocol
//
// A bucket [t, t+res) is final exactly when t < bucketStart(cold.lastAt):
// appends are monotone per series and every hot point sits at or after
// cold.lastAt. Only a seal moves cold.lastAt, so the build is part of the
// checkpoint that seals. For each series it seals, the checkpoint folds
// the points from the tier's next bucket up to the new frontier — the
// sealed prefix it is about to encode, plus at most one frontier bucket
// of earlier cold points — into new buckets (sealBuckets). It then writes
// every series' tiers, old buckets and new, as one rollup snapshot
// (rollup-<seq>.snap, codec below) before the manifest commit, and the
// manifest names that snapshot beside the block file of the same seal.
// Blocks and the buckets covering them become durable in one rename:
// no crash leaves one without the other, so there is no catch-up build
// at open and no per-bucket log. Readers see the new buckets only after
// the commit, appended to each series' tiers under its shard lock.
//
// Mean divides a time-ordered sum, so refolding a bucket from the same
// immutable points reproduces it bit for bit, which is what the
// differential tests assert.
//
// # Retention protocol
//
// Per-dataset retention (Options.RetainRaw) drops raw *cold blocks*
// whose entire range precedes the dataset's cut. The invariant — never
// drop a raw point no committed rollup covers — is structural:
//
//	cut = min(maxAt - horizon, coverage)
//	coverage = min over the dataset's sealed series of bucketStart_1d(lastAt)
//
// so cut <= coverage <= every series' finalized frontier, and a dropped
// block's points (all below cut) lie in buckets that committed with the
// seal that moved lastAt past them. Backfilled series drag coverage down
// and simply postpone the cut. Enforcement runs after the checkpoint's
// commit, under the same cpMu hold: commit the manifest carrying the cut
// and the shrunk block-file list (the usual rename commit point), detach
// the dropped blocks in memory under the shard locks, then unlink block
// files that became entirely dead. Partially-dead files stay; their
// dropped blocks are re-dropped at open by replaying the manifest's
// committed cuts. File handles stay open until Close, so a reader holding
// a pre-drop seriesView keeps working.
//
// Hot points are never dropped: retention is a cold-tier policy, and the
// hot tail is bounded by sealing already.
//
// # Rollup snapshot format (version 1)
//
//	header:  8-byte magic "SLROLLUP" | u16 version | u32 series count
//	record:  u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//	payload: u16 key length | canonical key bytes |
//	         per resolution (1h, 1d): u32 bucket count |
//	         bucket count × (varint start/res delta | 4 × f64 bits)
//
// Integers are little-endian. A bucket's start is a multiple of its
// resolution, written as the signed varint difference of start/res from
// the previous bucket's (from 0 for the first), so a full hour of 1h
// buckets costs one byte of timestamp; the aggregates follow in Agg
// order. Records appear sorted by canonical key, each independently
// length-prefixed and CRC-checked, and a decode of hostile input returns
// an error, never panics.

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Rollup resolutions. Each finalized raw bucket of these widths is
// materialized as one bucket holding every Agg.
const (
	Res1h = time.Hour
	Res1d = 24 * time.Hour
)

// rollupResolutions lists the materialized resolutions, finest first.
var rollupResolutions = [...]time.Duration{Res1h, Res1d}

// ResName returns the canonical name of a rollup resolution ("1h", "1d"),
// or "" for a width the store does not materialize.
func ResName(res time.Duration) string {
	switch res {
	case Res1h:
		return "1h"
	case Res1d:
		return "1d"
	}
	return ""
}

// ParseResolution parses a canonical rollup resolution name. It reports
// false for anything else — including "raw" and "auto", which are query
// protocol concepts, not stored resolutions.
func ParseResolution(s string) (time.Duration, bool) {
	switch s {
	case "1h":
		return Res1h, true
	case "1d":
		return Res1d, true
	}
	return 0, false
}

// Agg identifies one downsampling aggregate.
type Agg uint8

const (
	AggMin Agg = iota
	AggMax
	AggMean
	AggLast
)

// rollupAggs lists every materialized aggregate, in stored order.
var rollupAggs = [...]Agg{AggMin, AggMax, AggMean, AggLast}

func (a Agg) String() string {
	switch a {
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggMean:
		return "mean"
	case AggLast:
		return "last"
	}
	return fmt.Sprintf("agg(%d)", uint8(a))
}

// ParseAgg parses a canonical aggregate name.
func ParseAgg(s string) (Agg, bool) {
	switch s {
	case "min":
		return AggMin, true
	case "max":
		return AggMax, true
	case "mean":
		return AggMean, true
	case "last":
		return AggLast, true
	}
	return 0, false
}

// bucket is one finalized rollup bucket [start, start+res): the
// aggregates of the raw points inside it, indexed by Agg.
type bucket struct {
	start int64 // unix nanoseconds, a multiple of the resolution
	v     [len(rollupAggs)]float64
}

// bucketStart floors a unix-nano timestamp to its bucket's start.
func bucketStart(at int64, res time.Duration) int64 {
	r := int64(res)
	m := at % r
	if m < 0 {
		m += r
	}
	return at - m
}

// Tier is one rollup tier of a store — a resolution and an aggregate —
// read by raw series key through the raw reads' positions: CountAfter,
// QueryAfter and Query mean what they mean on DB, over the tier's
// buckets instead of the series' points. Bucket timestamps are unique
// per series, so a position's sequence can only skip the bucket at
// exactly its timestamp.
type Tier struct {
	db  *DB
	r   int // index into rollupResolutions
	agg Agg
}

// Tier returns the tier holding agg at res. ok is false when res is not
// a materialized resolution or the store keeps no rollups: buckets are
// built as history seals, so only sealing stores have them.
func (db *DB) Tier(res time.Duration, agg Agg) (Tier, bool) {
	if !db.SealsCold() || int(agg) >= len(rollupAggs) {
		return Tier{}, false
	}
	for r, d := range rollupResolutions {
		if d == res {
			return Tier{db: db, r: r, agg: agg}, true
		}
	}
	return Tier{}, false
}

// buckets captures k's buckets at the tier's resolution under the shard's
// read lock. New buckets are only ever appended past the captured length,
// so the capture stays valid after the lock is released.
func (t Tier) buckets(k SeriesKey) []bucket {
	sh := t.db.shardFor(k)
	sh.mu.RLock()
	var bs []bucket
	if s := sh.series[k]; s != nil {
		bs = s.rollups[t.r]
	}
	sh.mu.RUnlock()
	return bs[:len(bs):len(bs)]
}

// bucketBounds is afterBounds over a bucket array: the window [lo, hi) of
// the buckets after the position (after, seq) and at or before to.
func bucketBounds(bs []bucket, after time.Time, seq int, to time.Time) (lo, hi int) {
	a, t := unixNanos(after), unixNanos(to)
	lo = sort.Search(len(bs), func(i int) bool { return bs[i].start >= a })
	if seq > 0 && lo < len(bs) && bs[lo].start == a {
		lo++
	}
	hi = sort.Search(len(bs), func(i int) bool { return bs[i].start > t })
	return lo, hi
}

// CountAfter is DB.CountAfter over the tier's buckets.
func (t Tier) CountAfter(k SeriesKey, after time.Time, seq int, to time.Time) (int, error) {
	lo, hi := bucketBounds(t.buckets(k), after, seq, to)
	if lo >= hi {
		return 0, nil
	}
	return hi - lo, nil
}

// QueryAfter is DB.QueryAfter over the tier's buckets: each bucket is one
// point at its start carrying the tier's aggregate.
func (t Tier) QueryAfter(k SeriesKey, after time.Time, seq int, to time.Time, max int) ([]Point, error) {
	bs := t.buckets(k)
	lo, hi := bucketBounds(bs, after, seq, to)
	if max >= 0 && max < hi-lo {
		hi = lo + max
	}
	if lo >= hi {
		return nil, nil
	}
	out := make([]Point, hi-lo)
	for i := range out {
		b := &bs[lo+i]
		out[i] = sample{ns: b.start, v: b.v[t.agg]}.point()
	}
	t.db.scanned.Add(uint64(len(out)))
	return out, nil
}

// Query returns the tier's points within [from, to], oldest first.
func (t Tier) Query(k SeriesKey, from, to time.Time) ([]Point, error) {
	return t.QueryAfter(k, from, 0, to, -1)
}

// foldBuckets folds the view's points in [from, end) into res buckets.
// from is a bucket start, or noCut for the series' first point.
func (db *DB) foldBuckets(v seriesView, res time.Duration, from, end int64) ([]bucket, error) {
	lo := 0
	if from != noCut {
		var err error
		lo, err = db.searchView(v, func(ns int64) bool { return ns >= from })
		if err != nil {
			return nil, err
		}
	}
	hi, err := db.searchView(v, func(ns int64) bool { return ns >= end })
	if err != nil {
		return nil, err
	}
	var (
		out  []bucket
		cur  bucket
		sum  float64
		n    int64
		open bool
	)
	flush := func() {
		if open {
			cur.v[AggMean] = sum / float64(n)
			out = append(out, cur)
		}
	}
	err = db.iterateView(v, lo, hi, func(pts []sample) error {
		for _, p := range pts {
			bs := bucketStart(p.ns, res)
			if !open || bs != cur.start {
				flush()
				cur = bucket{start: bs, v: [len(rollupAggs)]float64{p.v, p.v, 0, p.v}}
				sum, n, open = p.v, 1, true
				continue
			}
			if p.v < cur.v[AggMin] {
				cur.v[AggMin] = p.v
			}
			if p.v > cur.v[AggMax] {
				cur.v[AggMax] = p.v
			}
			sum += p.v
			cur.v[AggLast] = p.v
			n++
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	flush()
	return out, nil
}

// rollupGrowth is the buckets one seal finalizes for one series, per
// resolution.
type rollupGrowth struct {
	key SeriesKey
	add [len(rollupResolutions)][]bucket
}

// sealBuckets returns the buckets that sealing `sealed` — the captured
// prefix of k's hot tail about to become cold — finalizes: per
// resolution, from the tier's next bucket up to bucketStart of the new
// cold frontier. ok is false when the seal finalizes nothing. The caller
// holds cpMu, so k's cold blocks and tiers cannot change underfoot.
func (db *DB) sealBuckets(k SeriesKey, sealed []sample) (g rollupGrowth, ok bool, err error) {
	sh := db.shardFor(k)
	sh.mu.RLock()
	s := sh.series[k]
	v := viewLocked(s)
	tiers := s.rollups
	sh.mu.RUnlock()
	v.hot = sealed
	lastAt := sealed[len(sealed)-1].ns
	g.key = k
	for r, res := range rollupResolutions {
		next := int64(noCut)
		if n := len(tiers[r]); n > 0 {
			next = tiers[r][n-1].start + int64(res)
		}
		end := bucketStart(lastAt, res)
		if next >= end {
			continue
		}
		if g.add[r], err = db.foldBuckets(v, res, next, end); err != nil {
			return g, false, fmt.Errorf("tsdb: rollup build for %v at %s: %w", k, ResName(res), err)
		}
		ok = ok || len(g.add[r]) > 0
	}
	return g, ok, nil
}

// rollupRecord is one series' tiers as the snapshot codec sees them:
// committed buckets (old) followed by a seal's new ones (add, empty when
// decoding).
type rollupRecord struct {
	key   SeriesKey
	canon string
	old   [len(rollupResolutions)][]bucket
	add   [len(rollupResolutions)][]bucket
}

func rollupName(seq uint64) string { return fmt.Sprintf("rollup-%06d.snap", seq) }

const (
	rollupMagic   = "SLROLLUP"
	rollupVersion = 1
	// rollupBucketBytes is the smallest encoded bucket (one-byte varint);
	// the decoder bounds a record's bucket counts by it before allocating.
	rollupBucketBytes = 1 + 8*len(rollupAggs)
)

// writeRollupFile writes every series' committed tiers extended by grown
// as the rollup snapshot name and returns its size. The caller holds
// cpMu, so no tier changes while it runs; shard locks are held only to
// copy slice headers.
func (db *DB) writeRollupFile(name string, grown []rollupGrowth) (int64, error) {
	byKey := make(map[SeriesKey]*rollupGrowth, len(grown))
	for i := range grown {
		byKey[grown[i].key] = &grown[i]
	}
	var recs []rollupRecord
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for k, s := range sh.series {
			g := byKey[k]
			if g == nil && s.rollupCount() == 0 {
				continue
			}
			rec := rollupRecord{key: k, canon: k.String(), old: s.rollups}
			if g != nil {
				rec.add = g.add
			}
			recs = append(recs, rec)
		}
		sh.mu.RUnlock()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].canon < recs[j].canon })
	path := filepath.Join(db.dir, name)
	if err := atomicWriteFile(path, func(w io.Writer) error {
		return encodeRollups(w, recs)
	}, db.cpHook("checkpoint:rollups")); err != nil {
		return 0, err
	}
	st, err := os.Stat(path)
	if err != nil {
		return 0, fmt.Errorf("tsdb: rollup snapshot: %w", err)
	}
	return st.Size(), nil
}

// installRollups appends a committed seal's new buckets to their series'
// tiers and records the committed snapshot's size. A rollup read answers
// from its shard's generation like any read, so the shard's generation
// moves with its buckets.
func (db *DB) installRollups(grown []rollupGrowth, size int64) {
	if len(grown) == 0 {
		return
	}
	db.rollupBytes.Store(size)
	for i := range grown {
		g := &grown[i]
		sh := db.shardFor(g.key)
		sh.mu.Lock()
		s := sh.series[g.key]
		for r := range g.add {
			s.rollups[r] = append(s.rollups[r], g.add[r]...)
			db.rollupBkts.Add(int64(len(g.add[r])))
		}
		sh.gen.Add(1)
		sh.mu.Unlock()
	}
}

// loadRollupFile installs the committed rollup snapshot name into the
// store's series at open (single-threaded). A series the snapshot names
// but the raw tiers do not yet hold is created empty.
func (db *DB) loadRollupFile(name string) error {
	f, err := os.Open(filepath.Join(db.dir, name))
	if err != nil {
		return fmt.Errorf("tsdb: opening rollup snapshot: %w", err)
	}
	defer f.Close()
	recs, err := decodeRollups(f)
	if err != nil {
		return fmt.Errorf("tsdb: loading rollup snapshot: %w", err)
	}
	for _, rec := range recs {
		sh := db.shardFor(rec.key)
		s := sh.series[rec.key]
		if s == nil {
			s = &series{}
			sh.series[rec.key] = s
			db.keyGen.Add(1)
		}
		s.rollups = rec.old
		db.rollupBkts.Add(int64(s.rollupCount()))
	}
	if st, err := f.Stat(); err == nil {
		db.rollupBytes.Store(st.Size())
	}
	return nil
}

// encodeRollups writes recs, sorted by canonical key, in rollup snapshot
// format.
func encodeRollups(w io.Writer, recs []rollupRecord) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	head := make([]byte, 0, len(rollupMagic)+6)
	head = append(head, rollupMagic...)
	head = binary.LittleEndian.AppendUint16(head, rollupVersion)
	head = binary.LittleEndian.AppendUint32(head, uint32(len(recs)))
	if _, err := bw.Write(head); err != nil {
		return fmt.Errorf("tsdb: rollup snapshot write: %w", err)
	}
	var payload []byte
	for i := range recs {
		rec := &recs[i]
		payload = binary.LittleEndian.AppendUint16(payload[:0], uint16(len(rec.canon)))
		payload = append(payload, rec.canon...)
		for r, res := range rollupResolutions {
			payload = binary.LittleEndian.AppendUint32(payload, uint32(len(rec.old[r])+len(rec.add[r])))
			prev := int64(0)
			for _, part := range [2][]bucket{rec.old[r], rec.add[r]} {
				for j := range part {
					b := &part[j]
					idx := b.start / int64(res)
					payload = binary.AppendVarint(payload, idx-prev)
					prev = idx
					for _, x := range b.v {
						payload = binary.LittleEndian.AppendUint64(payload, math.Float64bits(x))
					}
				}
			}
		}
		if len(payload) > maxSnapshotPayload {
			return fmt.Errorf("tsdb: rollup snapshot: %v needs %d bytes, over the %d-byte record bound", rec.key, len(payload), maxSnapshotPayload)
		}
		var rh [8]byte
		binary.LittleEndian.PutUint32(rh[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(rh[4:], crc32.ChecksumIEEE(payload))
		if _, err := bw.Write(rh[:]); err != nil {
			return fmt.Errorf("tsdb: rollup snapshot write: %w", err)
		}
		if _, err := bw.Write(payload); err != nil {
			return fmt.Errorf("tsdb: rollup snapshot write: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("tsdb: rollup snapshot write: %w", err)
	}
	return nil
}

// decodeRollups parses and validates a whole rollup snapshot before
// anything is installed: every record's CRC, strictly ascending keys,
// strictly ascending bucket starts within each resolution, exact payload
// lengths, and no trailing data.
func decodeRollups(r io.Reader) ([]rollupRecord, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(rollupMagic)+6)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("tsdb: rollup snapshot header: %w", err)
	}
	if string(head[:len(rollupMagic)]) != rollupMagic {
		return nil, errors.New("tsdb: rollup snapshot: bad magic")
	}
	if v := binary.LittleEndian.Uint16(head[len(rollupMagic):]); v != rollupVersion {
		return nil, fmt.Errorf("tsdb: rollup snapshot: unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint32(head[len(rollupMagic)+2:])
	out := make([]rollupRecord, 0, min(int(count), 4096))
	var rh [8]byte
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, rh[:]); err != nil {
			return nil, fmt.Errorf("tsdb: rollup snapshot record %d header: %w", i, err)
		}
		plen := binary.LittleEndian.Uint32(rh[:4])
		if plen < 2 || plen > maxSnapshotPayload {
			return nil, fmt.Errorf("tsdb: rollup snapshot record %d: invalid payload length %d", i, plen)
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, fmt.Errorf("tsdb: rollup snapshot record %d body: %w", i, err)
		}
		if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(rh[4:]) {
			return nil, fmt.Errorf("tsdb: rollup snapshot record %d: CRC mismatch", i)
		}
		rec, err := decodeRollupRecord(payload)
		if err != nil {
			return nil, fmt.Errorf("tsdb: rollup snapshot record %d: %w", i, err)
		}
		if n := len(out); n > 0 && rec.canon <= out[n-1].canon {
			return nil, fmt.Errorf("tsdb: rollup snapshot record %d (%v): keys not strictly ascending", i, rec.key)
		}
		out = append(out, rec)
	}
	var one [1]byte
	if _, err := io.ReadFull(br, one[:]); err != io.EOF {
		return nil, errors.New("tsdb: rollup snapshot: trailing data after last record")
	}
	return out, nil
}

// decodeRollupRecord parses one CRC-checked record payload.
func decodeRollupRecord(p []byte) (rollupRecord, error) {
	var rec rollupRecord
	keyLen := int(binary.LittleEndian.Uint16(p))
	if 2+keyLen > len(p) {
		return rec, fmt.Errorf("key length %d overruns payload", keyLen)
	}
	rec.canon = string(p[2 : 2+keyLen])
	k, err := ParseSeriesKey(rec.canon)
	if err != nil {
		return rec, err
	}
	rec.key = k
	p = p[2+keyLen:]
	for r, res := range rollupResolutions {
		if len(p) < 4 {
			return rec, fmt.Errorf("%v: truncated %s bucket count", k, ResName(res))
		}
		n := binary.LittleEndian.Uint32(p)
		p = p[4:]
		if uint64(n) > uint64(len(p)/rollupBucketBytes) {
			return rec, fmt.Errorf("%v: %d %s buckets overrun payload", k, n, ResName(res))
		}
		bs := make([]bucket, n)
		idx := int64(0)
		for j := range bs {
			d, w := binary.Varint(p)
			if w <= 0 || len(p)-w < 8*len(rollupAggs) {
				return rec, fmt.Errorf("%v: truncated %s bucket %d", k, ResName(res), j)
			}
			p = p[w:]
			if j > 0 && d < 1 {
				return rec, fmt.Errorf("%v: %s buckets not strictly ascending", k, ResName(res))
			}
			idx += d
			if idx > math.MaxInt64/int64(res) || idx < math.MinInt64/int64(res) {
				return rec, fmt.Errorf("%v: %s bucket %d outside the timestamp range", k, ResName(res), j)
			}
			bs[j].start = idx * int64(res)
			for a := range bs[j].v {
				bs[j].v[a] = math.Float64frombits(binary.LittleEndian.Uint64(p))
				p = p[8:]
			}
		}
		rec.old[r] = bs
	}
	if len(p) != 0 {
		return rec, fmt.Errorf("%v: %d trailing payload bytes", k, len(p))
	}
	return rec, nil
}

// noCut marks an unknown timestamp in the retention atomics (no append
// seen yet, no coverage computed yet, no cut committed yet).
const noCut = math.MinInt64

// retentionState is one retained dataset's live bookkeeping. All fields
// are atomics: the append path bumps maxAt, the maintenance trigger reads
// everything lock-free, and the authoritative transitions (coverage, cut)
// happen under cpMu.
type retentionState struct {
	horizon time.Duration
	// maxAt is the dataset's newest raw timestamp (simulated time, not
	// wall clock — the archive replays history far faster than reality).
	maxAt atomic.Int64
	// coverage is the dataset's rollup frontier as of the last seal:
	// every raw point below it lies in a committed finalized bucket.
	coverage atomic.Int64
	// cut is the committed retention cut (manifest Retain): raw cold
	// blocks wholly below it have been dropped.
	cut atomic.Int64
	// lastEval is the cut estimate at the last enforcement evaluation.
	// The trigger fires only when the estimate moves past it, so a store
	// with nothing new to drop does not checkpoint every tick.
	lastEval atomic.Int64
	// dropped counts raw points dropped by retention since open.
	dropped obs.Counter
}

// casMax raises a to v if v is larger.
func casMax(a *atomic.Int64, v int64) {
	for {
		cur := a.Load()
		if v <= cur || a.CompareAndSwap(cur, v) {
			return
		}
	}
}

// cutEstimate returns the dataset's current retention cut candidate:
// min(maxAt - horizon, coverage). ok is false until an append exists,
// and while the horizon reaches back past the first representable
// instant (maxAt - horizon would underflow: nothing is old enough).
// Unknown coverage (nothing sealed yet — e.g. a fresh store before its
// first checkpoint) is treated optimistically as unbounded so the
// trigger can arm and drive the checkpoint that seals; this cannot
// over-drop, because enforcement evaluates after that seal under the
// same lock, when coverage is real — and a dataset whose coverage is
// still unknown then has no sealed blocks to drop at all.
func (rs *retentionState) cutEstimate() (int64, bool) {
	maxAt, cov := rs.maxAt.Load(), rs.coverage.Load()
	if maxAt == noCut {
		return 0, false
	}
	est := maxAt - int64(rs.horizon)
	if est > maxAt {
		return 0, false
	}
	if cov != noCut && cov < est {
		est = cov
	}
	return est, true
}

// noteAppend records a raw append's timestamp for the dataset's retention
// trigger. Called from the append path only when retention is configured.
func (db *DB) noteAppend(ds string, ns int64) {
	if rs := db.retain[ds]; rs != nil {
		casMax(&rs.maxAt, ns)
	}
}

// RetentionCut returns the dataset's committed retention cut: raw points
// before it may have been dropped (rollups still cover them). ok is false
// when the dataset has no retention configured or nothing was ever cut.
func (db *DB) RetentionCut(dataset string) (time.Time, bool) {
	rs := db.retain[dataset]
	if rs == nil {
		return time.Time{}, false
	}
	cut := rs.cut.Load()
	if cut == noCut {
		return time.Time{}, false
	}
	return time.Unix(0, cut).UTC(), true
}

// RetentionStat is one retained dataset's surfaced state.
type RetentionStat struct {
	// Dataset is the retained dataset.
	Dataset string
	// Horizon is the configured raw horizon behind the dataset's newest
	// point.
	Horizon time.Duration
	// Cut is the committed retention cut; zero when nothing was cut yet.
	Cut time.Time
	// CoveredThrough is the rollup coverage frontier as of the last seal;
	// zero before the first. The cut never passes it.
	CoveredThrough time.Time
	// DroppedPoints counts raw points retention dropped since open.
	DroppedPoints int64
}

// RetentionStats returns every retained dataset's state, sorted by
// dataset.
func (db *DB) RetentionStats() []RetentionStat {
	out := make([]RetentionStat, 0, len(db.retain))
	for ds, rs := range db.retain {
		st := RetentionStat{Dataset: ds, Horizon: rs.horizon, DroppedPoints: int64(rs.dropped.Value())}
		if cut := rs.cut.Load(); cut != noCut {
			st.Cut = time.Unix(0, cut).UTC()
		}
		if cov := rs.coverage.Load(); cov != noCut {
			st.CoveredThrough = time.Unix(0, cov).UTC()
		}
		out = append(out, st)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Dataset < out[j].Dataset })
	return out
}

// ParseRetainRaw parses a -retain-raw flag value: comma-separated
// <dataset>=<horizon> pairs where horizon is a Go duration ("720h") or a
// day count ("90d").
func ParseRetainRaw(s string) (map[string]time.Duration, error) {
	out := make(map[string]time.Duration)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		ds, spec, ok := strings.Cut(part, "=")
		if !ok || ds == "" || spec == "" {
			return nil, fmt.Errorf("tsdb: retain-raw entry %q: want <dataset>=<horizon>", part)
		}
		var d time.Duration
		if days, dok := strings.CutSuffix(spec, "d"); dok {
			n, err := strconv.Atoi(days)
			if err != nil || n <= 0 {
				return nil, fmt.Errorf("tsdb: retain-raw horizon %q: want a positive day count", spec)
			}
			d = time.Duration(n) * 24 * time.Hour
		} else {
			var err error
			d, err = time.ParseDuration(spec)
			if err != nil {
				return nil, fmt.Errorf("tsdb: retain-raw horizon %q: %v", spec, err)
			}
		}
		if d <= 0 {
			return nil, fmt.Errorf("tsdb: retain-raw horizon %q: must be positive", spec)
		}
		if _, dup := out[ds]; dup {
			return nil, fmt.Errorf("tsdb: retain-raw dataset %q repeated", ds)
		}
		out[ds] = d
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("tsdb: retain-raw %q: no entries", s)
	}
	return out, nil
}

// coverageLocked returns each sealed series' rollup frontier,
// bucketStart_1d(cold.lastAt) — the coarsest resolution's, so every raw
// point below it lies in a committed bucket at every resolution — and
// stores each retained dataset's minimum, the bound on its cut, into its
// retention state. The caller holds cpMu (the checkpoint tail, or Open
// before the store is shared).
func (db *DB) coverageLocked() map[SeriesKey]int64 {
	perSeries := make(map[SeriesKey]int64)
	perDataset := make(map[string]int64)
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for k, s := range sh.series {
			if s.cold == nil || s.cold.n == 0 {
				continue
			}
			c := bucketStart(s.cold.lastAt, Res1d)
			perSeries[k] = c
			if cur, ok := perDataset[k.Dataset]; !ok || c < cur {
				perDataset[k.Dataset] = c
			}
		}
		sh.mu.RUnlock()
	}
	for ds, rs := range db.retain {
		if c, ok := perDataset[ds]; ok {
			rs.coverage.Store(c)
		}
	}
	return perSeries
}

// dropColdBelow drops, for every series, the prefix of sealed blocks
// whose maxAt precedes cut(key) (noCut return = keep everything). Each
// affected series gets a fresh coldSeries with re-based start indices, so
// previously captured seriesViews stay valid; counters and generations
// adjust under the shard locks. It returns per-block-file dropped and
// total block counts (keyed by file sequence number) so the caller can
// unlink files that became entirely dead. The caller holds cpMu, so the
// cold tier cannot change underfoot.
func (db *DB) dropColdBelow(cut func(SeriesKey) int64, onDrop func(ds string, pts int64)) (dropped, total map[uint64]int) {
	dropped, total = make(map[uint64]int), make(map[uint64]int)
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.Lock()
		for k, s := range sh.series {
			if s.cold == nil {
				continue
			}
			for bi := range s.cold.blocks {
				total[s.cold.blocks[bi].seg.seq]++
			}
			c := cut(k)
			if c == noCut {
				continue
			}
			// Blocks are time-ordered and non-overlapping, so the
			// droppable set is a prefix.
			idx := 0
			for idx < len(s.cold.blocks) && s.cold.blocks[idx].maxAt < c {
				idx++
			}
			if idx == 0 {
				continue
			}
			var pts int64
			var bytes int64
			for bi := 0; bi < idx; bi++ {
				b := &s.cold.blocks[bi]
				pts += int64(b.count)
				bytes += int64(b.length)
				dropped[b.seg.seq]++
			}
			// lastAt survives even a full drop: it is the out-of-order
			// guard, and retention must not reopen the past to writes.
			nc := &coldSeries{lastAt: s.cold.lastAt}
			for _, b := range s.cold.blocks[idx:] {
				b.start = nc.n
				nc.blocks = append(nc.blocks, b)
				nc.n += int(b.count)
			}
			s.cold = nc
			sh.points -= int(pts)
			sh.gen.Add(uint64(pts))
			db.coldPts.Add(-pts)
			db.sealedBlks.Add(int64(-idx))
			db.coldBytes.Add(-bytes)
			if onDrop != nil {
				onDrop(k.Dataset, pts)
			}
		}
		sh.mu.Unlock()
	}
	return dropped, total
}

// enforceRetentionLocked evaluates every retained dataset against the
// coverage just computed (same cpMu hold — never a stale atomic) and,
// when raw cold blocks have fallen wholly below a dataset's cut, drops
// them. The buckets covering them committed with the seals that moved
// the frontier past them, so the drop needs only its own commit. Durable
// order: manifest commit carrying the new cuts and the shrunk block-file
// list (the rename commit point), in-memory detach, then unlink of files
// with no live blocks left. A crash between any two steps recovers to a
// state where every surviving raw point is intact and every dropped one
// has a durable rollup covering it.
func (db *DB) enforceRetentionLocked() error {
	cuts := make(map[string]int64)
	for ds, rs := range db.retain {
		est, ok := rs.cutEstimate()
		if !ok {
			continue
		}
		rs.lastEval.Store(est)
		if est > rs.cut.Load() {
			cuts[ds] = est
		}
	}
	if len(cuts) == 0 {
		return nil
	}
	cutFor := func(k SeriesKey) int64 {
		if c, ok := cuts[k.Dataset]; ok {
			return c
		}
		return noCut
	}
	// Dry scan first (metadata only, read locks): commit nothing when no
	// block is droppable yet — the common case while the horizon chases a
	// young archive.
	droppable := false
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for k, s := range sh.series {
			c := cutFor(k)
			if c == noCut || s.cold == nil || len(s.cold.blocks) == 0 {
				continue
			}
			if s.cold.blocks[0].maxAt < c {
				droppable = true
				break
			}
		}
		sh.mu.RUnlock()
		if droppable {
			break
		}
	}
	if !droppable {
		return nil
	}
	m := db.man
	m.Retain = make(map[string]int64, len(db.man.Retain)+len(cuts))
	for ds, c := range db.man.Retain {
		m.Retain[ds] = c
	}
	for ds, c := range cuts {
		if old, ok := m.Retain[ds]; !ok || c > old {
			m.Retain[ds] = c
		}
	}
	// Predict which block files die entirely so the committed manifest
	// stops listing them; the actual detach below must agree, and does —
	// both walk the same immutable cold state under cpMu.
	predDropped, predTotal := make(map[uint64]int), make(map[uint64]int)
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for k, s := range sh.series {
			if s.cold == nil {
				continue
			}
			c := cutFor(k)
			for bi := range s.cold.blocks {
				b := &s.cold.blocks[bi]
				predTotal[b.seg.seq]++
				if c != noCut && b.maxAt < c {
					predDropped[b.seg.seq]++
				}
			}
		}
		sh.mu.RUnlock()
	}
	var dead []uint64
	keepBlocks := m.Blocks[:0:0]
	for _, seq := range m.Blocks {
		if t := predTotal[seq]; t > 0 && predDropped[seq] == t {
			dead = append(dead, seq)
			continue
		}
		keepBlocks = append(keepBlocks, seq)
	}
	m.Blocks = keepBlocks
	if err := writeManifest(db.dir, m, db.cpHook("retention:manifest")); err != nil {
		return err
	}
	db.man = m
	// Committed: detach in memory and settle the per-dataset state.
	db.dropColdBelow(cutFor, func(ds string, pts int64) {
		db.retain[ds].dropped.Add(uint64(pts))
	})
	for ds, c := range cuts {
		casMax(&db.retain[ds].cut, c)
	}
	// Unlink files with no live blocks. Handles stay open (db.coldSegs,
	// closed by Close), so a reader holding a pre-drop view still decodes
	// fine; a crash mid-loop leaves orphans removeStaleFiles reaps (they
	// left the manifest's Blocks list above).
	removed := false
	for i, seq := range dead {
		if i == len(dead)/2 {
			if err := db.failpoint("retention:unlink:mid"); err != nil {
				return err
			}
		}
		os.Remove(filepath.Join(db.dir, blockFileName(seq)))
		removed = true
	}
	if removed {
		if err := syncDir(db.dir); err != nil {
			return err
		}
	}
	return nil
}

// applyRetainCutsLocked re-applies the manifest's committed retention
// cuts in memory at open. Partially-dead block files stay in the layout
// after a drop (only entirely-dead files are unlinked and delisted), so
// openBlocks re-attaches their dropped blocks; this replays the drop.
// The guard is per-series, not just the committed cut: a block is
// dropped only when the series' own coverage proves every point in it
// sits in a committed bucket — a series backfilled after the cut
// committed keeps its uncovered blocks even below the cut. The caller
// holds cpMu with the open-time coverage in hand.
func (db *DB) applyRetainCutsLocked(cov map[SeriesKey]int64) {
	if len(db.man.Retain) == 0 {
		return
	}
	db.dropColdBelow(func(k SeriesKey) int64 {
		c, ok := db.man.Retain[k.Dataset]
		if !ok {
			return noCut
		}
		sc, ok := cov[k]
		if !ok {
			return noCut
		}
		if sc < c {
			c = sc
		}
		return c
	}, func(ds string, pts int64) {
		if rs := db.retain[ds]; rs != nil {
			rs.dropped.Add(uint64(pts))
		}
	})
}

// initRetention builds the per-dataset retention state from the options
// and the committed manifest, and seeds each dataset's maxAt with one
// post-recovery scan. Runs during Open, single-threaded.
func (db *DB) initRetention(horizons map[string]time.Duration) {
	db.retain = make(map[string]*retentionState, len(horizons))
	for ds, h := range horizons {
		rs := &retentionState{horizon: h}
		rs.maxAt.Store(noCut)
		rs.coverage.Store(noCut)
		rs.cut.Store(noCut)
		rs.lastEval.Store(noCut)
		if c, ok := db.man.Retain[ds]; ok {
			rs.cut.Store(c)
		}
		db.retain[ds] = rs
	}
	for i := range db.shards {
		sh := &db.shards[i]
		for k, s := range sh.series {
			rs := db.retain[k.Dataset]
			if rs == nil {
				continue
			}
			if n := len(s.points); n > 0 {
				casMax(&rs.maxAt, s.points[n-1].ns)
			} else if s.cold != nil && s.cold.n > 0 {
				casMax(&rs.maxAt, s.cold.lastAt)
			}
		}
	}
}

// retentionTriggerHot reports whether some retained dataset's cut
// estimate has moved past its last enforcement evaluation — meaning a
// checkpoint (whose tail runs enforcement) could advance the cut.
// Comparing against lastEval rather than the committed cut keeps the
// trigger cold when the estimate is ahead but nothing is droppable yet;
// it re-arms only when new appends or new coverage move the estimate
// again.
//
// The comparison is quantized to 1d buckets: coverage only advances in
// 1d steps and drops are block-granular, so a sub-day estimate advance
// can never condemn a new block. Without the quantization every append
// moves the estimate and re-arms the trigger, and a fast history replay
// (bootstrap, backfill) degenerates into a checkpoint per append batch.
func (db *DB) retentionTriggerHot() bool {
	for _, rs := range db.retain {
		est, ok := rs.cutEstimate()
		if !ok {
			continue
		}
		last := rs.lastEval.Load()
		if last == noCut || bucketStart(est, Res1d) > bucketStart(last, Res1d) {
			return true
		}
	}
	return false
}
