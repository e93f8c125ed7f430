package tsdb

// Snapshot format (version 1)
//
// A snapshot is a one-pass, re-loadable dump of every series in the store,
// the fast alternative to replaying a WAL point by point:
//
//	header:  8-byte magic "SLTSDBSN" | u16 version | u32 series count
//	record:  u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//	payload: u16 key length | canonical key bytes |
//	         u32 point count | point count × (i64 unix-nanos | f64 bits)
//
// All integers are little-endian. Every record is independently
// length-prefixed and CRC-checked, so corruption is detected per series
// and a load never panics on hostile input: it returns an error. Series
// appear sorted by canonical key, so the same store state always encodes
// to the same bytes (useful for tests and content-addressed storage).

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"time"
)

const (
	snapshotMagic   = "SLTSDBSN"
	snapshotVersion = 1
	// maxSnapshotPayload bounds one series record (64 MiB ≈ 4M points),
	// so a corrupt length prefix cannot trigger a huge allocation.
	maxSnapshotPayload = 1 << 26
)

// captureWith collects every series' point slice, sorted by canonical
// key. Each shard is captured atomically under its lock; points are
// append-only, so everything below the captured lengths is immutable
// afterwards and the result can be encoded without further locking. fn,
// when non-nil, runs per shard while that shard's lock is held — it is
// how checkpoint records the exact WAL cut (offset, segment list) that
// matches the captured series, without duplicating this loop. An fn error
// aborts the capture. A plain capture (fn == nil) only reads, so it takes
// the shared lock and never stalls concurrent appends or queries; with fn
// set the exclusive lock is taken, because fn mutates shard state (it
// flushes the WAL writer and reads the cut offset).
func (db *DB) captureWith(fn func(i int, sh *shard) error) ([]snapshotSeries, error) {
	var recs []snapshotSeries
	for i := range db.shards {
		sh := &db.shards[i]
		if fn == nil {
			sh.mu.RLock()
		} else {
			sh.mu.Lock()
			if err := fn(i, sh); err != nil {
				sh.mu.Unlock()
				return nil, err
			}
		}
		for k, s := range sh.series {
			recs = append(recs, snapshotSeries{key: k, points: s.points})
		}
		if fn == nil {
			sh.mu.RUnlock()
		} else {
			sh.mu.Unlock()
		}
	}
	sortSnapshotSeries(recs)
	return recs, nil
}

// capture is the fn-less captureWith, used by layout commits and the
// checkpoint protocol. It captures only hot (in-memory) points: on a
// store with sealed history, cold blocks are carried by the manifest's
// block list and must not be duplicated into checkpoint snapshots.
func (db *DB) capture() []snapshotSeries {
	recs, _ := db.captureWith(nil)
	return recs
}

// captureFull collects every series' complete history — sealed blocks
// decoded and placed ahead of the hot tail — sorted by canonical key.
// This is the capture behind WriteSnapshot, whose output
// must be a self-contained re-loadable archive regardless of how the
// store tiers it internally. An unreadable cold block fails the whole
// capture (ErrColdRead): a snapshot with silently missing history would
// look complete to every later restore.
func (db *DB) captureFull() ([]snapshotSeries, error) {
	var recs []snapshotSeries
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for k, s := range sh.series {
			pts, err := db.getPointsLocked(s, 0, seriesTotal(s))
			if err != nil {
				sh.mu.RUnlock()
				return nil, fmt.Errorf("tsdb: snapshot capture of %v: %w", k, err)
			}
			recs = append(recs, snapshotSeries{key: k, points: pts})
		}
		sh.mu.RUnlock()
	}
	sortSnapshotSeries(recs)
	return recs, nil
}

// WriteSnapshot writes the whole store to w in snapshot format. Concurrent
// appends during the write are safe: each series is captured atomically
// under its shard lock, series listed at the start are never dropped, and
// series created afterwards are simply not included.
func (db *DB) WriteSnapshot(w io.Writer) error {
	recs, err := db.captureFull()
	if err != nil {
		return err
	}
	return encodeSnapshot(w, recs)
}

// chunkSnapshotSeries splits any series whose record payload would exceed
// limit bytes into multiple consecutive records of the same key. The
// decoder accepts repeated keys (consecutive chunks merge back as ordered
// bulk appends), so chunking keeps every record below the cap that
// decodeSnapshot enforces — without it, a series beyond ~4M points would
// encode into a snapshot that can never be loaded, fatal once a
// checkpoint has truncated the WAL behind it.
func chunkSnapshotSeries(recs []snapshotSeries, limit int) []snapshotSeries {
	out := make([]snapshotSeries, 0, len(recs))
	for _, rec := range recs {
		maxPts := (limit - 2 - len(rec.canonKey()) - 4) / 16
		if maxPts < 1 {
			maxPts = 1 // unreachable: validKey bounds keys far below limit
		}
		if len(rec.points) <= maxPts {
			out = append(out, rec)
			continue
		}
		for start := 0; start < len(rec.points); start += maxPts {
			end := start + maxPts
			if end > len(rec.points) {
				end = len(rec.points)
			}
			out = append(out, snapshotSeries{key: rec.key, canon: rec.canon, points: rec.points[start:end]})
		}
	}
	return out
}

// encodeSnapshot writes the captured records to w in snapshot format.
// Records must already be sorted by canonical key.
func encodeSnapshot(w io.Writer, recs []snapshotSeries) error {
	recs = chunkSnapshotSeries(recs, maxSnapshotPayload)
	bw := bufio.NewWriterSize(w, 1<<16)
	var tmp [8]byte
	if _, err := bw.WriteString(snapshotMagic); err != nil {
		return fmt.Errorf("tsdb: snapshot write: %w", err)
	}
	binary.LittleEndian.PutUint16(tmp[:2], snapshotVersion)
	binary.LittleEndian.PutUint32(tmp[2:6], uint32(len(recs)))
	if _, err := bw.Write(tmp[:6]); err != nil {
		return fmt.Errorf("tsdb: snapshot write: %w", err)
	}
	for _, rec := range recs {
		pts := rec.points
		key := rec.canonKey()
		payload := make([]byte, 0, 2+len(key)+4+16*len(pts))
		binary.LittleEndian.PutUint16(tmp[:2], uint16(len(key)))
		payload = append(payload, tmp[:2]...)
		payload = append(payload, key...)
		binary.LittleEndian.PutUint32(tmp[:4], uint32(len(pts)))
		payload = append(payload, tmp[:4]...)
		for _, p := range pts {
			binary.LittleEndian.PutUint64(tmp[:], uint64(p.At.UnixNano()))
			payload = append(payload, tmp[:8]...)
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(p.Value))
			payload = append(payload, tmp[:8]...)
		}
		binary.LittleEndian.PutUint32(tmp[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(tmp[4:8], crc32.ChecksumIEEE(payload))
		if _, err := bw.Write(tmp[:8]); err != nil {
			return fmt.Errorf("tsdb: snapshot write: %w", err)
		}
		if _, err := bw.Write(payload); err != nil {
			return fmt.Errorf("tsdb: snapshot write: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("tsdb: snapshot write: %w", err)
	}
	return nil
}

// snapshotSeries is one series record, either captured from the store or
// decoded from a snapshot stream.
type snapshotSeries struct {
	key SeriesKey
	// canon caches key's canonical string form. sortSnapshotSeries fills
	// it once; the chunking and encoding passes reuse it instead of
	// re-rendering the key (previously up to three times per record).
	canon  string
	points []Point
}

// canonKey returns the cached canonical key form, rendering it only for
// records (e.g. hand-built in tests) that skipped sortSnapshotSeries.
func (s *snapshotSeries) canonKey() string {
	if s.canon == "" {
		s.canon = s.key.String()
	}
	return s.canon
}

// decodeSnapshot parses and validates the full stream before anything is
// applied to a store, so malformed input never leaves a DB half-loaded.
func decodeSnapshot(r io.Reader) ([]snapshotSeries, error) {
	br := bufio.NewReaderSize(r, 1<<16)
	head := make([]byte, len(snapshotMagic)+6)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, fmt.Errorf("tsdb: snapshot header: %w", err)
	}
	if string(head[:len(snapshotMagic)]) != snapshotMagic {
		return nil, errors.New("tsdb: snapshot: bad magic")
	}
	if v := binary.LittleEndian.Uint16(head[len(snapshotMagic):]); v != snapshotVersion {
		return nil, fmt.Errorf("tsdb: snapshot: unsupported version %d", v)
	}
	count := binary.LittleEndian.Uint32(head[len(snapshotMagic)+2:])
	out := make([]snapshotSeries, 0, min(int(count), 4096))
	var rec [8]byte
	for i := uint32(0); i < count; i++ {
		if _, err := io.ReadFull(br, rec[:]); err != nil {
			return nil, fmt.Errorf("tsdb: snapshot record %d header: %w", i, err)
		}
		plen := binary.LittleEndian.Uint32(rec[:4])
		crc := binary.LittleEndian.Uint32(rec[4:8])
		if plen < 6 || plen > maxSnapshotPayload {
			return nil, fmt.Errorf("tsdb: snapshot record %d: invalid payload length %d", i, plen)
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			return nil, fmt.Errorf("tsdb: snapshot record %d body: %w", i, err)
		}
		if crc32.ChecksumIEEE(payload) != crc {
			return nil, fmt.Errorf("tsdb: snapshot record %d: CRC mismatch", i)
		}
		keyLen := int(binary.LittleEndian.Uint16(payload[:2]))
		if 2+keyLen+4 > len(payload) {
			return nil, fmt.Errorf("tsdb: snapshot record %d: key length %d overruns payload", i, keyLen)
		}
		k, err := ParseSeriesKey(string(payload[2 : 2+keyLen]))
		if err != nil {
			return nil, fmt.Errorf("tsdb: snapshot record %d: %w", i, err)
		}
		npts := binary.LittleEndian.Uint32(payload[2+keyLen:])
		if int(plen) != 2+keyLen+4+16*int(npts) {
			return nil, fmt.Errorf("tsdb: snapshot record %d: point count %d disagrees with payload length %d", i, npts, plen)
		}
		pts := make([]Point, npts)
		off := 2 + keyLen + 4
		for j := range pts {
			at := time.Unix(0, int64(binary.LittleEndian.Uint64(payload[off:]))).UTC()
			v := math.Float64frombits(binary.LittleEndian.Uint64(payload[off+8:]))
			if j > 0 && at.Before(pts[j-1].At) {
				return nil, fmt.Errorf("tsdb: snapshot record %d (%v): points out of order", i, k)
			}
			pts[j] = Point{At: at, Value: v}
			off += 16
		}
		out = append(out, snapshotSeries{key: k, points: pts})
	}
	// The stream must end exactly after the last record; trailing bytes
	// mean the header's series count was corrupted.
	var one [1]byte
	if _, err := io.ReadFull(br, one[:]); err != io.EOF {
		return nil, errors.New("tsdb: snapshot: trailing data after last record")
	}
	return out, nil
}

// LoadSnapshot reads a snapshot from r into the store. The stream is fully
// decoded and validated before anything is applied: on error the store is
// left unmodified, and hostile input never panics. Loaded series merge
// into existing ones as bulk appends (a record's first point must not
// precede the series' current last point). When the store is durable,
// loaded points are re-logged to the per-shard WAL segments — written and
// flushed before the in-memory apply, so a later restart that replays the
// segments alone still recovers the full archive, and a failed re-log
// (e.g. disk full) leaves the in-memory store unmodified. A failed re-log
// can leave a truncated final record in a segment; replay tolerates that,
// but the archive should then be restored from the snapshot again after
// freeing space. (Calling Checkpoint after a large restore folds the
// re-logged records back into a snapshot and truncates the segments.)
// LoadSnapshot must not run concurrently with appends to the same series
// (it is a startup/restore operation). It returns the number of series
// records applied.
func (db *DB) LoadSnapshot(r io.Reader) (int, error) {
	if db.readOnly {
		return 0, errors.New("tsdb: read-only store rejects snapshot loads")
	}
	all, err := decodeSnapshot(r)
	if err != nil {
		return 0, err
	}
	if db.closed.Load() {
		return 0, errors.New("tsdb: store is closed")
	}
	// Validate every merge first — against the store and against earlier
	// records of the same key — so a failed load changes nothing.
	lastAt := make(map[SeriesKey]time.Time)
	for _, rec := range all {
		if len(rec.points) == 0 {
			continue
		}
		last, have := lastAt[rec.key]
		if !have {
			p, ok, err := db.Last(rec.key)
			if err != nil {
				return 0, fmt.Errorf("tsdb: snapshot overlap check for %v: %w", rec.key, err)
			}
			if ok {
				last, have = p.At, true
			}
		}
		if have && rec.points[0].At.Before(last) {
			return 0, fmt.Errorf("tsdb: snapshot overlaps series %v: %v before %v", rec.key, rec.points[0].At, last)
		}
		lastAt[rec.key] = rec.points[len(rec.points)-1].At
	}
	// The re-log and the in-memory apply must form one atomic unit with
	// respect to Checkpoint: a checkpoint cutting a shard between the two
	// phases would record a WAL offset past the re-logged records while
	// its snapshot lacks the points, and the next recovery would drop
	// them. cpMu excludes checkpoints (and layout changes) for the
	// duration; lock order (cpMu, then one shard at a time) matches
	// Checkpoint's.
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	if db.Durable() {
		// Group records by shard and write each group to that shard's
		// segment — all groups land durably before the in-memory apply.
		bufs := make([][]byte, len(db.shards))
		for _, rec := range all {
			si := db.shardIndex(rec.key)
			key := rec.key.String()
			for _, p := range rec.points {
				bufs[si] = appendRecord(bufs[si], key, p.At, p.Value)
			}
		}
		for si, buf := range bufs {
			if len(buf) == 0 {
				continue
			}
			sh := &db.shards[si]
			sh.mu.Lock()
			if sh.wal == nil {
				sh.mu.Unlock()
				return 0, errors.New("tsdb: store is closed")
			}
			_, err := sh.wal.Write(buf)
			if err == nil {
				err = sh.wal.Flush()
			}
			if err == nil {
				sh.walOff += uint64(len(buf))
				sh.cpBytes.Add(uint64(len(buf)))
				db.cpBytesTotal.Add(uint64(len(buf)))
				if db.rotateBytes > 0 && sh.walOff-sh.walBase >= uint64(db.rotateBytes) {
					// Best-effort: the records are already durable in the
					// current segment; a failed rotation just leaves it
					// oversized until a later append rotates it, counted
					// like the append path's failures.
					if rerr := db.rotateLocked(sh); rerr != nil {
						db.rotateFails.Add(1)
					}
				}
			}
			sh.mu.Unlock()
			if err != nil {
				return 0, fmt.Errorf("tsdb: snapshot wal re-log: %w", err)
			}
		}
	}
	for _, rec := range all {
		if len(rec.points) == 0 {
			continue
		}
		sh := db.shardFor(rec.key)
		sh.mu.Lock()
		db.mergeSeries(sh, rec.key, rec.points...)
		sh.mu.Unlock()
	}
	return len(all), nil
}
