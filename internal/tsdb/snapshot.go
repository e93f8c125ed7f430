package tsdb

// Checkpoint snapshot codec (version 1)
//
// This is the format of the checkpoint-*.snap file a checkpoint or layout
// commit writes and Open bulk-loads (see wal.go): a one-pass dump of every
// captured series, much faster to load than replaying the equivalent WAL
// because points arrive grouped by series and are validated per record.
// Nothing imports or exports a store through it — points enter a shard
// only through the append path and recovery.
//
//	header:  8-byte magic "SLTSDBSN" | u16 version | u32 series count
//	record:  u32 payload length | u32 CRC-32 (IEEE) of payload | payload
//	payload: u16 key length | canonical key bytes |
//	         u32 point count | point count × (i64 unix-nanos | f64 bits)
//
// All integers are little-endian. Every record is independently
// length-prefixed and CRC-checked, so corruption is detected per series
// and a decode never panics on hostile input: it returns an error. Series
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
			binary.LittleEndian.PutUint64(tmp[:], uint64(p.ns))
			payload = append(payload, tmp[:8]...)
			binary.LittleEndian.PutUint64(tmp[:], math.Float64bits(p.v))
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
	points []sample
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
		pts := make([]sample, npts)
		off := 2 + keyLen + 4
		for j := range pts {
			ns := int64(binary.LittleEndian.Uint64(payload[off:]))
			v := math.Float64frombits(binary.LittleEndian.Uint64(payload[off+8:]))
			if j > 0 && ns < pts[j-1].ns {
				return nil, fmt.Errorf("tsdb: snapshot record %d (%v): points out of order", i, k)
			}
			pts[j] = sample{ns: ns, v: v}
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
