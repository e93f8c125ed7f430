package tsdb

// The WAL's segment generations and checkpointing.
//
// # On-disk layout (data directory)
//
//	MANIFEST                 committed layout description (JSON, atomically
//	                         replaced via temp file + rename)
//	wal-000001.log ...       the store's one WAL, one segment per checkpoint
//	                         generation: every append goes to the active
//	                         (highest-seq) segment under the log lock
//	checkpoint-000001.snap   the checkpoint snapshot the manifest references:
//	                         every series' hot tail, in the block file
//	                         format (block.go); at most one is live
//	blocks-000001.blk ...    immutable compressed block files (block.go):
//	                         history a checkpoint sealed out of memory; the
//	                         manifest lists the live ones, and they
//	                         accumulate, never rewritten
//
// This is the only layout the store reads or writes. Nothing on disk
// depends on the shard count: the shards are lock stripes in memory only.
//
// # Segment format
//
//	header: 8-byte magic "SLWALSG5" | u64 sequence number
//	then:   a run of records, one per shard group an append or a batch
//	        stored (see writeLog):
//	          u32 crc | u32 bodyLen | body     crc over bodyLen and body
//	        body: varint baseNs (the first entry's unix nanoseconds), then
//	        per entry:
//	          uvarint(id<<1 | defines)
//	          [uvarint keyLen | canonical key]  only when defines is set
//	          varint(ns - baseNs)               zigzag, wrapping
//	          f64 bits
//
// A series is named by an ID that holds for one segment. The first entry
// of a series in a segment defines it, carrying its key and taking the
// segment's next ID (IDs run 0, 1, 2 … in log order); later entries carry
// only the ID. A stored point therefore costs at least 10 bytes (1-byte
// ID, 1-byte delta, 8-byte value): a collector tick, whose entries share
// one timestamp and a handful of records, costs about 11.
//
// A segment lives for one checkpoint. Every record in a segment below the
// manifest's walSeq is in the checkpoint; every record in a segment at or
// above it is not. No offset into a file is ever recorded.
//
// # Rotation
//
// Only a checkpoint rotates the WAL. It creates the next segment (header
// written, file and directory fsynced) before it takes any lock. Then the
// cut takes every shard lock in ascending order and the log lock, flushes
// the log's buffer, swaps the log onto the new file and captures every
// series' point slice: the swapped-out segments hold exactly the captured
// points. They are fsynced after the locks are released; until then a
// Flush fsyncs them too, so a point a Flush acknowledged in the new
// segment never sits behind a torn old one.
//
// # Commit protocol
//
// The manifest rename is the only commit point. Its two users — the first
// open of a fresh directory and a checkpoint — follow the same order:
// write new data files and fsync them, rename the new MANIFEST into
// place, then clean up. A crash before the rename leaves the old layout
// fully intact (or, on a first open, no layout: the next open starts
// fresh over the leftovers); a crash after it leaves stale files that the
// next open recognizes (covered sequence number, unreferenced checkpoint)
// and deletes.
//
// A checkpoint commits the manifest naming the generation it rotated to,
// then unlinks every segment below it. Checkpoint compaction never
// rewrites a data file, and after it commits no WAL byte it covers is on
// disk. A checkpoint that fails after its swap leaves the swapped-out
// segment uncovered: it replays, ships to followers, and falls to the
// next checkpoint that commits.
//
// # Recovery
//
// Open reads the manifest, bulk-loads the referenced checkpoint snapshot
// (if any), then replays the segments in one sequential pass, in
// sequence order from the manifest's walSeq, applying each entry to the
// shard this open places its series' key in. A missing sequence number, a
// foreign header or a torn record (short, past the segment's end, or
// failing its crc) ends the chain (a torn record is the signature of a
// crash mid-write; nothing after it was acknowledged as durable), and the
// torn bytes are truncated before the segment reopens for appending. A
// record that passes its crc but is malformed, names an ID its segment
// never defined or defines a series by a key that does not parse fails
// Open, naming the segment: the writer never produces one. Appends
// resume in the last replayed segment at its next free ID. Recovery
// time is bounded by the bytes written since the last checkpoint, not by
// the archive's full history.
//
// # Unsupported layouts
//
// A directory this build cannot read — a MANIFEST whose version is not 6
// (version 5 wrote one WAL record per point, each carrying its series'
// key, under segment magic "SLWALSG4"; version 4 kept one segment chain
// per shard, under a layout epoch; version 3 located the checkpoint cut
// by per-shard logical offsets into live segments; version 2 wrote
// checkpoints as raw 16-byte points, "SLTSDBSN") or that carries a field
// this build does not know (a materialized rollup snapshot's "rollups",
// raw retention's "retain"), a points.wal (the pre-manifest single-stream
// log) with no MANIFEST beside it, or a nested rollup/MANIFEST — fails
// Open with an error naming the directory and the layout, before
// anything in the directory is created, truncated, renamed or removed. It
// is never migrated and never served as an empty archive.
//
// # Crash points
//
// Every durable boundary of the checkpoint protocol runs through
// DB.failpoint with a stable name (rotate:create:*, rotate:seal:*,
// checkpoint:capture, checkpoint:segsync:*, checkpoint:blocks:* —
// including checkpoint:blocks:data-written, frozen mid-file between the
// data blocks and the index — checkpoint:snapshot:*,
// checkpoint:manifest:*, checkpoint:delete:*). rotate:seal:before-sync
// fires inside the cut, with every shard lock held; checkpoint:delete:mid
// fires between unlinking two uncovered generations. The crash-matrix
// test harness arms a hook that aborts at exactly one of them —
// simulating a crash before or after the fsync at that boundary — and
// asserts recovery is exact against a reference store. No protocol
// change should land without a matrix cell covering its new boundary.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"time"
)

const (
	manifestName    = "MANIFEST"
	manifestVersion = 6

	// Segment header: magic | u64 seq.
	rotSegMagic     = "SLWALSG5"
	rotSegHeaderLen = len(rotSegMagic) + 8

	// walRecordHeaderLen is a record's u32 crc and u32 body length.
	walRecordHeaderLen = 8
	// walRecordSplit is the body size past which writeLog ends a record
	// and starts the next, so no body outgrows its u32 length.
	walRecordSplit = 1 << 20

	// maxShards bounds a store's shard count.
	maxShards = 1 << 16
)

// errCrashPoint is returned by armed crash-point hooks; the crash-matrix
// tests use it to abort the protocol at a precise durable boundary. Code
// that cleans up after real failures must leave the disk untouched when it
// sees this sentinel — the point of the injection is to freeze the exact
// on-disk state a crash would leave.
var errCrashPoint = errors.New("tsdb: crash point injected")

// failpoint invokes the test crash hook, if armed, with the named protocol
// boundary. Production stores have no hook and pay one nil check.
func (db *DB) failpoint(point string) error {
	if db.testCrash == nil {
		return nil
	}
	return db.testCrash(point)
}

// cpHook adapts the crash hook for atomicWriteFile's stage callbacks,
// prefixing stages with the protocol step ("checkpoint:manifest" +
// ":before-sync" etc.). Returns nil when no hook is armed so the common
// path stays allocation-free.
func (db *DB) cpHook(prefix string) func(string) error {
	if db.testCrash == nil {
		return nil
	}
	return func(stage string) error { return db.testCrash(prefix + ":" + stage) }
}

// manifest is the committed description of the durable layout.
type manifest struct {
	Version int `json:"version"`
	// WALSeq is the first WAL segment generation the checkpoint does not
	// cover: recovery replays every segment at or above it, and every
	// segment below it is covered and reclaimed.
	WALSeq uint64 `json:"walSeq"`
	// Checkpoint is the live checkpoint snapshot's file name; empty when
	// no checkpoint has been taken in this layout.
	Checkpoint    string `json:"checkpoint,omitempty"`
	CheckpointSeq uint64 `json:"checkpointSeq"`
	// Blocks lists the live compressed block files by sequence number,
	// ascending — the cold tier's committed contents. BlockSeq is the
	// last block file sequence ever committed (it only grows, so a
	// crashed seal's orphan file is overwritten on retry, never adopted).
	Blocks   []uint64 `json:"blocks,omitempty"`
	BlockSeq uint64   `json:"blockSeq,omitempty"`
}

func rotSegName(seq uint64) string { return fmt.Sprintf("wal-%06d.log", seq) }

// scanRotSegName parses a segment file name's sequence number. The scan
// is width-free: %06d is only a minimum width in rotSegName, so sequence
// numbers past 999999 print more digits and a width-limited scan would
// silently drop those files at the next open's reaping pass. The round
// trip through rotSegName still rejects non-canonical spellings.
func scanRotSegName(name string, seq *uint64) bool {
	n, err := fmt.Sscanf(name, "wal-%d.log", seq)
	return err == nil && n == 1 && name == rotSegName(*seq)
}

func checkpointName(s uint64) string { return fmt.Sprintf("checkpoint-%06d.snap", s) }

// syncDir fsyncs a directory so renames, creations, and unlinks inside it
// are durable before the caller proceeds.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// parseManifest decodes and validates a manifest. Any version other than
// manifestVersion, and any field the manifest type does not declare, is
// rejected here, so every caller — writable and read-only opens,
// replication's pre-commit check — refuses an unsupported layout the same
// way. An unknown field is how older layouts show: "rollups" named a
// materialized rollup snapshot, and "retain" raw retention's cuts, whose
// dropped blocks a store ignoring it would serve again from partially
// dead block files. Like every unsupported layout, neither is migrated.
// The validation must hold for every manifest recovery trusts: hostile or
// corrupt input errors, never panics, never makes recovery index out of
// range.
func parseManifest(raw []byte) (manifest, error) {
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return manifest{}, fmt.Errorf("tsdb: parsing manifest: %w", err)
	}
	if m.Version != manifestVersion {
		return manifest{}, fmt.Errorf("tsdb: unsupported manifest version %d (this build reads only version %d)", m.Version, manifestVersion)
	}
	// The strict pass can only fail on a field: the lenient one above
	// already vetted the syntax and the types.
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(new(manifest)); err != nil {
		field, _ := strings.CutPrefix(err.Error(), "json: unknown field ")
		return manifest{}, fmt.Errorf("tsdb: unsupported layout: manifest field %s, which this build does not read", field)
	}
	if m.WALSeq == 0 {
		return manifest{}, errors.New("tsdb: malformed manifest: walSeq 0")
	}
	if m.Checkpoint != "" && (m.Checkpoint != filepath.Base(m.Checkpoint) || !strings.HasPrefix(m.Checkpoint, "checkpoint-")) {
		return manifest{}, fmt.Errorf("tsdb: malformed manifest: checkpoint name %q", m.Checkpoint)
	}
	for j := range m.Blocks {
		if j > 0 && m.Blocks[j] <= m.Blocks[j-1] {
			return manifest{}, errors.New("tsdb: malformed manifest: block list not ascending")
		}
		if m.Blocks[j] > m.BlockSeq {
			return manifest{}, fmt.Errorf("tsdb: malformed manifest: block %d above blockSeq %d", m.Blocks[j], m.BlockSeq)
		}
	}
	return m, nil
}

func readManifest(dir string) (manifest, bool, error) {
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if errors.Is(err, os.ErrNotExist) {
		return manifest{}, false, nil
	}
	if err != nil {
		return manifest{}, false, fmt.Errorf("tsdb: reading manifest: %w", err)
	}
	m, err := parseManifest(raw)
	if err != nil {
		return manifest{}, false, err
	}
	return m, true, nil
}

// atomicWriteFile atomically replaces path: temp file, fsync, rename,
// directory fsync. The write callback produces the contents. Every
// durable file this package replaces (manifest, checkpoint, block
// file) goes through here so the crash-safety sequence is
// single-sourced. The optional hook fires at the sequence's internal
// boundaries ("before-sync": tmp written, unsynced; "synced": tmp durable,
// not yet renamed; "committed": renamed and directory-synced) — the
// crash-matrix tests arm it, everything else passes nil. A hook abort
// leaves the temp file in place, exactly as a crash would.
func atomicWriteFile(path string, write func(io.Writer) error, hook func(stage string) error) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("tsdb: create %s: %w", filepath.Base(tmp), err)
	}
	err = write(f)
	if err == nil && hook != nil {
		err = hook("before-sync")
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil && hook != nil {
		err = hook("synced")
	}
	if err != nil {
		if !errors.Is(err, errCrashPoint) {
			os.Remove(tmp)
		}
		return fmt.Errorf("tsdb: write %s: %w", filepath.Base(path), err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("tsdb: rename %s: %w", filepath.Base(path), err)
	}
	if err := syncDir(filepath.Dir(path)); err != nil {
		return err
	}
	if hook != nil {
		return hook("committed")
	}
	return nil
}

// writeManifest atomically replaces the manifest; this rename is the
// commit point of every multi-file layout change.
func writeManifest(dir string, m manifest, hook func(stage string) error) error {
	raw, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("tsdb: encoding manifest: %w", err)
	}
	return atomicWriteFile(filepath.Join(dir, manifestName), func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	}, hook)
}

// encodeRotHeader returns segment seq's header.
func encodeRotHeader(seq uint64) []byte {
	return binary.LittleEndian.AppendUint64([]byte(rotSegMagic), seq)
}

// openDurable brings up the durable layout for db.dir: it initializes a
// fresh directory, or loads the blocks and the checkpoint and replays the
// WAL. A directory holding a layout this build cannot read is refused
// before anything in it is touched (see "Unsupported layouts" above). A
// read-only open stops after the replay: no active segment is created or
// truncated and no stale file is reclaimed. That last point is
// load-bearing for replication — a follower's puller stages files there
// between reopens, and a reaping pass would delete them. It runs
// single-threaded during Open, before the store is shared.
func (db *DB) openDurable() error {
	if _, err := os.Stat(filepath.Join(db.dir, "rollup", manifestName)); err == nil {
		return fmt.Errorf("tsdb: cannot open %s: unsupported layout: rollup/MANIFEST (a nested rollup store, which this build does not read)", db.dir)
	}
	man, ok, err := readManifest(db.dir)
	if err != nil {
		return fmt.Errorf("tsdb: cannot open %s: %w", db.dir, err)
	}
	var c logChain
	if ok {
		db.man = man
		// Blocks attach before the snapshot and WAL tail load: the cold
		// prefix must be in place before hot points append after it.
		if err := db.openBlocks(man); err != nil {
			return err
		}
		if man.Checkpoint != "" {
			if err := db.loadCheckpointFile(man.Checkpoint); err != nil {
				return err
			}
		}
		if c, err = db.replayLog(); err != nil || db.readOnly {
			return err
		}
	} else {
		// Without a manifest the directory is taken for fresh and its
		// leftovers overwritten — which would silently discard the
		// archive a pre-manifest build kept in its single-stream log.
		if _, err := os.Stat(filepath.Join(db.dir, "points.wal")); !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("tsdb: cannot open %s: unsupported layout: points.wal with no MANIFEST (a pre-manifest single-stream log, which this build does not read)", db.dir)
		}
		// Initializing writes files, and a read-only open owns none.
		if db.readOnly {
			return fmt.Errorf("tsdb: read-only open of %s: no committed manifest", db.dir)
		}
		// A fresh directory, or a first open that crashed before its
		// manifest commit: commit an empty layout, then create its first
		// segment over any leftover (removeStaleFiles reaps the rest).
		db.man = manifest{Version: manifestVersion, WALSeq: 1}
		if err := writeManifest(db.dir, db.man, nil); err != nil {
			return err
		}
		c = logChain{seq: 1}
	}
	if err := db.openActiveSegment(c); err != nil {
		return err
	}
	db.removeStaleFiles()
	return nil
}

// seriesLocked returns k's series in sh, whose hash is h, creating it
// when it is new. The caller must own sh — either exclusively (recovery
// during Open) or via its write lock.
func (db *DB) seriesLocked(sh *shard, h uint64, k SeriesKey) *series {
	s := sh.find(h, k)
	if s == nil {
		s = sh.add(h, k)
	}
	return s
}

// mergeSeries bulk-appends points to s, a series of sh, maintaining the
// shard's point counter and the store's generation. The caller must own
// sh.
func (db *DB) mergeSeries(sh *shard, s *series, pts ...sample) {
	s.points = append(s.points, pts...)
	db.countLocked(sh, len(pts))
}

// openBlocks opens every block file the manifest lists and attaches
// their per-series indexes to the shards: block metadata only, no
// decode — recovery cost is O(index), independent of how much history
// has gone cold. Runs single-threaded during Open, before the
// checkpoint snapshot loads and the WAL tail replays (both append hot
// points after the cold prefix this establishes).
func (db *DB) openBlocks(man manifest) error {
	fail := func(err error) error {
		for _, seg := range db.coldSegs {
			seg.f.Close()
		}
		db.coldSegs = nil
		return err
	}
	for _, seq := range man.Blocks {
		name := blockFileName(seq)
		f, err := os.Open(filepath.Join(db.dir, name))
		if err != nil {
			return fail(fmt.Errorf("tsdb: opening block file: %w", err))
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return fail(fmt.Errorf("tsdb: %s: %w", name, err))
		}
		entries, err := readBlockIndex(f, st.Size())
		if err != nil {
			f.Close()
			return fail(fmt.Errorf("tsdb: %s: %w", name, err))
		}
		seg := newColdSegment(seq, f, st.Size(), entries)
		db.coldSegs = append(db.coldSegs, seg)
		for _, ent := range entries {
			h, sh := db.locate(ent.key)
			s := db.seriesLocked(sh, h, ent.key)
			if s.cold != nil && s.cold.n > 0 && ent.blocks[0].minAt < s.cold.lastAt {
				// Later files must continue where earlier ones ended; the
				// seal protocol never commits an overlap.
				return fail(fmt.Errorf("tsdb: %s: blocks of %v overlap an earlier file", name, ent.key))
			}
			sh.points += db.attachBlocks(s, seg, ent.blocks)
		}
	}
	return nil
}

// attachBlocks appends one series' blocks, as read from block file seg's
// index, to its cold tier — global start indices, the last cold
// timestamp, the store's cold counters — and returns how many points
// they hold. It is the one place blocks enter a series, at open and at
// seal alike; the caller owns s (Open, single-threaded) or holds its
// shard's write lock.
func (db *DB) attachBlocks(s *series, seg *coldSegment, blocks []blockMeta) int {
	if s.cold == nil {
		s.cold = &coldSeries{}
	}
	total := 0
	var bytes int64
	for _, b := range blocks {
		b.seg = seg
		b.start = s.cold.n
		s.cold.blocks = append(s.cold.blocks, b)
		s.cold.n += int(b.count)
		total += int(b.count)
		bytes += int64(b.length)
	}
	s.cold.lastAt = blocks[len(blocks)-1].maxAt
	db.coldPts.Add(int64(total))
	db.sealedBlks.Add(int64(len(blocks)))
	db.coldBytes.Add(bytes)
	return total
}

// beginRecord starts a WAL record at the end of buf: room for its crc and
// body length, then the body's base timestamp.
func beginRecord(buf []byte, base int64) []byte {
	buf = append(buf, 0, 0, 0, 0, 0, 0, 0, 0)
	return binary.AppendVarint(buf, base)
}

// appendRecordEntry appends one entry to the record whose base timestamp
// is base: a point of the series with ID id, which it defines when k is
// non-nil, writing k's canonical form in place. The delta wraps: two
// points of one record may lie further apart than an int64 holds, and
// the wrapped delta decodes back exactly.
func appendRecordEntry(buf []byte, id uint64, k *SeriesKey, base, ns int64, v float64) []byte {
	if k == nil {
		buf = binary.AppendUvarint(buf, id<<1)
	} else {
		buf = binary.AppendUvarint(buf, id<<1|1)
		buf = binary.AppendUvarint(buf, uint64(canonicalLen(*k)))
		buf = append(append(buf, k.Dataset...), '|')
		buf = append(append(buf, k.Type...), '|')
		buf = append(append(buf, k.Region...), '|')
		buf = append(buf, k.AZ...)
	}
	buf = binary.AppendVarint(buf, ns-base)
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// finishRecord fills in the crc and the body length of the record that
// starts at buf[start].
func finishRecord(buf []byte, start int) []byte {
	binary.LittleEndian.PutUint32(buf[start+4:], uint32(len(buf)-start-walRecordHeaderLen))
	binary.LittleEndian.PutUint32(buf[start:], crc32.ChecksumIEEE(buf[start+4:]))
	return buf
}

// recEntry is one decoded record entry. key, set on a defining entry,
// aliases the record's body.
type recEntry struct {
	id     uint64
	define bool
	key    []byte
	ns     int64
	v      float64
}

// errMalformedRecord marks a crc-valid record whose body does not decode.
var errMalformedRecord = errors.New("malformed WAL record")

// decodeRecordBody decodes a record's body into ents, checking every ID
// against next, the segment's next free ID: a defining entry must take
// exactly next and carry a key ParseSeriesKey accepts, and a referencing
// one must name an ID below it. It returns the entries and the next free
// ID after them.
func decodeRecordBody(body []byte, next uint64, ents []recEntry) ([]recEntry, uint64, error) {
	base, n := binary.Varint(body)
	if n <= 0 {
		return ents, next, errMalformedRecord
	}
	for p := n; p < len(body); {
		var e recEntry
		tag, n := binary.Uvarint(body[p:])
		if n <= 0 {
			return ents, next, errMalformedRecord
		}
		p += n
		e.id, e.define = tag>>1, tag&1 == 1
		if e.define {
			if e.id != next {
				return ents, next, fmt.Errorf("%w: entry defines series ID %d, next free ID is %d", errMalformedRecord, e.id, next)
			}
			next++
			keyLen, n := binary.Uvarint(body[p:])
			if n <= 0 || keyLen > uint64(len(body)-p-n) {
				return ents, next, errMalformedRecord
			}
			p += n
			e.key = body[p : p+int(keyLen)]
			p += int(keyLen)
			if _, ok := keyCuts(e.key); !ok {
				return ents, next, fmt.Errorf("%w: series ID %d defined by malformed key %q", errMalformedRecord, e.id, e.key)
			}
		} else if e.id >= next {
			return ents, next, fmt.Errorf("%w: entry names undefined series ID %d", errMalformedRecord, e.id)
		}
		delta, n := binary.Varint(body[p:])
		if n <= 0 || len(body)-p-n < 8 {
			return ents, next, errMalformedRecord
		}
		p += n
		e.ns = base + delta
		e.v = math.Float64frombits(binary.LittleEndian.Uint64(body[p:]))
		p += 8
		ents = append(ents, e)
	}
	return ents, next, nil
}

// replayRecords reads the records of one segment, whose record bytes
// number size, from br. EOF, a short record, a body length past the
// segment's end and a crc mismatch all end replay silently: they are the
// signature of a crash mid-write. A crc-valid record that does not
// decode, names an undefined ID or defines a malformed key is an error.
// Each record is decoded whole before apply sees its entries, in order;
// a defining entry's key is valid only during the call. replayRecords returns how many bytes of
// complete, applied records it consumed, so callers can truncate a
// crashed tail before appending after it, and the segment's next free ID.
func replayRecords(br *bufio.Reader, size int64, apply func(e *recEntry)) (valid int64, ids uint64, err error) {
	var head [walRecordHeaderLen]byte
	var body []byte
	var ents []recEntry
	for {
		if _, err := io.ReadFull(br, head[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return valid, ids, nil // clean end or truncated header: stop replay
			}
			return valid, ids, fmt.Errorf("tsdb: replay: %w", err)
		}
		n := int64(binary.LittleEndian.Uint32(head[4:]))
		if n > size-valid-walRecordHeaderLen {
			return valid, ids, nil // a length past the segment's end: torn
		}
		body = slices.Grow(body[:0], int(n))[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return valid, ids, nil // truncated record: ignore tail
		}
		if crc32.Update(crc32.ChecksumIEEE(head[4:]), crc32.IEEETable, body) != binary.LittleEndian.Uint32(head[:4]) {
			return valid, ids, nil // corrupt tail: stop replay
		}
		var next uint64
		if ents, next, err = decodeRecordBody(body, ids, ents[:0]); err != nil {
			return valid, ids, err
		}
		for i := range ents {
			apply(&ents[i])
		}
		valid += walRecordHeaderLen + n
		ids = next
	}
}

// loadCheckpointFile bulk-loads the named checkpoint snapshot into the
// store. The checkpoint is the only copy of the truncated history:
// refusing to open without it beats silently serving a partial archive.
func (db *DB) loadCheckpointFile(name string) error {
	f, err := os.Open(filepath.Join(db.dir, name))
	if err != nil {
		return fmt.Errorf("tsdb: opening checkpoint: %w", err)
	}
	var recs []snapshotSeries
	st, err := f.Stat()
	if err == nil {
		recs, err = readCheckpoint(f, st.Size())
	}
	f.Close()
	if err != nil {
		return fmt.Errorf("tsdb: loading checkpoint: %w", err)
	}
	for _, rec := range recs {
		h, sh := db.locate(rec.key)
		db.mergeSeries(sh, db.seriesLocked(sh, h, rec.key), rec.points...)
	}
	return nil
}

// logChain is what replaying the WAL found: the segment appends resume
// in, its extent and next free series ID, and the record bytes the whole
// chain replayed.
type logChain struct {
	seq      uint64 // active segment sequence number
	valid    int64  // record bytes of its complete, CRC-valid records
	size     int64  // record bytes on disk (> valid when the tail is torn)
	ids      uint64 // series IDs its valid records define
	replayed uint64 // record bytes replayed across the whole chain
	found    bool   // an active segment file exists on disk
}

// replayLog replays the WAL's segments in full and in sequence order,
// starting at the manifest's walSeq; segments below it are covered by the
// checkpoint and skipped unread (removeStaleFiles reaps them). Each
// series goes to the shard this open places its key in, so the replay
// depends neither on the shard count nor on the key hash seed the
// segments were written under. A missing sequence number, a file whose
// header names another sequence number or layout, or a torn record ends
// the chain there, because nothing past such a break was acknowledged as
// durable before a crash. The returned chain tells openActiveSegment
// where the append stream resumes.
func (db *DB) replayLog() (logChain, error) {
	// A key resolves once per definition, not once per entry: parsing and
	// hashing it would dominate the replay. targets maps the segment's IDs
	// to their series; a series defined in the segment appends resume in
	// keeps its ID there. Open owns the store exclusively, so no locks are
	// taken. decodeRecordBody has checked that every defining key parses.
	type target struct {
		sh *shard
		s  *series
	}
	var targets []target
	var seq uint64
	apply := func(e *recEntry) {
		if e.define {
			k, _ := ParseSeriesKey(string(e.key))
			h, sh := db.locate(k)
			t := target{sh: sh, s: db.seriesLocked(sh, h, k)}
			t.s.walSeq, t.s.walID = seq, e.id
			targets = append(targets, t)
		}
		t := targets[e.id]
		db.mergeSeries(t.sh, t.s, sample{ns: e.ns, v: e.v})
	}
	c := logChain{seq: db.man.WALSeq}
	for seq = db.man.WALSeq; ; seq++ {
		name := rotSegName(seq)
		f, err := os.Open(filepath.Join(db.dir, name))
		if errors.Is(err, os.ErrNotExist) {
			return c, nil
		}
		if err != nil {
			return c, fmt.Errorf("tsdb: opening segment %s: %w", name, err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return c, fmt.Errorf("tsdb: segment %s stat: %w", name, err)
		}
		br := bufio.NewReaderSize(f, 1<<16)
		head := make([]byte, rotSegHeaderLen)
		if _, err := io.ReadFull(br, head); err != nil || !bytes.Equal(head, encodeRotHeader(seq)) {
			f.Close()
			return c, nil // a crashed creation or a foreign file
		}
		size := st.Size() - int64(rotSegHeaderLen)
		targets = targets[:0]
		valid, ids, err := replayRecords(br, size, apply)
		f.Close()
		if err != nil {
			return c, fmt.Errorf("tsdb: replaying segment %s: %w", name, err)
		}
		c = logChain{seq: seq, valid: valid, size: size, ids: ids, replayed: c.replayed + uint64(valid), found: true}
		db.replayedBytes.Add(uint64(valid))
		if valid < c.size {
			return c, nil // torn record: a crash mid-append
		}
	}
}

// openActiveSegment opens the chain's last segment for appending,
// applying the replay's verdict: a torn tail is truncated to the last
// complete record first (appending after a crashed half-written tail
// would strand the new records behind bytes replay refuses to cross),
// and a chain with no usable segment gets a fresh one at the manifest's
// walSeq. It must run after replayLog with db.man current.
func (db *DB) openActiveSegment(c logChain) error {
	name := rotSegName(c.seq)
	path := filepath.Join(db.dir, name)
	var f *os.File
	var err error
	if !c.found {
		if f, err = createRotSegmentFile(path, c.seq); err != nil {
			return err
		}
	} else {
		f, err = os.OpenFile(path, os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("tsdb: opening segment %s: %w", name, err)
		}
		if c.size > c.valid {
			if err := f.Truncate(int64(rotSegHeaderLen) + c.valid); err != nil {
				f.Close()
				return fmt.Errorf("tsdb: segment %s truncate: %w", name, err)
			}
			if err := f.Sync(); err != nil {
				f.Close()
				return fmt.Errorf("tsdb: segment %s sync: %w", name, err)
			}
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return fmt.Errorf("tsdb: segment %s seek: %w", name, err)
		}
	}
	db.walF = f
	db.wal = bufio.NewWriterSize(f, 1<<16)
	db.walSeq, db.walNextID = c.seq, c.ids
	db.setSealed()
	// Seed the checkpoint byte counter with the replayed chain: those
	// records are exactly the bytes the next restart would replay again.
	// Left at zero, a writer crashing just under the threshold every run
	// would grow the tail without ever arming the size trigger.
	db.cpBytesTotal.Store(c.replayed)
	return syncDir(db.dir)
}

// createRotSegmentFile (re)creates an empty segment file with seq's
// header, replacing whatever was at path, and fsyncs it.
func createRotSegmentFile(path string, seq uint64) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tsdb: creating segment: %w", err)
	}
	if _, err := f.Write(encodeRotHeader(seq)); err != nil {
		f.Close()
		return nil, fmt.Errorf("tsdb: segment header write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return nil, fmt.Errorf("tsdb: segment header sync: %w", err)
	}
	return f, nil
}

// createGeneration creates segment gen before any lock is taken: the file
// is created, its header written and the file fsynced, then the directory
// is fsynced. It returns the file, open for appending. On a real
// (non-injected) failure the file is closed and removed: the log has not
// swapped onto it, and it holds no record. The caller holds cpMu, which
// is what keeps walSeq still.
func (db *DB) createGeneration(gen uint64) (*os.File, error) {
	path := filepath.Join(db.dir, rotSegName(gen))
	f, err := createRotSegmentFile(path, gen)
	if err == nil {
		// The file is durable, its directory entry not yet.
		err = db.failpoint("rotate:create:before-sync")
		if err == nil {
			err = syncDir(db.dir)
		}
		if err == nil {
			err = db.failpoint("rotate:create:after-sync")
		}
		if err != nil {
			f.Close()
		}
	}
	if err != nil {
		if !errors.Is(err, errCrashPoint) {
			os.Remove(path)
		}
		return nil, err
	}
	return f, nil
}

// syncRetired fsyncs swapped-out segments, then drops them from
// db.unsynced and closes them. A file another syncer (a Flush, or a
// closing store) already synced and closed reports ErrClosed, which
// therefore means durable.
func (db *DB) syncRetired(files []*os.File) error {
	for _, f := range files {
		if err := f.Sync(); err != nil && !errors.Is(err, os.ErrClosed) {
			return err
		}
	}
	db.logMu.Lock()
	var keep, gone []*os.File
	for _, f := range db.unsynced {
		if slices.Contains(files, f) {
			gone = append(gone, f)
		} else {
			keep = append(keep, f)
		}
	}
	// Rebuilt, never edited in place: syncers iterate a copy of the slice
	// header they took under the lock.
	db.unsynced = keep
	db.logMu.Unlock()
	// Their bytes are durable and nothing writes them again, so a close
	// error changes nothing.
	for _, f := range gone {
		f.Close()
	}
	return nil
}

// snapshotSeries is one series' points as a checkpoint captures, writes
// and loads them. canon caches the key's canonical form, which orders
// the series and names them in the file.
type snapshotSeries struct {
	key    SeriesKey
	canon  string
	points []sample
}

// cutLog is the checkpoint's cut. With every shard lock held (shared, in
// ascending order, as Close takes them) and then the log lock, it flushes
// the log's buffer, swaps the log onto next — generation gen — whose
// series IDs start again at 0, and captures every series' point slice,
// unsorted. Every log
// write happens under a shard's write lock, so the swapped-out segments
// hold exactly the captured points, while reads go on. Points are
// append-only, so everything below the captured lengths is immutable
// afterwards and the result can be encoded without further locking.
// cutLog returns the captured series, the swapped-out segments no fsync
// has reached (db.unsynced), and the record bytes the cut covers. It owns
// next: a cut that fails before the swap closes it.
//
// Only hot (in-memory) points are captured: on a store with sealed
// history, cold blocks are carried by the manifest's block list and must
// not be duplicated into checkpoint snapshots.
func (db *DB) cutLog(gen uint64, next *os.File) (recs []snapshotSeries, retired []*os.File, covered uint64, err error) {
	for i := range db.shards {
		db.shards[i].mu.RLock()
	}
	defer func() {
		for i := range db.shards {
			db.shards[i].mu.RUnlock()
		}
	}()
	db.logMu.Lock()
	if db.wal == nil {
		err = errClosed
	} else if ferr := db.wal.Flush(); ferr != nil {
		err = fmt.Errorf("tsdb: checkpoint flush: %w", ferr)
	}
	if err != nil {
		db.logMu.Unlock()
		next.Close()
		return nil, nil, 0, err
	}
	db.unsynced = append(db.unsynced, db.walF)
	retired = db.unsynced
	db.walF = next
	db.wal.Reset(next)
	db.walSeq, db.walNextID = gen, 0
	covered = db.cpBytesTotal.Load()
	db.logMu.Unlock()
	db.setSealed()
	for i := range db.shards {
		db.shards[i].each(func(s *series) {
			recs = append(recs, snapshotSeries{key: s.key, points: s.points})
		})
	}
	return recs, retired, covered, db.failpoint("rotate:seal:before-sync")
}

// sortSnapshot sorts recs by canonical key. Keys render once: String()
// inside the comparator would allocate per comparison.
func sortSnapshot(recs []snapshotSeries) {
	for i := range recs {
		recs[i].canon = recs[i].key.String()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].canon < recs[j].canon })
}

// writeCheckpoint writes recs, sorted by canonical key, to w as a block
// file: each series' points become blocks of up to maxBlockPoints. A
// series with no hot points (all of it sealed) has no entry.
func writeCheckpoint(w io.Writer, recs []snapshotSeries) error {
	entries := make([]blockSealEntry, 0, len(recs))
	for _, rec := range recs {
		if len(rec.points) > 0 {
			entries = append(entries, blockSealEntry{key: rec.key, canon: rec.canon, blocks: encodeSeries(rec.points, maxBlockPoints)})
		}
	}
	return writeBlockFileTo(w, entries, nil)
}

// readCheckpoint decodes and validates a whole checkpoint file of size
// bytes before anything is applied to a store, so malformed input never
// leaves a DB half-loaded. Beyond what readBlockIndex and decodeBlock
// check, every block's first and last points must match its index
// entry, which with the index's ordering keeps each series in time order
// across its blocks. A series' points grow one decoded block at a time:
// a bad block costs at most its own maxBlockPoints, whatever the index
// claims for the blocks after it.
func readCheckpoint(r io.ReaderAt, size int64) ([]snapshotSeries, error) {
	entries, err := readBlockIndex(r, size)
	if err != nil {
		return nil, err
	}
	recs := make([]snapshotSeries, len(entries))
	for i, e := range entries {
		var pts []sample
		for j := range e.blocks {
			b := &e.blocks[j]
			pts = slices.Grow(pts, int(b.count))
			got, err := readBlockData(r, b, pts[len(pts):], noHorizon)
			if err != nil {
				return nil, fmt.Errorf("tsdb: checkpoint block %d of %v: %w", j, e.key, err)
			}
			if got[0].ns != b.minAt || got[len(got)-1].ns != b.maxAt {
				return nil, fmt.Errorf("tsdb: checkpoint block %d of %v disagrees with its index", j, e.key)
			}
			pts = pts[:len(pts)+len(got)]
		}
		recs[i] = snapshotSeries{key: e.key, canon: e.key.String(), points: pts}
	}
	return recs, nil
}

// writeCheckpointFile writes recs as a checkpoint to name inside the data
// directory (temp file, fsync, rename, directory fsync).
func (db *DB) writeCheckpointFile(name string, recs []snapshotSeries) error {
	return atomicWriteFile(filepath.Join(db.dir, name), func(w io.Writer) error {
		return writeCheckpoint(w, recs)
	}, db.cpHook("checkpoint:snapshot"))
}

// removeStaleFiles deletes files the committed layout does not own:
// temp files, checkpoint snapshots the manifest no longer references,
// orphan block files, and segment files outside the chain — below the
// manifest's walSeq (covered) or above the active segment — leftovers of
// crashed checkpoints and first opens. Files it
// does not recognize are left alone. Runs at the end of Open,
// single-threaded. Best-effort.
func (db *DB) removeStaleFiles() {
	ents, err := os.ReadDir(db.dir)
	if err != nil {
		return
	}
	liveBlocks := make(map[uint64]bool, len(db.man.Blocks))
	for _, seq := range db.man.Blocks {
		liveBlocks[seq] = true
	}
	for _, e := range ents {
		name := e.Name()
		var seq uint64
		switch {
		case name == db.man.Checkpoint || name == manifestName:
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(db.dir, name))
		case scanRotSegName(name, &seq):
			if seq < db.man.WALSeq || seq > db.walSeq {
				os.Remove(filepath.Join(db.dir, name))
			}
		case scanBlockFileName(name, &seq):
			// A block file outside the manifest's list is a crashed seal's
			// orphan: its manifest commit never happened, so its points are
			// still fully covered by the snapshot + WAL.
			if !liveBlocks[seq] {
				os.Remove(filepath.Join(db.dir, name))
			}
		case strings.HasPrefix(name, "checkpoint-"):
			os.Remove(filepath.Join(db.dir, name))
		}
	}
}

// Checkpoint persists the store's current state as a snapshot inside the
// data directory and drops the WAL segments it covers, so the next open
// bulk-loads the snapshot and replays only the records appended
// afterwards — bounded recovery time regardless of archive age.
//
// The checkpoint rotates the WAL: it creates the next segment generation
// first, then swaps the log onto it in the cut that captures every
// series (cutLog), so the snapshot holds exactly the records of the
// swapped-out segments. Appends wait for the cut, reads do not. Durable
// order is: fsync the swapped-out segments, write the
// snapshot file, commit the manifest naming the new generation, then
// unlink every segment below it. No data file is ever rewritten. A crash
// between any two steps recovers to a state containing every
// acknowledged point.
//
// Checkpoint returns an error on memory-only stores.
func (db *DB) Checkpoint() error {
	if db.dir == "" {
		return errors.New("tsdb: memory-only store cannot checkpoint")
	}
	if db.readOnly {
		return errors.New("tsdb: read-only store cannot checkpoint")
	}
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	return db.checkpointLocked()
}

// checkpointLocked runs the checkpoint protocol; the caller holds cpMu.
// Both the manual Checkpoint entry point and the maintainer (daemon tick
// or append-path force) funnel through here, each already serialized on
// cpMu — the maintainer additionally re-checks its trigger under the
// lock, so a manual checkpoint that got there first satisfies it and no
// redundant snapshot is stacked behind it (single-flight).
func (db *DB) checkpointLocked() error {
	if db.closed.Load() {
		return errClosed
	}
	start := time.Now()
	// walSeq only moves under cpMu, which we hold.
	gen := db.walSeq + 1
	next, err := db.createGeneration(gen)
	if err != nil {
		return err
	}
	recs, retired, covered, err := db.cutLog(gen, next)
	if err != nil {
		return err
	}
	sortSnapshot(recs)
	if err := db.failpoint("checkpoint:capture"); err != nil {
		return err
	}
	// Everything below the cut must be durable before a manifest can
	// claim the snapshot supersedes it.
	if err := db.syncRetired(retired); err != nil {
		return fmt.Errorf("tsdb: checkpoint segment sync: %w", err)
	}
	if err := db.failpoint("rotate:seal:after-sync"); err != nil {
		return err
	}
	if err := db.failpoint("checkpoint:segsync:after"); err != nil {
		return err
	}
	// Seal: carve whole blocks off each captured series' prefix, keeping
	// at least hotTail points hot (and with it the in-memory dedup and
	// out-of-order state). recs is rewritten in place to the post-seal hot
	// tails, so the checkpoint snapshot below holds exactly what stays in
	// memory — blocks and snapshot partition the history, never overlap.
	// The block file must be durable before the manifest (the commit
	// point) references it, and so must be readable: the file is opened
	// and its index read back before the commit, so a file the next open
	// could not attach aborts the whole checkpoint while the old manifest
	// is still authoritative. Either abort leaves an orphan blocks file
	// that the next successful seal overwrites (BlockSeq only advances on
	// commit) and removeStaleFiles reaps at open.
	var (
		newSeg    *coldSegment
		newBlocks []blockIndexEntry
	)
	if db.sealsCold() {
		var sealEntries []blockSealEntry
		for i := range recs {
			rec := &recs[i]
			sealable := len(rec.points) - db.hotTail
			if sealable < db.blockPoints {
				continue
			}
			nseal := sealable - sealable%db.blockPoints
			sealEntries = append(sealEntries, blockSealEntry{key: rec.key, canon: rec.canon, blocks: encodeSeries(rec.points[:nseal], db.blockPoints)})
			rec.points = rec.points[nseal:]
		}
		if len(sealEntries) > 0 {
			seq := db.man.BlockSeq + 1
			path := filepath.Join(db.dir, blockFileName(seq))
			err := atomicWriteFile(path, func(w io.Writer) error {
				return writeBlockFileTo(w, sealEntries, func() error {
					return db.failpoint("checkpoint:blocks:data-written")
				})
			}, db.cpHook("checkpoint:blocks"))
			if err != nil {
				return err
			}
			f, err := os.Open(path)
			if err != nil {
				return fmt.Errorf("tsdb: reopening sealed block file: %w", err)
			}
			st, err := f.Stat()
			if err == nil {
				newBlocks, err = readBlockIndex(f, st.Size())
			}
			if err != nil {
				f.Close()
				return fmt.Errorf("tsdb: sealed block file: %w", err)
			}
			newSeg = newColdSegment(seq, f, st.Size(), newBlocks)
		}
	}
	m := manifest{
		Version:       manifestVersion,
		CheckpointSeq: db.man.CheckpointSeq + 1,
		WALSeq:        gen,
		Blocks:        db.man.Blocks,
		BlockSeq:      db.man.BlockSeq,
	}
	if newSeg != nil {
		m.Blocks = append(append([]uint64(nil), db.man.Blocks...), newSeg.seq)
		m.BlockSeq = newSeg.seq
	}
	m.Checkpoint = checkpointName(m.CheckpointSeq)
	err = db.writeCheckpointFile(m.Checkpoint, recs)
	if err == nil {
		err = writeManifest(db.dir, m, db.cpHook("checkpoint:manifest"))
	}
	if err != nil {
		if newSeg != nil {
			newSeg.f.Close()
		}
		return err
	}
	old := db.man
	db.man = m
	db.setSealed()
	// The manifest committed: attach the sealed blocks, as the file's own
	// index describes them, and drop the sealed prefixes from memory. Each
	// series swaps under its shard lock; a reader between two swaps sees
	// some series already trimmed and others not, which is fine — the cold
	// blocks and the untrimmed hot slice are never both visible for one
	// series.
	if newSeg != nil {
		db.coldSegs = append(db.coldSegs, newSeg)
		for _, ent := range newBlocks {
			h, sh := db.locate(ent.key)
			sh.mu.Lock()
			s := sh.find(h, ent.key)
			sealed := db.attachBlocks(s, newSeg, ent.blocks)
			// Copy the tail to a fresh slice so the sealed prefix's backing
			// array is released to the GC — keeping the original array alive
			// would defeat the memory bound sealing exists for.
			s.points = append([]sample(nil), s.points[sealed:]...)
			sh.mu.Unlock()
			db.hotPts.Add(int64(-sealed))
		}
	}
	// The commit succeeded: the covered bytes no longer count toward the
	// size-based checkpoint trigger. Appends past the cut keep their
	// contribution (atomic subtract, not a reset).
	db.cpBytesTotal.Add(-covered)
	// Compact: unlink every segment below the new generation — more than
	// one when an earlier checkpoint failed after its swap. A crash
	// mid-loop (some segments deleted, some not) is consistent: replay
	// starts at the manifest's walSeq, and the next open reaps the rest.
	removed := false
	for seq := old.WALSeq; seq < gen; seq++ {
		if seq > old.WALSeq {
			if err := db.failpoint("checkpoint:delete:mid"); err != nil {
				return err
			}
		}
		if os.Remove(filepath.Join(db.dir, rotSegName(seq))) == nil {
			removed = true
		}
	}
	if err := db.failpoint("checkpoint:delete:before-sync"); err != nil {
		return err
	}
	if removed {
		if err := syncDir(db.dir); err != nil {
			return err
		}
	}
	if err := db.failpoint("checkpoint:delete:after-sync"); err != nil {
		return err
	}
	if old.Checkpoint != "" && old.Checkpoint != m.Checkpoint {
		os.Remove(filepath.Join(db.dir, old.Checkpoint))
	}
	db.cpTime.Observe(time.Since(start))
	return nil
}
