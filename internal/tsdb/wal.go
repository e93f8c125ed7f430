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
//	                         every series' unsealed points, in the block file
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
//	header: 8-byte magic "SLWALSG6" | u64 sequence number
//	then:   a run of records, one per shard group an append or a batch
//	        stored (see writeLog):
//	          u32 crc | uvarint bodyLen | body   crc over bodyLen's bytes and body
//	        body: varint(baseNs - prevBaseNs), zigzag, wrapping: the first
//	        entry's unix nanoseconds, from the segment's previous record's
//	        (from 0 in its first record), then per entry:
//	          uvarint(id<<1 | defines)
//	          [uvarint keyLen | canonical key]  only when defines is set
//	          uvarint(zigzag(ns - baseNs)<<2 | form)   the delta wrapping
//	          value, by form:
//	            0  varint m                 an integer: the value is m
//	            1  u8 e | varint m          a decimal: the value is m/10^e
//	            2  f64 bits                 any other value
//
// A series is named by an ID that holds for one segment. The first entry
// of a series in a segment defines it, carrying its key and taking the
// segment's next ID (IDs run 0, 1, 2 … in log order); later entries carry
// only the ID.
//
// A value takes the decimal form when scaledMantissa (block.go) finds its
// mantissa m at the smallest e <= 18, so m/10^e converts back to the value
// bit for bit, and the form takes at most 8 bytes; -0.0, a price with a
// full 53-bit mantissa and every other value take the raw one. So no value
// costs more than the 8 bytes a raw one does, and the form's two bits cost
// an entry at the record's tick nothing: its timestamp field stays one
// byte. A stored point costs at least 3 bytes (1-byte ID, timestamp field
// and value): a collector tick, whose entries share one timestamp and a
// handful of records and hold small decimals, costs about 4 (see
// maintain.go for what the byte trigger charges it).
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
// series' unsealed points: the swapped-out segments hold exactly the
// captured raw points. They are fsynced after the locks are released; until then a
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
// Open reads the manifest, loads the referenced checkpoint snapshot
// (if any), then replays the segments in one sequential pass, in
// sequence order from the manifest's walSeq, applying each entry to the
// shard this open places its series' key in. A missing sequence number, a
// foreign header or a torn record (short, a body length that does not end
// within 5 bytes or runs past the segment's end, or failing its crc) ends
// the chain (a torn record is the signature of a
// crash mid-write; nothing after it was acknowledged as durable), and the
// torn bytes are truncated before the segment reopens for appending. A
// record that passes its crc but is malformed, names an ID its segment
// never defined or defines a series by a key that does not parse fails
// Open, naming the segment: the writer never produces one. Appends
// resume in the last replayed segment at its next free ID, their first
// record's base a delta from its last valid record's. Recovery
// time is bounded by the bytes written since the last checkpoint, not by
// the archive's full history.
//
// # Unsupported layouts
//
// A directory this build cannot read — a MANIFEST whose version is not 9
// (version 8 wrote WAL segments "SLWALSG5", whose entries carried every
// value as 8 raw bytes, under a fixed 8-byte record header — u32 crc, u32
// body length — and a full varint base timestamp in each record; version
// 7 wrote block file version 2, whose values are all XORed
// against the last, without a block value mode; version 6 wrote block
// file version 1, whose timestamps count nanoseconds without a block time
// unit; version 5 wrote one WAL record
// per point, each carrying its series' key, under segment magic
// "SLWALSG4"; version 4 kept one segment chain
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
	manifestVersion = 9

	// Segment header: magic | u64 seq.
	rotSegMagic     = "SLWALSG6"
	rotSegHeaderLen = len(rotSegMagic) + 8

	// walCRCLen is a record's u32 crc. walLenReserve is the room
	// beginRecord leaves after it for the body length, a uvarint of at
	// most that many bytes; finishRecord moves the body down over what
	// the length does not take.
	walCRCLen     = 4
	walLenReserve = binary.MaxVarintLen32
	// walRecordSplit is the body size past which writeLog ends a record
	// and starts the next, so no body outgrows a 32-bit length.
	walRecordSplit = 1 << 20
)

// An entry's value form, in the low two bits of its timestamp field.
const (
	walValueInt    = 0 // the zigzag varint of the value, an integer
	walValueScaled = 1 // a byte e, then the zigzag varint of the mantissa at 10^e
	walValueRaw    = 2 // the float64's 8 bytes
	walFormBits    = 2 // the field's bits the form takes
)

// walDeltaLimit bounds an entry's zigzagged timestamp delta from its
// record's base: the value form takes the field's two low bits.
const walDeltaLimit = 1 << (64 - walFormBits)

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
		if c, err = db.replayLog(); err == nil {
			err = db.lastSealed()
		}
		if err != nil || db.readOnly {
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

// replaySample appends a replayed point to s, a series of sh, maintaining
// its last point, the shard's point counter and the store's generation.
// The caller must own sh.
func (db *DB) replaySample(sh *shard, s *series, p sample) {
	s.points = append(s.points, p)
	s.last = p
	db.countLocked(sh, 1)
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
			if n := len(s.blocks); n > 0 && ent.blocks[0].minAt < s.blocks[n-1].maxAt {
				// Later files must continue where earlier ones ended; the
				// seal protocol never commits an overlap.
				return fail(fmt.Errorf("tsdb: %s: blocks of %v overlap an earlier file", name, ent.key))
			}
			sh.points += db.attachBlocks(s, seg, ent.blocks)
		}
	}
	return nil
}

// attachBlocks appends one series' blocks, as read from seg's index, to
// its block list with their global start indices, and returns how many
// points they hold. The blocks of a block file are sealed history and
// count toward the store's cold counters; those of the checkpoint held in
// memory come after every sealed block. It is the one place blocks enter
// a series, at open and at checkpoint alike; the caller owns s (Open,
// single-threaded) or holds its shard's write lock.
func (db *DB) attachBlocks(s *series, seg *coldSegment, blocks []blockMeta) int {
	n := blocksN(s.blocks)
	total := 0
	var bytes int64
	for _, b := range blocks {
		b.seg = seg
		b.start = n + total
		s.blocks = append(s.blocks, b)
		total += int(b.count)
		bytes += int64(b.length)
	}
	if seg.f != nil {
		s.sealed = len(s.blocks)
		db.coldPts.Add(int64(total))
		db.sealedBlks.Add(int64(len(blocks)))
		db.coldBytes.Add(bytes)
	}
	return total
}

// beginRecord starts a WAL record at the end of buf: room for its crc
// and body length, then the body's base timestamp, base, as a delta from
// prev, the base of the segment's previous record (0 for its first).
func beginRecord(buf []byte, prev, base int64) []byte {
	var head [walCRCLen + walLenReserve]byte
	return binary.AppendVarint(append(buf, head[:]...), base-prev)
}

// appendRecordEntry appends one entry to the record whose base timestamp
// is base: a point of the series with ID id, which it defines when k is
// non-nil, writing k's canonical form in place. The delta from base
// wraps, and its zigzag form must be below walDeltaLimit (writeLog starts
// a new record for a point further away): the wrapped delta decodes back
// exactly.
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
	form, e, m := walValue(v)
	buf = binary.AppendUvarint(buf, zigzag(ns-base)<<walFormBits|form)
	switch form {
	case walValueScaled:
		buf = append(buf, byte(e))
		fallthrough
	case walValueInt:
		return binary.AppendVarint(buf, m)
	}
	return binary.LittleEndian.AppendUint64(buf, math.Float64bits(v))
}

// walValue returns v's value form in a WAL entry and, for the decimal
// forms, its exponent e and mantissa m: the smallest e <= scaleMax at
// which scaledMantissa finds one, so float64(m)/10^e is v bit for bit.
// A value with no such e, -0.0 among them, and a scaled one whose e byte
// and mantissa would take more than 8 bytes take the raw form.
func walValue(v float64) (form uint64, e int, m int64) {
	for ; e <= scaleMax; e++ {
		var ok bool
		if m, ok = scaledMantissa(v, scalePow[e]); !ok {
			continue
		}
		if e == 0 {
			// |m| <= maxMantissa: a varint of at most 8 bytes.
			return walValueInt, 0, m
		}
		if zigzag(m) < 1<<49 { // a varint of at most 7 bytes
			return walValueScaled, e, m
		}
		break
	}
	return walValueRaw, 0, 0
}

// finishRecord fills in the body length and the crc of the record that
// starts at buf[start], moving the body down to follow the length.
func finishRecord(buf []byte, start int) []byte {
	bodyAt := start + walCRCLen + walLenReserve
	n := len(buf) - bodyAt
	at := walCRCLen + binary.PutUvarint(buf[start+walCRCLen:], uint64(n))
	copy(buf[start+at:], buf[bodyAt:])
	buf = buf[:start+at+n]
	binary.LittleEndian.PutUint32(buf[start:], crc32.ChecksumIEEE(buf[start+walCRCLen:]))
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

// decodeRecordBody decodes a record's body into ents, given prev, the
// base timestamp of the segment's previous record, and checking every ID
// against next, the segment's next free ID: a defining entry must take
// exactly next and carry a key ParseSeriesKey accepts, and a referencing
// one must name an ID below it. It returns the entries, the record's
// base and the next free ID after them.
func decodeRecordBody(body []byte, prev int64, next uint64, ents []recEntry) ([]recEntry, int64, uint64, error) {
	d, n := binary.Varint(body)
	if n <= 0 {
		return ents, prev, next, errMalformedRecord
	}
	base := prev + d
	for p := n; p < len(body); {
		var e recEntry
		tag, n := binary.Uvarint(body[p:])
		if n <= 0 {
			return ents, base, next, errMalformedRecord
		}
		p += n
		e.id, e.define = tag>>1, tag&1 == 1
		if e.define {
			if e.id != next {
				return ents, base, next, fmt.Errorf("%w: entry defines series ID %d, next free ID is %d", errMalformedRecord, e.id, next)
			}
			next++
			keyLen, n := binary.Uvarint(body[p:])
			if n <= 0 || keyLen > uint64(len(body)-p-n) {
				return ents, base, next, errMalformedRecord
			}
			p += n
			e.key = body[p : p+int(keyLen)]
			p += int(keyLen)
			if _, ok := keyCuts(e.key); !ok {
				return ents, base, next, fmt.Errorf("%w: series ID %d defined by malformed key %q", errMalformedRecord, e.id, e.key)
			}
		} else if e.id >= next {
			return ents, base, next, fmt.Errorf("%w: entry names undefined series ID %d", errMalformedRecord, e.id)
		}
		field, n := binary.Uvarint(body[p:])
		if n <= 0 {
			return ents, base, next, errMalformedRecord
		}
		p += n
		e.ns = base + unzigzag(field>>walFormBits)
		switch form := field & (1<<walFormBits - 1); form {
		case walValueInt, walValueScaled:
			pow := 1.0
			if form == walValueScaled {
				if p == len(body) || body[p] > scaleMax {
					return ents, base, next, errMalformedRecord
				}
				pow = scalePow[body[p]]
				p++
			}
			m, n := binary.Varint(body[p:])
			if n <= 0 {
				return ents, base, next, errMalformedRecord
			}
			p += n
			e.v = float64(m) / pow
		case walValueRaw:
			if len(body)-p < 8 {
				return ents, base, next, errMalformedRecord
			}
			e.v = math.Float64frombits(binary.LittleEndian.Uint64(body[p:]))
			p += 8
		default:
			return ents, base, next, errMalformedRecord
		}
		ents = append(ents, e)
	}
	return ents, base, next, nil
}

// replayRecords reads the records of one segment, whose record bytes
// number size, from br. EOF, a short record, a body length that does not
// end within walLenReserve bytes or runs past the segment's end, and a
// crc mismatch all end replay silently: they are the signature of a crash
// mid-write. A crc-valid record that does not decode, names an undefined
// ID or defines a malformed key is an error. Each record is decoded whole
// before apply sees its entries, in order; a defining entry's key is
// valid only during the call. replayRecords returns how many bytes of
// complete, applied records it consumed, so callers can truncate a
// crashed tail before appending after it, the segment's next free ID and
// the base timestamp of its last applied record, from which appends that
// continue the segment count theirs.
func replayRecords(br *bufio.Reader, size int64, apply func(e *recEntry)) (valid int64, ids uint64, base int64, err error) {
	var head [walCRCLen + walLenReserve]byte
	var body []byte
	var ents []recEntry
	for {
		if _, err := io.ReadFull(br, head[:walCRCLen]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return valid, ids, base, nil // clean end or truncated header: stop replay
			}
			return valid, ids, base, fmt.Errorf("tsdb: replay: %w", err)
		}
		h := walCRCLen
		for {
			if h == len(head) {
				return valid, ids, base, nil // a length that never ends: torn
			}
			c, err := br.ReadByte()
			if err == io.EOF {
				return valid, ids, base, nil // truncated length: stop replay
			} else if err != nil {
				return valid, ids, base, fmt.Errorf("tsdb: replay: %w", err)
			}
			head[h] = c
			h++
			if c < 0x80 {
				break
			}
		}
		n, _ := binary.Uvarint(head[walCRCLen:h])
		if rest := size - valid - int64(h); rest < 0 || n > uint64(rest) {
			return valid, ids, base, nil // a length past the segment's end: torn
		}
		body = slices.Grow(body[:0], int(n))[:n]
		if _, err := io.ReadFull(br, body); err != nil {
			return valid, ids, base, nil // truncated record: ignore tail
		}
		if crc32.Update(crc32.ChecksumIEEE(head[walCRCLen:h]), crc32.IEEETable, body) != binary.LittleEndian.Uint32(head[:]) {
			return valid, ids, base, nil // corrupt tail: stop replay
		}
		var next uint64
		var recBase int64
		if ents, recBase, next, err = decodeRecordBody(body, base, ids, ents[:0]); err != nil {
			return valid, ids, base, err
		}
		for i := range ents {
			apply(&ents[i])
		}
		valid += int64(h) + int64(n)
		ids, base = next, recBase
	}
}

// loadCheckpointFile loads the named checkpoint snapshot into the store:
// its data section stays in memory, and each series' blocks in it follow
// the series' sealed ones. The checkpoint is the only copy of the
// truncated history: refusing to open without it beats silently serving
// a partial archive.
func (db *DB) loadCheckpointFile(name string) error {
	f, err := os.Open(filepath.Join(db.dir, name))
	if err != nil {
		return fmt.Errorf("tsdb: opening checkpoint: %w", err)
	}
	var (
		seg  *coldSegment
		recs []checkpointSeries
	)
	st, err := f.Stat()
	if err == nil {
		seg, recs, err = readCheckpoint(f, st.Size())
	}
	f.Close()
	if err != nil {
		return fmt.Errorf("tsdb: loading checkpoint: %w", err)
	}
	for _, rec := range recs {
		h, sh := db.locate(rec.key)
		s := db.seriesLocked(sh, h, rec.key)
		db.countLocked(sh, db.attachBlocks(s, seg, rec.blocks))
		s.last = rec.last
	}
	return nil
}

// lastSealed sets the last point of every series whose points are all
// sealed, from its newest sealed block: no checkpoint or WAL entry named
// the series, so nothing else did. A seal always leaves at least one point
// unsealed, so this is the repair of a layout no checkpoint writes, and
// it costs a well-formed open one pass over the series. Runs
// single-threaded during Open, after the replay.
func (db *DB) lastSealed() error {
	var err error
	for i := range db.shards {
		db.shards[i].each(func(s *series) {
			if err != nil || len(s.points) > 0 || s.sealed == 0 || s.sealed < len(s.blocks) {
				return
			}
			r := coldRead{horizon: noHorizon}
			var pts []sample
			if pts, err = db.coldBlockPoints(&s.blocks[s.sealed-1], &r); err != nil {
				err = fmt.Errorf("tsdb: newest sealed point of %v: %w", s.key, db.coldReadErr(err))
				return
			}
			s.last = pts[len(pts)-1]
		})
	}
	return err
}

// logChain is what replaying the WAL found: the segment appends resume
// in, its extent, next free series ID and last record's base timestamp,
// and the record bytes and points the whole chain replayed.
type logChain struct {
	seq      uint64 // active segment sequence number
	valid    int64  // record bytes of its complete, CRC-valid records
	size     int64  // record bytes on disk (> valid when the tail is torn)
	ids      uint64 // series IDs its valid records define
	base     int64  // base timestamp of its last valid record
	replayed uint64 // record bytes replayed across the whole chain
	points   uint64 // points replayed across the whole chain
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
	var seq, points uint64
	apply := func(e *recEntry) {
		points++
		if e.define {
			k, _ := ParseSeriesKey(string(e.key))
			h, sh := db.locate(k)
			t := target{sh: sh, s: db.seriesLocked(sh, h, k)}
			t.s.walSeq, t.s.walID = seq, e.id
			targets = append(targets, t)
		}
		t := targets[e.id]
		db.replaySample(t.sh, t.s, sample{ns: e.ns, v: e.v})
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
		valid, ids, base, err := replayRecords(br, size, apply)
		f.Close()
		if err != nil {
			return c, fmt.Errorf("tsdb: replaying segment %s: %w", name, err)
		}
		c = logChain{seq: seq, valid: valid, size: size, ids: ids, base: base, replayed: c.replayed + uint64(valid), points: points, found: true}
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
		db.walWritten.Add(uint64(rotSegHeaderLen))
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
	db.walSeq, db.walNextID, db.walBase = c.seq, c.ids, c.base
	db.setSealed()
	// Seed the checkpoint counters with the replayed chain: those records
	// are exactly the bytes and points the next restart would replay
	// again. Left at zero, a writer crashing just under the threshold
	// every run would grow the tail without ever arming the size trigger.
	db.cpBytesTotal.Store(c.replayed)
	db.cpPointsTotal.Store(c.points)
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
		db.walWritten.Add(uint64(rotSegHeaderLen))
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

// cutSeries is one series as the checkpoint's cut captures it, and what
// the checkpoint makes of it. blocks and raw are its unsealed points at
// the cut: the last checkpoint's blocks, held in memory, and the raw tail
// appended since. The checkpoint merges the two and encodes them again:
// seal holds the whole blocks it seals and cp the rest, which the new
// checkpoint file holds; once the file is written, sealed and mem locate
// them in the block file and in memory. canon caches the key's canonical
// form, which orders the series and names them in the files.
type cutSeries struct {
	sh     *shard
	s      *series
	canon  string
	blocks []blockMeta
	raw    []sample
	seal   []encodedBlock
	cp     []encodedBlock
	sealed []blockMeta
	mem    []blockMeta
}

// cutLog is the checkpoint's cut. With every shard lock held (shared, in
// ascending order, as Close takes them) and then the log lock, it flushes
// the log's buffer, swaps the log onto next — generation gen — whose
// series IDs start again at 0, and captures every series' unsealed points
// (the last checkpoint's blocks and the raw tail), unsorted. Every log
// write happens under a shard's write lock, so the swapped-out segments
// hold exactly the captured points, while reads go on. Points are
// append-only and block lists are replaced, never edited, so everything
// captured is immutable afterwards and the result can be encoded without
// further locking. cutLog returns the captured series, the swapped-out
// segments no fsync has reached (db.unsynced), and the record bytes and
// points the cut covers. It owns next: a cut that fails before the swap
// closes it.
//
// Sealed blocks are not captured: the manifest's block list carries them,
// and they must not be duplicated into checkpoint snapshots.
func (db *DB) cutLog(gen uint64, next *os.File) (cut []cutSeries, retired []*os.File, covered, coveredPts uint64, err error) {
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
		return nil, nil, 0, 0, err
	}
	db.unsynced = append(db.unsynced, db.walF)
	retired = db.unsynced
	db.walF = next
	db.wal.Reset(next)
	db.walSeq, db.walNextID, db.walBase = gen, 0, 0
	covered, coveredPts = db.cpBytesTotal.Load(), db.cpPointsTotal.Load()
	db.logMu.Unlock()
	db.setSealed()
	for i := range db.shards {
		sh := &db.shards[i]
		sh.each(func(s *series) {
			cut = append(cut, cutSeries{sh: sh, s: s, blocks: s.blocks[s.sealed:len(s.blocks):len(s.blocks)], raw: s.points})
		})
	}
	return cut, retired, covered, coveredPts, db.failpoint("rotate:seal:before-sync")
}

// sortCut sorts the cut by canonical key. Keys render once: String()
// inside the comparator would allocate per comparison.
func sortCut(cut []cutSeries) {
	for i := range cut {
		cut[i].canon = cut[i].s.key.String()
	}
	sort.Slice(cut, func(i, j int) bool { return cut[i].canon < cut[j].canon })
}

// merge appends c's captured unsealed points to pts, in order: its blocks
// decoded in full, then its raw tail.
func (c *cutSeries) merge(pts []sample) ([]sample, error) {
	for i := range c.blocks {
		b := &c.blocks[i]
		pts = slices.Grow(pts, int(b.count))
		got, err := decodeBlock(pts[len(pts):], b.memBytes(), int(b.count), noHorizon)
		if err != nil {
			return nil, fmt.Errorf("tsdb: checkpoint: unsealed block %d of %v: %w", i, c.s.key, err)
		}
		pts = pts[:len(pts)+len(got)]
	}
	return append(pts, c.raw...), nil
}

// checkpointSeries is one series as a checkpoint file holds it: its
// blocks, in the data section readCheckpoint keeps in memory, and its
// newest point.
type checkpointSeries struct {
	key    SeriesKey
	blocks []blockMeta
	last   sample
}

// readCheckpoint reads and validates a whole checkpoint file of size
// bytes before anything is applied to a store, so malformed input never
// leaves a DB half-loaded. It returns the file's data section, read into
// memory as a segment every returned block points into, and each
// series' blocks and newest point. Every block is CRC-checked and decoded
// in full, and its first and last points must match its index entry,
// which with the index's ordering keeps each series in time order across
// its blocks. One block's points are decoded at a time, into one buffer:
// a bad block costs at most its own maxBlockPoints, whatever the index
// claims for the blocks after it.
func readCheckpoint(r io.ReaderAt, size int64) (*coldSegment, []checkpointSeries, error) {
	entries, err := readBlockIndex(r, size)
	if err != nil {
		return nil, nil, err
	}
	// The blocks tile the data section, back to back from the header
	// (readBlockIndex checked it).
	end := uint64(blockHeaderLen)
	if n := len(entries); n > 0 {
		bs := entries[n-1].blocks
		end = bs[len(bs)-1].off + uint64(bs[len(bs)-1].length)
	}
	seg := &coldSegment{data: make([]byte, end-uint64(blockHeaderLen))}
	if _, err := r.ReadAt(seg.data, int64(blockHeaderLen)); err != nil {
		return nil, nil, fmt.Errorf("tsdb: checkpoint data: %w", err)
	}
	recs := make([]checkpointSeries, len(entries))
	var pts []sample
	for i, e := range entries {
		for j := range e.blocks {
			b := &e.blocks[j]
			b.seg, b.off = seg, b.off-uint64(blockHeaderLen)
			if pts, err = checkedDecode(b.memBytes(), b, pts, noHorizon); err != nil {
				return nil, nil, fmt.Errorf("tsdb: checkpoint block %d of %v: %w", j, e.key, err)
			}
			if pts[0].ns != b.minAt || pts[len(pts)-1].ns != b.maxAt {
				return nil, nil, fmt.Errorf("tsdb: checkpoint block %d of %v disagrees with its index", j, e.key)
			}
		}
		recs[i] = checkpointSeries{key: e.key, blocks: e.blocks, last: pts[len(pts)-1]}
	}
	return seg, recs, nil
}

// writeCheckpointFile writes entries, sorted by canonical key, as a
// checkpoint to name inside the data directory (temp file, fsync, rename,
// directory fsync) and returns the file's size.
func (db *DB) writeCheckpointFile(name string, entries []blockSealEntry) (int64, error) {
	var size int64
	err := atomicWriteFile(filepath.Join(db.dir, name), func(w io.Writer) error {
		cw := &countingWriter{w: w}
		err := writeBlockFileTo(cw, entries, nil)
		size = cw.n
		return err
	}, db.cpHook("checkpoint:snapshot"))
	return size, err
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// packCheckpoint copies the checkpoint's blocks, in file order, into one
// buffer, the file's data section, which memory keeps once the checkpoint
// commits: each cut series' cp blocks are re-sliced onto it (so the file
// is written from it), and mem locates them there. It returns the
// segment holding the buffer.
func packCheckpoint(cut []cutSeries) *coldSegment {
	size := 0
	for i := range cut {
		for _, b := range cut[i].cp {
			size += len(b.data)
		}
	}
	seg := &coldSegment{data: make([]byte, 0, size)}
	for i := range cut {
		c := &cut[i]
		c.mem = make([]blockMeta, len(c.cp))
		for j := range c.cp {
			b := &c.cp[j]
			off := len(seg.data)
			seg.data = append(seg.data, b.data...)
			b.data = seg.data[off:len(seg.data):len(seg.data)]
			c.mem[j] = blockMeta{off: uint64(off), length: uint32(len(b.data)), count: b.count, minAt: b.minAt, maxAt: b.maxAt}
		}
	}
	return seg
}

// assignSealed hands each cut series that sealed its blocks as the
// sealed block file's index describes them: the file holds the sealing
// series in cut order.
func assignSealed(cut []cutSeries, index []blockIndexEntry) error {
	for i := range cut {
		if c := &cut[i]; len(c.seal) > 0 {
			if len(index) == 0 || index[0].key != c.s.key || len(index[0].blocks) != len(c.seal) {
				return fmt.Errorf("index disagrees with the seal of %v", c.s.key)
			}
			c.sealed, index = index[0].blocks, index[1:]
		}
	}
	return nil
}

// swapLocked replaces c's captured unsealed points with what the
// committed checkpoint made of them: its sealed blocks, in block file
// seg, and its checkpoint blocks, held in memory by mem. The points
// appended since the cut stay raw, copied to a fresh slice so the
// captured tail's backing array is released to the GC. The block list is
// rebuilt, never edited, so a view captured before the swap keeps its
// own. It returns how many points it sealed; the caller holds c's shard
// write lock.
func (db *DB) swapLocked(c *cutSeries, seg, mem *coldSegment) int {
	s := c.s
	s.blocks = append(make([]blockMeta, 0, s.sealed+len(c.sealed)+len(c.mem)), s.blocks[:s.sealed]...)
	sealed := 0
	if len(c.sealed) > 0 {
		sealed = db.attachBlocks(s, seg, c.sealed)
	}
	db.attachBlocks(s, mem, c.mem)
	s.points = append([]sample(nil), s.points[len(c.raw):]...)
	return sealed
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
// loads the snapshot and replays only the records appended
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
	cut, retired, covered, coveredPts, err := db.cutLog(gen, next)
	if err != nil {
		return err
	}
	sortCut(cut)
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
	// Merge each captured series' unsealed points, then seal: carve whole
	// blocks off the merged prefix, keeping at least hotTail points
	// unsealed, and encode the rest for the checkpoint snapshot, which so
	// holds exactly what stays unsealed — blocks and snapshot partition
	// the history, never overlap. One series' points are decoded at a
	// time. The block file must be durable before the manifest (the commit
	// point) references it, and so must be readable: the file is opened
	// and its index read back before the commit, so a file the next open
	// could not attach aborts the whole checkpoint while the old manifest
	// is still authoritative. Either abort leaves an orphan blocks file
	// that the next successful seal overwrites (BlockSeq only advances on
	// commit) and removeStaleFiles reaps at open.
	var (
		pts                  []sample
		sealEntries, entries []blockSealEntry
	)
	for i := range cut {
		c := &cut[i]
		if pts, err = c.merge(pts[:0]); err != nil {
			return err
		}
		nseal := 0
		if sealable := len(pts) - db.hotTail; sealable >= db.blockPoints {
			nseal = sealable - sealable%db.blockPoints
			c.seal = encodeSeries(pts[:nseal], db.blockPoints)
			sealEntries = append(sealEntries, blockSealEntry{key: c.s.key, canon: c.canon, blocks: c.seal})
		}
		if len(pts) > nseal {
			c.cp = encodeSeries(pts[nseal:], maxBlockPoints)
			entries = append(entries, blockSealEntry{key: c.s.key, canon: c.canon, blocks: c.cp})
		}
	}
	mem := packCheckpoint(cut)
	var newSeg *coldSegment
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
		var index []blockIndexEntry
		if err == nil {
			index, err = readBlockIndex(f, st.Size())
		}
		if err == nil {
			err = assignSealed(cut, index)
		}
		if err != nil {
			f.Close()
			return fmt.Errorf("tsdb: sealed block file: %w", err)
		}
		newSeg = newColdSegment(seq, f, st.Size(), index)
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
	cpSize, err := db.writeCheckpointFile(m.Checkpoint, entries)
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
	db.cpWritten.Add(uint64(cpSize))
	if newSeg != nil {
		db.cpWritten.Add(uint64(newSeg.size))
	}
	// The manifest committed: every captured series swaps its unsealed
	// points for the sealed blocks, as the block file's own index
	// describes them, and the checkpoint's blocks, held in memory, under
	// its shard lock. A reader between two swaps sees some series already
	// swapped and others not, which is fine — one series' old and new
	// points are never both visible.
	if newSeg != nil {
		db.coldSegs = append(db.coldSegs, newSeg)
	}
	for i := range cut {
		c := &cut[i]
		c.sh.mu.Lock()
		sealed := db.swapLocked(c, newSeg, mem)
		c.sh.mu.Unlock()
		db.hotPts.Add(int64(-sealed))
	}
	// The commit succeeded: the covered bytes and points no longer count
	// toward the size-based checkpoint trigger. Appends past the cut keep
	// their contribution (atomic subtract, not a reset).
	db.cpBytesTotal.Add(-covered)
	db.cpPointsTotal.Add(-coveredPts)
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
