package tsdb

// Rotating write-ahead log segments and checkpointing.
//
// # On-disk layout (data directory)
//
//	MANIFEST                 committed layout description (JSON, atomically
//	                         replaced via temp file + rename)
//	wal-00000-000001.log ... rotating WAL segments: appends to shard i go
//	                         only to shard i's active (highest-seq) segment,
//	                         under shard i's lock; a segment seals when it
//	                         exceeds RotateBytes and the next seq opens
//	checkpoint-000001.snap   the checkpoint snapshot the manifest references:
//	                         every series' hot tail, in the block file
//	                         format (block.go); at most one is live
//	blocks-000001.blk ...    immutable compressed block files (block.go):
//	                         history a checkpoint sealed out of memory; the
//	                         manifest lists the live ones, and they
//	                         accumulate, never rewritten
//
// This is the only layout the store reads or writes.
//
// # Segment format
//
//	header: 8-byte magic "SLWALSG2" | u32 shard index | u32 shard count |
//	        u64 layout epoch | u64 sequence number | u64 base offset
//	then:   a run of WAL records (see appendRecord): u32 crc | u16 keyLen |
//	        key bytes | i64 unixNano | f64 bits
//
// Offsets are logical: they count record bytes since the epoch's stream
// began, never header bytes. The header's base offset says where this
// file's first record sits in that stream; within a shard, segments chain:
// each segment's base equals the previous segment's end, so the chain is
// reconstructible from headers and file sizes alone. Records below the
// manifest's per-shard replay offset live in the checkpoint snapshot.
//
// # Rotation
//
// When a shard's active segment exceeds the store's RotateBytes, the
// append that crossed the threshold seals it — flush, fsync, close — and
// creates the next segment (seq+1, base = the current logical end), fsyncs
// the file and the directory, then swaps the shard's writer over. No
// manifest commit is involved: recovery discovers segments by scanning the
// directory and walking each shard's seq-ordered, base-chained file list,
// so the rotation fast path never serializes on store-wide state. A crash
// between seal and create leaves the sealed segment as the append target;
// a crash after create leaves an empty, fully durable new segment.
//
// # Commit protocol
//
// The manifest rename is the only commit point. Its three users — the
// first open of a fresh directory, a shard-count change, and a checkpoint
// — follow the same order: write new data files and fsync them, rename the
// new MANIFEST into place, then clean up. A crash before the rename leaves
// the old layout fully intact (or, on a first open, no layout: the next
// open starts fresh over the leftovers); a crash after it leaves stale
// files that the next open recognizes (wrong epoch, unreferenced
// checkpoint) and ignores or deletes.
//
// Checkpoint compaction never rewrites a data file: sealed segments whose
// whole range is covered by the new checkpoint snapshot are unlinked after
// the manifest commit, and the active segment keeps its covered prefix on
// disk (replay skips it via the manifest offset) until rotation seals it
// and a later checkpoint deletes the whole file. Checkpoint cost is
// therefore bounded by the snapshot write plus O(sealed segments) unlinks,
// independent of how large the covered tail was.
//
// # Recovery
//
// Open reads the manifest, bulk-loads the referenced checkpoint snapshot
// (if any), then replays each shard's segment chain — one goroutine per
// shard — applying only records at logical offsets >= the manifest's
// per-shard replay offset. A torn record ends the chain (it is the
// signature of a crash mid-write; nothing after it was acknowledged as
// durable), and the torn bytes are truncated before the segment reopens
// for appending. Recovery time is bounded by the bytes written since the
// last checkpoint, not by the archive's full history.
//
// # Unsupported layouts
//
// A directory this build cannot read — a MANIFEST whose version is not 3
// (version 2 wrote checkpoints as raw 16-byte points, "SLTSDBSN") or that
// carries a field this build does not know (a materialized rollup
// snapshot's "rollups", raw retention's "retain"), a points.wal (the
// pre-manifest single-stream log) with no MANIFEST beside it, or a nested
// rollup/MANIFEST — fails Open with an error naming the directory and the
// layout, before anything in the directory is created, truncated, renamed
// or removed. It is never migrated and never served as an empty archive.
//
// # Crash points
//
// Every durable boundary of the rotation and checkpoint protocols runs
// through DB.failpoint with a stable name (rotate:seal:*, rotate:create:*,
// checkpoint:capture, checkpoint:segsync:*, checkpoint:blocks:* —
// including checkpoint:blocks:data-written, frozen mid-file between the
// data blocks and the index — checkpoint:snapshot:*,
// checkpoint:manifest:*, checkpoint:delete:*). The crash-matrix test
// harness arms a hook that aborts at exactly one of them — simulating a
// crash before or after the fsync at that boundary — and asserts recovery
// is exact against a reference store. No protocol change should land
// without a matrix cell covering its new boundary.

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
	"sync"
	"time"
)

const (
	manifestName    = "MANIFEST"
	manifestVersion = 3

	// Segment header: magic | u32 shard index | u32 shard count |
	// u64 epoch | u64 seq | u64 base offset.
	rotSegMagic     = "SLWALSG2"
	rotSegHeaderLen = len(rotSegMagic) + 4 + 4 + 8 + 8 + 8
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

// segRef locates one segment of a shard's chain in the manifest: its
// sequence number and the logical offset of its first record.
type segRef struct {
	Seq  uint64 `json:"seq"`
	Base uint64 `json:"base"`
}

// shardLayout is one shard's entry in the manifest.
type shardLayout struct {
	// Offset is the logical offset from which replay must resume;
	// everything below it is covered by the manifest's checkpoint.
	Offset uint64 `json:"offset"`
	// Segs lists the shard's segments at commit time, seq-ascending; the
	// last entry is the active segment. Segments rotated in after the
	// commit are discovered by directory scan and header chaining.
	Segs []segRef `json:"segs"`
}

// manifest is the committed description of the durable layout.
type manifest struct {
	Version  int    `json:"version"`
	Epoch    uint64 `json:"epoch"`
	Segments int    `json:"segments"`
	// Checkpoint is the live checkpoint snapshot's file name; empty when
	// no checkpoint has been taken in this layout.
	Checkpoint    string `json:"checkpoint,omitempty"`
	CheckpointSeq uint64 `json:"checkpointSeq"`
	// Shards[i] is shard i's replay offset and segment list.
	Shards []shardLayout `json:"shards,omitempty"`
	// Blocks lists the live compressed block files by sequence number,
	// ascending — the cold tier's committed contents. BlockSeq is the
	// last block file sequence ever committed (it only grows, so a
	// crashed seal's orphan file is overwritten on retry, never adopted).
	Blocks   []uint64 `json:"blocks,omitempty"`
	BlockSeq uint64   `json:"blockSeq,omitempty"`
}

func rotSegName(i int, seq uint64) string { return fmt.Sprintf("wal-%05d-%06d.log", i, seq) }

// scanRotSegName parses a rotating segment file name's shard index and
// sequence number. The seq scan is width-free: %06d is only a minimum
// width in rotSegName, so sequence numbers past 999999 print more digits
// and a width-limited scan would silently drop those files — and the
// acknowledged records in them — at the next recovery. The round trip
// through rotSegName still rejects non-canonical spellings.
func scanRotSegName(name string, i *int, seq *uint64) bool {
	n, err := fmt.Sscanf(name, "wal-%05d-%d.log", i, seq)
	return err == nil && n == 2 && name == rotSegName(*i, *seq)
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
	if m.Segments <= 0 {
		return manifest{}, fmt.Errorf("tsdb: malformed manifest: %d segments", m.Segments)
	}
	if m.Checkpoint != "" && (m.Checkpoint != filepath.Base(m.Checkpoint) || !strings.HasPrefix(m.Checkpoint, "checkpoint-")) {
		return manifest{}, fmt.Errorf("tsdb: malformed manifest: checkpoint name %q", m.Checkpoint)
	}
	if len(m.Shards) != m.Segments {
		return manifest{}, fmt.Errorf("tsdb: malformed manifest: %d segments, %d shard layouts", m.Segments, len(m.Shards))
	}
	for si := range m.Shards {
		segs := m.Shards[si].Segs
		if len(segs) == 0 {
			return manifest{}, fmt.Errorf("tsdb: malformed manifest: shard %d has no segments", si)
		}
		for j := 1; j < len(segs); j++ {
			if segs[j].Seq <= segs[j-1].Seq || segs[j].Base < segs[j-1].Base {
				return manifest{}, fmt.Errorf("tsdb: malformed manifest: shard %d segment list not ascending", si)
			}
		}
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

// rotHeader is a decoded rotating segment file header.
type rotHeader struct {
	index int
	count int
	epoch uint64
	seq   uint64
	base  uint64
}

func encodeRotHeader(h rotHeader) []byte {
	buf := make([]byte, rotSegHeaderLen)
	copy(buf, rotSegMagic)
	binary.LittleEndian.PutUint32(buf[8:], uint32(h.index))
	binary.LittleEndian.PutUint32(buf[12:], uint32(h.count))
	binary.LittleEndian.PutUint64(buf[16:], h.epoch)
	binary.LittleEndian.PutUint64(buf[24:], h.seq)
	binary.LittleEndian.PutUint64(buf[32:], h.base)
	return buf
}

func decodeRotHeader(buf []byte) (rotHeader, bool) {
	if len(buf) < rotSegHeaderLen || string(buf[:len(rotSegMagic)]) != rotSegMagic {
		return rotHeader{}, false
	}
	return rotHeader{
		index: int(binary.LittleEndian.Uint32(buf[8:])),
		count: int(binary.LittleEndian.Uint32(buf[12:])),
		epoch: binary.LittleEndian.Uint64(buf[16:]),
		seq:   binary.LittleEndian.Uint64(buf[24:]),
		base:  binary.LittleEndian.Uint64(buf[32:]),
	}, true
}

// openDurable brings up the durable layout for db.dir: it initializes a
// fresh directory, re-shards when the segment count no longer matches, and
// otherwise loads the checkpoint and replays per-shard segment chains. A
// directory holding a layout this build cannot read is refused before
// anything in it is touched (see "Unsupported layouts" above). It runs
// single-threaded during Open, before the store is shared.
func (db *DB) openDurable() error {
	if _, err := os.Stat(filepath.Join(db.dir, "rollup", manifestName)); err == nil {
		return fmt.Errorf("tsdb: cannot open %s: unsupported layout: rollup/MANIFEST (a nested rollup store, which this build does not read)", db.dir)
	}
	man, ok, err := readManifest(db.dir)
	if err != nil {
		return fmt.Errorf("tsdb: cannot open %s: %w", db.dir, err)
	}
	if !ok {
		// Without a manifest the directory is taken for fresh and its
		// leftovers overwritten — which would silently discard the
		// archive a pre-manifest build kept in its single-stream log.
		if _, err := os.Stat(filepath.Join(db.dir, "points.wal")); !errors.Is(err, os.ErrNotExist) {
			return fmt.Errorf("tsdb: cannot open %s: unsupported layout: points.wal with no MANIFEST (a pre-manifest single-stream log, which this build does not read)", db.dir)
		}
	}
	if db.readOnly {
		return db.openReadOnly(man, ok)
	}
	switch {
	case !ok:
		// Fresh directory, or a first open that crashed before its
		// manifest commit (stale segment/checkpoint temp files may exist
		// — commitLayout overwrites them and removeStaleFiles reaps the
		// rest).
		if err := db.commitLayout(1); err != nil {
			return err
		}
	case man.Segments != len(db.shards):
		// A shard-count change: load the full state under the committed
		// layout, then re-commit a fresh layout at a new epoch. A crash
		// before the new manifest rename leaves the old manifest
		// authoritative (the redo replays the same files); a crash after
		// it leaves stale old-epoch files that removeStaleFiles deletes
		// without replaying.
		db.man = man
		// Blocks attach before the snapshot and WAL tail load: the cold
		// prefix must be in place before hot points append after it.
		// Block files are shard-agnostic (series re-hash onto the current
		// shards at attach), so a re-shard carries them as-is.
		if err := db.openBlocks(man); err != nil {
			return err
		}
		if _, err := db.loadRotLayout(man, false); err != nil {
			return err
		}
		if err := db.commitLayout(man.Epoch + 1); err != nil {
			return err
		}
	default:
		db.man = man
		db.epoch = man.Epoch
		if err := db.openBlocks(man); err != nil {
			return err
		}
		chains, err := db.loadRotLayout(man, true)
		if err != nil {
			return err
		}
		if err := db.openActiveSegments(chains); err != nil {
			return err
		}
	}
	db.removeStaleFiles()
	return nil
}

// openReadOnly loads the committed layout without mutating the directory:
// blocks attach and the WAL chains replay exactly as in the normal open,
// but no active segment is created or truncated, no layout is
// (re-)committed, and no stale files are reclaimed. That last point is
// load-bearing for replication — a follower's puller stages files here
// between reopens, and a reaping pass would delete them. A directory
// with no manifest is refused: initializing one writes files, and a
// read-only open owns none.
func (db *DB) openReadOnly(man manifest, ok bool) error {
	if !ok {
		return fmt.Errorf("tsdb: read-only open of %s: no committed manifest", db.dir)
	}
	db.man = man
	db.epoch = man.Epoch
	if err := db.openBlocks(man); err != nil {
		return err
	}
	// With the manifest's segment count matching ours, each shard's chain
	// replays in parallel under the strict ownership checks; otherwise
	// the sequential path re-hashes every record onto the current shards
	// (the same read path a shard-count change uses, minus the re-commit).
	_, err := db.loadRotLayout(man, man.Segments == len(db.shards))
	return err
}

// applyReplayed stores one replayed point directly. Open owns the store
// exclusively, so no locks are taken; parallel chain replay is safe
// because each goroutine only touches its own shard.
func (db *DB) applyReplayed(sh *shard, k SeriesKey, ns int64, v float64) {
	db.mergeSeries(sh, k, sample{ns: ns, v: v})
}

// mergeSeries bulk-appends points to a series, maintaining the shard's
// point counter and generation and the store's key generation. The caller
// must own sh — either exclusively (recovery during Open) or via its
// write lock.
func (db *DB) mergeSeries(sh *shard, k SeriesKey, pts ...sample) {
	s := sh.series[k]
	if s == nil {
		s = &series{}
		sh.series[k] = s
		db.keyGen.Add(1)
	}
	s.points = append(s.points, pts...)
	sh.points += len(pts)
	db.hotPts.Add(int64(len(pts)))
	sh.gen.Add(uint64(len(pts)))
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
			sh := db.shardFor(ent.key)
			s := sh.series[ent.key]
			if s == nil {
				s = &series{}
				sh.series[ent.key] = s
				db.keyGen.Add(1)
			}
			if s.cold != nil && s.cold.n > 0 && ent.blocks[0].minAt < s.cold.lastAt {
				// Later files must continue where earlier ones ended; the
				// seal protocol never commits an overlap.
				return fail(fmt.Errorf("tsdb: %s: blocks of %v overlap an earlier file", name, ent.key))
			}
			total := db.attachBlocks(s, seg, ent.blocks)
			sh.points += total
			sh.gen.Add(uint64(total))
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

// replayRecords reads WAL records from r until EOF, a truncated record, or
// a CRC mismatch (all three end replay silently: they are the signature of
// a crash mid-write). Malformed keys are skipped. It returns how many
// bytes of complete, CRC-valid records were consumed, so callers can
// truncate a crashed tail before appending after it.
func replayRecords(r io.Reader, apply func(k SeriesKey, ns int64, v float64)) (int64, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(r, 1<<16)
	}
	valid := int64(0)
	var head [6]byte
	for {
		if _, err := io.ReadFull(br, head[:]); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return valid, nil // clean end or truncated header: stop replay
			}
			return valid, fmt.Errorf("tsdb: replay: %w", err)
		}
		crc := binary.LittleEndian.Uint32(head[:4])
		keyLen := int(binary.LittleEndian.Uint16(head[4:6]))
		body := make([]byte, keyLen+16)
		if _, err := io.ReadFull(br, body); err != nil {
			return valid, nil // truncated record: ignore tail
		}
		full := make([]byte, 0, 2+len(body))
		full = append(full, head[4:6]...)
		full = append(full, body...)
		if crc32.ChecksumIEEE(full) != crc {
			return valid, nil // corrupt tail: stop replay
		}
		valid += int64(len(head) + len(body))
		ns := int64(binary.LittleEndian.Uint64(body[keyLen : keyLen+8]))
		v := math.Float64frombits(binary.LittleEndian.Uint64(body[keyLen+8:]))
		k, err := ParseSeriesKey(string(body[:keyLen]))
		if err != nil {
			continue
		}
		apply(k, ns, v)
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
		db.mergeSeries(db.shardFor(rec.key), rec.key, rec.points...)
	}
	return nil
}

// rotSegOnDisk is one segment file a directory scan found for a shard.
type rotSegOnDisk struct {
	seq  uint64
	path string
}

// sealedSeg is a shard's in-memory record of one sealed (no longer
// written) segment still on disk: its sequence number and logical range.
// Checkpoint deletes sealed segments whose end falls at or below the cut.
type sealedSeg struct {
	seq, base, end uint64
}

// shardChain is the outcome of replaying one shard's segment chain: the
// sealed segments to retain, and the identity and extent of the segment
// that should become the append target.
type shardChain struct {
	sealed   []sealedSeg
	seq      uint64 // active segment sequence number
	base     uint64 // active segment base offset
	validEnd uint64 // logical end of its last complete, CRC-valid record
	sizeEnd  uint64 // size-implied end (> validEnd when the tail is torn)
	found    bool   // an active segment file exists on disk
}

// scanRotSegments lists every rotating segment file in the directory,
// grouped by shard index (0..segments-1) and sorted by sequence number.
func scanRotSegments(dir string, segments int) ([][]rotSegOnDisk, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("tsdb: scanning segments: %w", err)
	}
	out := make([][]rotSegOnDisk, segments)
	for _, e := range ents {
		var i int
		var seq uint64
		if !scanRotSegName(e.Name(), &i, &seq) || i < 0 || i >= segments {
			continue
		}
		out[i] = append(out[i], rotSegOnDisk{seq: seq, path: filepath.Join(dir, e.Name())})
	}
	for i := range out {
		sort.Slice(out[i], func(a, b int) bool { return out[i][a].seq < out[i][b].seq })
	}
	return out, nil
}

// loadRotLayout restores the store state a committed manifest
// describes: bulk-load the checkpoint snapshot, then replay
// each shard's segment chain. With parallel set (segment count == shard
// count), chains replay on one goroutine each, writing only their own
// shard; otherwise (re-shard path) replay is sequential and records
// re-hash onto the new shards. The returned chains tell openActiveSegments where each shard's
// append stream resumes.
func (db *DB) loadRotLayout(man manifest, parallel bool) ([]shardChain, error) {
	if man.Checkpoint != "" {
		if err := db.loadCheckpointFile(man.Checkpoint); err != nil {
			return nil, err
		}
	}
	found, err := scanRotSegments(db.dir, man.Segments)
	if err != nil {
		return nil, err
	}
	chains := make([]shardChain, man.Segments)
	if !parallel {
		for i := 0; i < man.Segments; i++ {
			c, err := db.replayShardChain(i, man, false, found[i])
			if err != nil {
				return nil, err
			}
			chains[i] = c
		}
		return chains, nil
	}
	errs := make([]error, man.Segments)
	var wg sync.WaitGroup
	for i := 0; i < man.Segments; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			chains[i], errs[i] = db.replayShardChain(i, man, true, found[i])
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return chains, nil
}

// replayShardChain walks shard i's seq-ordered segment files, applying
// every record at logical offsets >= the manifest's replay offset. The
// chain invariant — each segment's base equals the previous segment's
// end — is checked from headers and file sizes; a break (gap, overlap, or
// torn record) ends the chain there, because nothing past a break was
// acknowledged as durable before a crash. Files with foreign or stale
// headers are skipped (leftovers of crashed rotations and old epochs;
// removeStaleFiles reaps them). When strict is set (parallel replay),
// records that do not hash to shard i are dropped rather than applied, so
// goroutines never cross shards.
func (db *DB) replayShardChain(i int, man manifest, strict bool, segs []rotSegOnDisk) (shardChain, error) {
	lay := man.Shards[i]
	var c shardChain
	offset := lay.Offset
	for _, sg := range segs {
		f, err := os.Open(sg.path)
		if errors.Is(err, os.ErrNotExist) {
			continue
		}
		if err != nil {
			return c, fmt.Errorf("tsdb: opening segment %s: %w", filepath.Base(sg.path), err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return c, fmt.Errorf("tsdb: segment %s stat: %w", filepath.Base(sg.path), err)
		}
		head := make([]byte, rotSegHeaderLen)
		if _, err := io.ReadFull(f, head); err != nil {
			f.Close()
			continue // truncated header: crashed creation, not part of the chain
		}
		h, ok := decodeRotHeader(head)
		if !ok || h.epoch != man.Epoch || h.index != i || h.count != man.Segments || h.seq != sg.seq {
			f.Close()
			continue // stale or foreign segment
		}
		if c.found && h.base != c.validEnd {
			// Chain break: this segment does not continue the stream where
			// the previous one ended (a gap from a lost file, or an overlap
			// from a crashed rotation). Nothing from here on is reachable.
			f.Close()
			break
		}
		if c.found {
			c.sealed = append(c.sealed, sealedSeg{seq: c.seq, base: c.base, end: c.validEnd})
		}
		c.seq, c.base, c.found = h.seq, h.base, true
		c.sizeEnd = h.base
		if st.Size() > int64(rotSegHeaderLen) {
			c.sizeEnd = h.base + uint64(st.Size()-int64(rotSegHeaderLen))
		}
		if c.sizeEnd <= offset {
			// Fully covered by the checkpoint: nothing to replay. The file
			// sticks around as a sealed entry so the next checkpoint
			// deletes it (it survived a crash between manifest commit and
			// sealed-segment deletion).
			c.validEnd = c.sizeEnd
			f.Close()
			continue
		}
		br := bufio.NewReaderSize(f, 1<<16)
		start := h.base
		if skip := int64(offset) - int64(h.base); skip > 0 {
			if _, err := io.CopyN(io.Discard, br, skip); err != nil {
				// sizeEnd > offset proved the file long enough for the
				// skip, so this is a real read failure, not a short file.
				// Records in [offset, sizeEnd) are the only copy of that
				// range; refusing to open beats silently serving an
				// archive with a hole the next checkpoint would make
				// permanent.
				f.Close()
				return c, fmt.Errorf("tsdb: segment %s: skipping to checkpoint offset: %w", filepath.Base(sg.path), err)
			}
			start = offset
		}
		valid, err := replayRecords(br, func(k SeriesKey, ns int64, v float64) {
			sh := db.shardFor(k)
			if strict && sh != &db.shards[i] {
				return
			}
			db.applyReplayed(sh, k, ns, v)
		})
		f.Close()
		if err != nil {
			return c, err
		}
		c.validEnd = start + uint64(valid)
		db.replayedBytes.Add(uint64(valid))
		if c.validEnd < c.sizeEnd {
			// Torn record: the signature of a crash mid-append. Nothing at
			// or past it — in this segment or any later one — was durable.
			break
		}
	}
	if !c.found {
		// No usable segment on disk (fresh layout after a crash, or every
		// file covered and deleted): resume the stream at the manifest cut
		// under the last committed sequence number.
		seq := uint64(1)
		if n := len(lay.Segs); n > 0 {
			seq = lay.Segs[n-1].Seq
		}
		c.seq, c.base, c.validEnd, c.sizeEnd = seq, offset, offset, offset
	}
	return c, nil
}

// openActiveSegments opens each shard's active segment for appending,
// applying the chain replay's verdicts: a torn tail is truncated to the
// last complete record first (appending after a crashed half-written tail
// would strand the new records behind bytes replay refuses to cross), and
// a missing or fully-covered active segment is (re)created rebased at the
// manifest's replay offset. It must run after loadRotLayout with db.man
// and db.epoch current.
func (db *DB) openActiveSegments(chains []shardChain) error {
	n := len(db.shards)
	for i := range db.shards {
		sh := &db.shards[i]
		c := chains[i]
		offset := db.man.Shards[i].Offset
		path := filepath.Join(db.dir, rotSegName(i, c.seq))
		var f *os.File
		var err error
		if !c.found || c.validEnd < offset {
			// Fresh, or the file's valid extent sits entirely below the
			// checkpoint cut (external truncation): rebase an empty file
			// onto the cut so the logical-to-physical mapping holds.
			f, err = createRotSegmentFile(path, rotHeader{index: i, count: n, epoch: db.epoch, seq: c.seq, base: offset})
			if err != nil {
				return err
			}
			c.base, c.validEnd = offset, offset
		} else {
			f, err = os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				return fmt.Errorf("tsdb: opening segment %s: %w", filepath.Base(path), err)
			}
			if c.sizeEnd > c.validEnd {
				if err := f.Truncate(int64(rotSegHeaderLen) + int64(c.validEnd-c.base)); err != nil {
					f.Close()
					return fmt.Errorf("tsdb: segment %s truncate: %w", filepath.Base(path), err)
				}
				if err := f.Sync(); err != nil {
					f.Close()
					return fmt.Errorf("tsdb: segment %s sync: %w", filepath.Base(path), err)
				}
			}
			if _, err := f.Seek(0, io.SeekEnd); err != nil {
				f.Close()
				return fmt.Errorf("tsdb: segment %s seek: %w", filepath.Base(path), err)
			}
		}
		sh.walF = f
		sh.wal = bufio.NewWriterSize(f, 1<<16)
		sh.walSeq = c.seq
		sh.walBase = c.base
		sh.walOff = c.validEnd
		sh.sealed = c.sealed
		db.setSealed(sh, len(sh.sealed))
		// Seed the checkpoint byte counters with the replayed tail: the
		// records between the manifest cut and the chain's valid end are
		// exactly the bytes the next restart would replay again. Left at
		// zero, a writer crashing just under the threshold every run
		// would grow the tail without ever arming the size trigger.
		if c.validEnd > offset {
			tail := c.validEnd - offset
			sh.cpBytes.Store(tail)
			db.cpBytesTotal.Add(tail)
		}
	}
	return syncDir(db.dir)
}

// createRotSegmentFile (re)creates an empty rotating segment file with the
// given header, replacing whatever was at path, and fsyncs it.
func createRotSegmentFile(path string, h rotHeader) (*os.File, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("tsdb: creating segment: %w", err)
	}
	if _, err := f.Write(encodeRotHeader(h)); err == nil {
		err = f.Sync()
	} else {
		f.Close()
		return nil, fmt.Errorf("tsdb: segment header write: %w", err)
	}
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("tsdb: segment header sync: %w", err)
	}
	return f, nil
}

// rotateLocked seals the shard's active segment and opens the next one in
// the sequence. The caller holds sh.mu. Durable order: flush and fsync the
// active file (seal — everything in it is now stable), create
// wal-<shard>-<seq+1>.log with base = the current logical end, fsync the
// file and the directory, then swap the shard's writer. A crash between
// seal and create leaves the sealed segment as the append target on the
// next open (recovery finds no higher seq); a crash after create leaves an
// empty, fully durable new segment that recovery chains onto. On a real
// (non-injected) failure the shard keeps appending to the current segment
// and the half-created file, if any, is removed.
func (db *DB) rotateLocked(sh *shard) error {
	if err := sh.wal.Flush(); err != nil {
		return fmt.Errorf("tsdb: rotate flush: %w", err)
	}
	if err := db.failpoint("rotate:seal:before-sync"); err != nil {
		return err
	}
	if err := sh.walF.Sync(); err != nil {
		return fmt.Errorf("tsdb: rotate seal sync: %w", err)
	}
	if err := db.failpoint("rotate:seal:after-sync"); err != nil {
		return err
	}
	seq := sh.walSeq + 1
	path := filepath.Join(db.dir, rotSegName(sh.idx, seq))
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("tsdb: rotate create: %w", err)
	}
	_, err = f.Write(encodeRotHeader(rotHeader{index: sh.idx, count: len(db.shards), epoch: db.epoch, seq: seq, base: sh.walOff}))
	if err == nil {
		err = db.failpoint("rotate:create:before-sync")
	}
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = syncDir(db.dir)
	}
	if err == nil {
		err = db.failpoint("rotate:create:after-sync")
	}
	if err != nil {
		f.Close()
		if !errors.Is(err, errCrashPoint) {
			os.Remove(path)
		}
		return err
	}
	// Swap over. The sealed file's close error is ignored: its bytes were
	// fsync'd above and nothing will write to it again.
	sh.walF.Close()
	sh.sealed = append(sh.sealed, sealedSeg{seq: sh.walSeq, base: sh.walBase, end: sh.walOff})
	sh.walF = f
	sh.wal.Reset(f)
	sh.walSeq = seq
	sh.walBase = sh.walOff
	db.setSealed(sh, len(sh.sealed))
	return nil
}

// commitLayout persists the store's current in-memory state as a brand-new
// layout at the given epoch: a checkpoint snapshot holding every point
// (when the store is non-empty), then the manifest (the commit point),
// then one fresh empty segment per shard at seq 1. Used by the re-shard
// path and fresh-directory initialization. A crash before the manifest
// rename leaves the previous layout (if any) fully authoritative; a crash
// after it leaves at worst stale files from the old layout, which the
// next open recreates or deletes.
func (db *DB) commitLayout(epoch uint64) error {
	n := len(db.shards)
	m := manifest{
		Version:       manifestVersion,
		Epoch:         epoch,
		Segments:      n,
		CheckpointSeq: db.man.CheckpointSeq,
		Blocks:        db.man.Blocks,
		BlockSeq:      db.man.BlockSeq,
		Shards:        make([]shardLayout, n),
	}
	for i := range m.Shards {
		m.Shards[i] = shardLayout{Segs: []segRef{{Seq: 1, Base: 0}}}
	}
	if db.PointCount() > 0 {
		m.CheckpointSeq++
		m.Checkpoint = checkpointName(m.CheckpointSeq)
		if err := db.writeCheckpointFile(m.Checkpoint, db.capture()); err != nil {
			return err
		}
	}
	if err := writeManifest(db.dir, m, nil); err != nil {
		return err
	}
	old := db.man
	db.man = m
	db.epoch = epoch
	for i := range db.shards {
		sh := &db.shards[i]
		f, err := createRotSegmentFile(filepath.Join(db.dir, rotSegName(i, 1)), rotHeader{index: i, count: n, epoch: epoch, seq: 1})
		if err != nil {
			return err
		}
		sh.walF = f
		sh.wal = bufio.NewWriterSize(f, 1<<16)
		sh.walSeq = 1
		sh.walBase = 0
		sh.walOff = 0
		sh.sealed = nil
		db.setSealed(sh, 0)
		sh.cpBytes.Store(0)
	}
	db.cpBytesTotal.Store(0)
	if err := syncDir(db.dir); err != nil {
		return err
	}
	if old.Checkpoint != "" && old.Checkpoint != m.Checkpoint {
		os.Remove(filepath.Join(db.dir, old.Checkpoint))
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
//
// Only hot (in-memory) points are captured: on a store with sealed
// history, cold blocks are carried by the manifest's block list and must
// not be duplicated into checkpoint snapshots.
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
	// Keys render once, outside the locks: String() inside the comparator
	// would allocate per comparison.
	for i := range recs {
		recs[i].canon = recs[i].key.String()
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].canon < recs[j].canon })
	return recs, nil
}

// capture is the fn-less captureWith, used by layout commits.
func (db *DB) capture() []snapshotSeries {
	recs, _ := db.captureWith(nil)
	return recs
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
// orphan block files, and segment files that are neither a
// shard's active segment nor one of its retained sealed segments —
// leftovers of crashed rotations, checkpoints, first opens, and
// re-shards. Files it does not recognize
// are left alone. Runs at the end of Open, single-threaded. Best-effort.
func (db *DB) removeStaleFiles() {
	ents, err := os.ReadDir(db.dir)
	if err != nil {
		return
	}
	live := make(map[string]bool, len(db.shards)*2)
	for i := range db.shards {
		sh := &db.shards[i]
		live[rotSegName(i, sh.walSeq)] = true
		for _, sg := range sh.sealed {
			live[rotSegName(i, sg.seq)] = true
		}
	}
	liveBlocks := make(map[uint64]bool, len(db.man.Blocks))
	for _, seq := range db.man.Blocks {
		liveBlocks[seq] = true
	}
	for _, e := range ents {
		name := e.Name()
		var i int
		var seq uint64
		switch {
		case name == db.man.Checkpoint || name == manifestName:
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(db.dir, name))
		case scanRotSegName(name, &i, &seq):
			if !live[name] {
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
// The snapshot is cut per shard: each shard's contribution is captured
// together with its segment chain's logical offset under that shard's
// lock, so the pair is exact even while appends to other shards continue.
// Durable order is: flush + fsync active segments (so everything at or
// below the cut is on disk; sealed segments were fsync'd when they
// sealed), write the snapshot file, commit the manifest referencing it,
// then unlink the sealed segments the snapshot fully covers. No data file
// is ever rewritten: compaction is the manifest commit plus unlinks, so
// its cost is independent of how much history the snapshot absorbed. A
// crash between any two steps recovers to a state containing every
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
	n := len(db.shards)
	// Capture a per-shard cut: the chain's logical offset, the surviving
	// segment list, and every series' point slice, atomically per shard.
	// Point slices are append-only, so everything below the captured
	// length is immutable afterwards.
	offs := make([]uint64, n)
	files := make([]*os.File, n)
	layouts := make([]shardLayout, n)
	pres := make([]uint64, n)
	recs, err := db.captureWith(func(i int, sh *shard) error {
		if sh.wal == nil {
			return errClosed
		}
		if err := sh.wal.Flush(); err != nil {
			return fmt.Errorf("tsdb: checkpoint flush: %w", err)
		}
		offs[i] = sh.walOff
		files[i] = sh.walF
		pres[i] = sh.cpBytes.Load()
		// The manifest lists exactly the active segment: every sealed
		// segment's end was the shard's walOff when it sealed, so under
		// this lock all of them sit at or below the cut — the snapshot
		// covers them fully and the delete phase unlinks them. Segments
		// rotated in after this commit are found by directory scan and
		// base-chaining, never the manifest.
		layouts[i] = shardLayout{Offset: offs[i], Segs: []segRef{{Seq: sh.walSeq, Base: sh.walBase}}}
		return nil
	})
	if err != nil {
		return err
	}
	if err := db.failpoint("checkpoint:capture"); err != nil {
		return err
	}
	// Everything at or below the cut must be durable before a manifest
	// can claim the snapshot supersedes it. The fsyncs run concurrently
	// (as in Flush) so the stall under cpMu is one disk round trip, not
	// one per shard. A file rotation sealed (and therefore fsync'd)
	// between capture and here reports ErrClosed — already durable.
	syncErrs := make([]error, n)
	var syncWG sync.WaitGroup
	for i := range files {
		syncWG.Add(1)
		go func(i int) {
			defer syncWG.Done()
			if err := files[i].Sync(); err != nil && !errors.Is(err, os.ErrClosed) {
				syncErrs[i] = err
			}
		}(i)
	}
	syncWG.Wait()
	if err := errors.Join(syncErrs...); err != nil {
		return fmt.Errorf("tsdb: checkpoint segment sync: %w", err)
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
	if db.SealsCold() {
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
		Epoch:         db.epoch,
		Segments:      n,
		CheckpointSeq: db.man.CheckpointSeq + 1,
		Blocks:        db.man.Blocks,
		BlockSeq:      db.man.BlockSeq,
		Shards:        layouts,
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
	// The manifest committed: attach the sealed blocks, as the file's own
	// index describes them, and drop the sealed prefixes from memory. Each
	// series swaps under its shard lock; a reader between two swaps sees
	// some series already trimmed and others not, which is fine — the cold
	// blocks and the untrimmed hot slice are never both visible for one
	// series.
	if newSeg != nil {
		db.coldSegs = append(db.coldSegs, newSeg)
		for _, ent := range newBlocks {
			sh := db.shardFor(ent.key)
			sh.mu.Lock()
			s := sh.series[ent.key]
			sealed := db.attachBlocks(s, newSeg, ent.blocks)
			// Copy the tail to a fresh slice so the sealed prefix's backing
			// array is released to the GC — keeping the original array alive
			// would defeat the memory bound sealing exists for.
			s.points = append([]sample(nil), s.points[sealed:]...)
			sh.mu.Unlock()
			db.hotPts.Add(int64(-sealed))
		}
	}
	// The commit succeeded: the captured bytes no longer count toward the
	// size-based checkpoint trigger. Appends that raced past the cut keep
	// their contribution (atomic subtract, not a reset).
	var captured uint64
	for i := range db.shards {
		if pres[i] != 0 {
			db.shards[i].cpBytes.Add(^pres[i] + 1)
			captured += pres[i]
		}
	}
	if captured != 0 {
		db.cpBytesTotal.Add(^captured + 1)
	}
	// Compact: unlink every sealed segment the snapshot fully covers.
	// Purely an optimization from here on — replay skips covered records
	// via the manifest offset either way — so a crash mid-loop (some
	// segments deleted, some not) is consistent.
	removed := false
	for i := range db.shards {
		if i == n/2 {
			if err := db.failpoint("checkpoint:delete:mid"); err != nil {
				return err
			}
		}
		sh := &db.shards[i]
		sh.mu.Lock()
		keep := sh.sealed[:0]
		for _, sg := range sh.sealed {
			if sg.end <= offs[i] {
				os.Remove(filepath.Join(db.dir, rotSegName(i, sg.seq)))
				removed = true
			} else {
				keep = append(keep, sg)
			}
		}
		sh.sealed = keep
		db.setSealed(sh, len(keep))
		sh.mu.Unlock()
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
