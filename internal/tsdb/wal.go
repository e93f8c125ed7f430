package tsdb

// WAL segment generations and checkpointing.
//
// # On-disk layout (data directory)
//
//	MANIFEST                 committed layout description (JSON, atomically
//	                         replaced via temp file + rename)
//	wal-00000-000001.log ... WAL segments, one generation per checkpoint:
//	                         appends to shard i go only to shard i's active
//	                         (highest-seq) segment, under shard i's lock
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
//	header: 8-byte magic "SLWALSG3" | u32 shard index | u32 shard count |
//	        u64 layout epoch | u64 sequence number
//	then:   a run of WAL records (see appendRecord): u32 crc | u16 keyLen |
//	        key bytes | i64 unixNano | f64 bits
//
// A segment lives for one checkpoint. Every record in a segment below the
// manifest's walSeq is in the checkpoint; every record in a segment at or
// above it is not. No offset into a file is ever recorded.
//
// # Rotation
//
// Only a checkpoint rotates the WAL. It creates the next generation of
// segments (one per shard, header written, file and directory fsynced)
// before it takes any shard lock, then, inside the capture that takes each
// shard's lock once, flushes the shard's writer and swaps it onto the new
// file — pointer work only. The swapped-out files are fsynced after the
// locks are released; until then a Flush fsyncs them too, so a point a
// Flush acknowledged in the new segment never sits behind a torn old one.
// A shard whose segment sequence fell behind (a crash or a failure between
// creating a generation and swapping onto it) gets header-only fillers for
// the missing numbers, so every shard's sequence stays gap-free.
//
// # Commit protocol
//
// The manifest rename is the only commit point. Its three users — the
// first open of a fresh directory, a shard-count change, and a checkpoint
// — follow the same order: write new data files and fsync them, rename the
// new MANIFEST into place, then clean up. A crash before the rename leaves
// the old layout fully intact (or, on a first open, no layout: the next
// open starts fresh over the leftovers); a crash after it leaves stale
// files that the next open recognizes (wrong epoch, covered sequence
// number, unreferenced checkpoint) and ignores or deletes.
//
// A checkpoint commits the manifest naming the generation it rotated to,
// then unlinks every segment below it. Checkpoint compaction never
// rewrites a data file, and after it commits no WAL byte it covers is on
// disk. A checkpoint that fails after its swap leaves the swapped-out
// segments uncovered: they replay, ship to followers, and fall to the
// next checkpoint that commits.
//
// # Recovery
//
// Open reads the manifest, bulk-loads the referenced checkpoint snapshot
// (if any), then replays each shard's segments — one goroutine per shard —
// in full and in sequence order, starting at the manifest's walSeq. A
// missing sequence number, a foreign header or a torn record ends the
// chain (a torn record is the signature of a crash mid-write; nothing
// after it was acknowledged as durable), and the torn bytes are truncated
// before the segment reopens for appending. Recovery time is bounded by
// the bytes written since the last checkpoint, not by the archive's full
// history.
//
// # Unsupported layouts
//
// A directory this build cannot read — a MANIFEST whose version is not 4
// (version 3 located the checkpoint cut by per-shard logical offsets into
// live segments; version 2 wrote checkpoints as raw 16-byte points,
// "SLTSDBSN") or that carries a field this build does not know (a
// materialized rollup snapshot's "rollups", raw retention's "retain"), a
// points.wal (the pre-manifest single-stream log) with no MANIFEST beside
// it, or a nested rollup/MANIFEST — fails Open with an error naming the
// directory and the layout, before anything in the directory is created,
// truncated, renamed or removed. It is never migrated and never served as
// an empty archive.
//
// # Crash points
//
// Every durable boundary of the checkpoint protocol runs through
// DB.failpoint with a stable name (rotate:create:*, rotate:seal:*,
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
	manifestVersion = 4

	// Segment header: magic | u32 shard index | u32 shard count |
	// u64 epoch | u64 seq.
	rotSegMagic     = "SLWALSG3"
	rotSegHeaderLen = len(rotSegMagic) + 4 + 4 + 8 + 8

	// maxShards bounds a store's shard count, and with it the segment
	// count a manifest may claim: recovery allocates per segment before it
	// has read a file, and a segment name holds a five-digit shard index.
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
	Version  int    `json:"version"`
	Epoch    uint64 `json:"epoch"`
	Segments int    `json:"segments"`
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

func rotSegName(i int, seq uint64) string { return fmt.Sprintf("wal-%05d-%06d.log", i, seq) }

// scanRotSegName parses a segment file name's shard index and
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
	if m.Segments <= 0 || m.Segments > maxShards {
		return manifest{}, fmt.Errorf("tsdb: malformed manifest: %d segments", m.Segments)
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

// rotHeader is a decoded segment file header.
type rotHeader struct {
	index int
	count int
	epoch uint64
	seq   uint64
}

func encodeRotHeader(h rotHeader) []byte {
	buf := make([]byte, rotSegHeaderLen)
	copy(buf, rotSegMagic)
	binary.LittleEndian.PutUint32(buf[8:], uint32(h.index))
	binary.LittleEndian.PutUint32(buf[12:], uint32(h.count))
	binary.LittleEndian.PutUint64(buf[16:], h.epoch)
	binary.LittleEndian.PutUint64(buf[24:], h.seq)
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

// shardChain is the outcome of replaying one shard's segment chain: the
// segment that should become the append target, its extent, and the
// record bytes the chain replayed.
type shardChain struct {
	seq      uint64 // active segment sequence number
	valid    int64  // record bytes of its complete, CRC-valid records
	size     int64  // record bytes on disk (> valid when the tail is torn)
	replayed uint64 // record bytes replayed across the whole chain
	found    bool   // an active segment file exists on disk
}

// scanRotSegments lists every segment file in the directory, grouped by
// shard index (0..segments-1) and sorted by sequence number.
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

// replayShardChain replays shard i's segments in full and in sequence
// order, starting at the manifest's walSeq; segments below it are
// covered by the checkpoint and skipped unread (removeStaleFiles reaps
// them). A missing sequence number, a file whose header names another
// epoch, shard or layout, or a torn record ends the chain there, because
// nothing past such a break was acknowledged as durable before a crash.
// When strict is set (parallel replay), records that do not hash to shard
// i are dropped rather than applied, so goroutines never cross shards.
func (db *DB) replayShardChain(i int, man manifest, strict bool, segs []rotSegOnDisk) (shardChain, error) {
	c := shardChain{seq: man.WALSeq}
	for _, sg := range segs {
		if sg.seq < man.WALSeq {
			continue
		}
		next := man.WALSeq
		if c.found {
			next = c.seq + 1
		}
		if sg.seq != next {
			break
		}
		f, err := os.Open(sg.path)
		if err != nil {
			return c, fmt.Errorf("tsdb: opening segment %s: %w", filepath.Base(sg.path), err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return c, fmt.Errorf("tsdb: segment %s stat: %w", filepath.Base(sg.path), err)
		}
		br := bufio.NewReaderSize(f, 1<<16)
		head := make([]byte, rotSegHeaderLen)
		if _, err := io.ReadFull(br, head); err != nil {
			f.Close()
			break // truncated header: crashed creation
		}
		h, ok := decodeRotHeader(head)
		if !ok || h.epoch != man.Epoch || h.index != i || h.count != man.Segments || h.seq != sg.seq {
			f.Close()
			break // stale or foreign segment
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
		c.seq, c.found = sg.seq, true
		c.valid, c.size = valid, st.Size()-int64(rotSegHeaderLen)
		c.replayed += uint64(valid)
		db.replayedBytes.Add(uint64(valid))
		if valid < c.size {
			break // torn record: a crash mid-append
		}
	}
	return c, nil
}

// openActiveSegments opens each shard's active segment for appending,
// applying the chain replay's verdicts: a torn tail is truncated to the
// last complete record first (appending after a crashed half-written tail
// would strand the new records behind bytes replay refuses to cross), and
// a shard with no usable segment gets a fresh one at the manifest's
// walSeq. It must run after loadRotLayout with db.man and db.epoch
// current.
func (db *DB) openActiveSegments(chains []shardChain) error {
	n := len(db.shards)
	for i := range db.shards {
		sh := &db.shards[i]
		c := chains[i]
		path := filepath.Join(db.dir, rotSegName(i, c.seq))
		var f *os.File
		var err error
		if !c.found {
			f, err = createRotSegmentFile(path, rotHeader{index: i, count: n, epoch: db.epoch, seq: c.seq})
			if err != nil {
				return err
			}
		} else {
			f, err = os.OpenFile(path, os.O_RDWR, 0o644)
			if err != nil {
				return fmt.Errorf("tsdb: opening segment %s: %w", filepath.Base(path), err)
			}
			if c.size > c.valid {
				if err := f.Truncate(int64(rotSegHeaderLen) + c.valid); err != nil {
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
		db.setSealed(sh)
		// Seed the checkpoint byte counters with the replayed chain: those
		// records are exactly the bytes the next restart would replay
		// again. Left at zero, a writer crashing just under the threshold
		// every run would grow the tail without ever arming the size
		// trigger.
		if c.replayed > 0 {
			sh.cpBytes.Store(c.replayed)
			db.cpBytesTotal.Add(c.replayed)
		}
	}
	return syncDir(db.dir)
}

// createRotSegmentFile (re)creates an empty segment file with the given
// header, replacing whatever was at path, and fsyncs it.
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

// createGeneration creates segment gen for every shard, before any shard
// lock is taken: each file is created, its header written and the file
// fsynced, then the directory is fsynced. A shard whose active sequence
// is below gen-1 also gets header-only fillers for the numbers between,
// so its chain stays gap-free. It returns each shard's gen file, open for
// appending. On a real (non-injected) failure every file it created is
// closed and removed: no shard has swapped onto one, and none holds a
// record. The caller holds cpMu, which is what keeps walSeq still.
func (db *DB) createGeneration(gen uint64) ([]*os.File, error) {
	n := len(db.shards)
	out := make([]*os.File, n)
	var created []string
	err := func() error {
		for i := range db.shards {
			for seq := db.shards[i].walSeq + 1; seq <= gen; seq++ {
				path := filepath.Join(db.dir, rotSegName(i, seq))
				created = append(created, path)
				f, err := createRotSegmentFile(path, rotHeader{index: i, count: n, epoch: db.epoch, seq: seq})
				if err != nil {
					return err
				}
				if seq < gen {
					f.Close()
				} else {
					out[i] = f
				}
				// The file is durable, its directory entry not yet.
				if err := db.failpoint("rotate:create:before-sync"); err != nil {
					return err
				}
			}
		}
		if err := syncDir(db.dir); err != nil {
			return err
		}
		return db.failpoint("rotate:create:after-sync")
	}()
	if err != nil {
		closeFiles(out)
		if !errors.Is(err, errCrashPoint) {
			for _, p := range created {
				os.Remove(p)
			}
		}
		return nil, err
	}
	return out, nil
}

// syncRetired fsyncs swapped-out segments of sh, then drops them from
// sh.unsynced and closes them. A file another syncer (a Flush, or a
// closing store) already synced and closed reports ErrClosed, which
// therefore means durable.
func (sh *shard) syncRetired(files []*os.File) error {
	for _, f := range files {
		if err := f.Sync(); err != nil && !errors.Is(err, os.ErrClosed) {
			return err
		}
	}
	sh.mu.Lock()
	var keep, gone []*os.File
	for _, f := range sh.unsynced {
		if slices.Contains(files, f) {
			gone = append(gone, f)
		} else {
			keep = append(keep, f)
		}
	}
	// Rebuilt, never edited in place: syncers iterate a copy of the slice
	// header they took under the lock.
	sh.unsynced = keep
	sh.mu.Unlock()
	// Their bytes are durable and nothing writes them again, so a close
	// error changes nothing.
	closeFiles(gone)
	return nil
}

// closeFiles closes every non-nil file in fs.
func closeFiles(fs []*os.File) {
	for _, f := range fs {
		if f != nil {
			f.Close()
		}
	}
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
		WALSeq:        1,
		CheckpointSeq: db.man.CheckpointSeq,
		Blocks:        db.man.Blocks,
		BlockSeq:      db.man.BlockSeq,
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
		db.setSealed(sh)
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
// how checkpoint swaps the shard onto a new segment at exactly the cut
// that matches the captured series, without duplicating this loop. An fn
// error aborts the capture. A plain capture (fn == nil) only reads, so it
// takes the shared lock and never stalls concurrent appends or queries;
// with fn set the exclusive lock is taken, because fn mutates shard state
// (it flushes the WAL writer and swaps it).
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
// orphan block files, and segment files outside a shard's chain — below
// the manifest's walSeq (covered) or above the shard's active segment —
// leftovers of crashed checkpoints, first opens, and re-shards. Files it
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
		var i int
		var seq uint64
		switch {
		case name == db.man.Checkpoint || name == manifestName:
		case strings.HasSuffix(name, ".tmp"):
			os.Remove(filepath.Join(db.dir, name))
		case scanRotSegName(name, &i, &seq):
			if i >= len(db.shards) || seq < db.man.WALSeq || seq > db.shards[i].walSeq {
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
// first, then swaps each shard onto it under the same shard lock that
// captures the shard's series, so the snapshot holds exactly the records
// of the swapped-out segments, even while appends to other shards
// continue. Durable order is: fsync the swapped-out segments, write the
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
	n := len(db.shards)
	// walSeq only moves under cpMu, which we hold.
	gen := uint64(0)
	for i := range db.shards {
		gen = max(gen, db.shards[i].walSeq+1)
	}
	next, err := db.createGeneration(gen)
	if err != nil {
		return err
	}
	// Capture a per-shard cut: swap the shard onto its new segment and
	// take every series' point slice, atomically per shard. Point slices
	// are append-only, so everything below the captured length is
	// immutable afterwards.
	retired := make([][]*os.File, n)
	pres := make([]uint64, n)
	recs, err := db.captureWith(func(i int, sh *shard) error {
		if sh.wal == nil {
			return errClosed
		}
		if err := sh.wal.Flush(); err != nil {
			return fmt.Errorf("tsdb: checkpoint flush: %w", err)
		}
		sh.unsynced = append(sh.unsynced, sh.walF)
		retired[i] = sh.unsynced
		sh.walF, next[i] = next[i], nil
		sh.wal.Reset(sh.walF)
		sh.walSeq = gen
		db.setSealed(sh)
		pres[i] = sh.cpBytes.Load()
		return db.failpoint("rotate:seal:before-sync")
	})
	closeFiles(next)
	if err != nil {
		return err
	}
	if err := db.failpoint("checkpoint:capture"); err != nil {
		return err
	}
	// Everything below the cut must be durable before a manifest can
	// claim the snapshot supersedes it. The fsyncs run concurrently (as
	// in Flush) so the stall under cpMu is one disk round trip, not one
	// per shard.
	syncErrs := make([]error, n)
	var syncWG sync.WaitGroup
	for i := range retired {
		syncWG.Add(1)
		go func(i int) {
			defer syncWG.Done()
			if syncErrs[i] = db.shards[i].syncRetired(retired[i]); syncErrs[i] == nil {
				syncErrs[i] = db.failpoint("rotate:seal:after-sync")
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
	// Compact: unlink every segment below the new generation. A crash
	// mid-loop (some segments deleted, some not) is consistent: replay
	// starts at the manifest's walSeq, and the next open reaps the rest.
	removed := false
	for i := range db.shards {
		if i == n/2 {
			if err := db.failpoint("checkpoint:delete:mid"); err != nil {
				return err
			}
		}
		for seq := old.WALSeq; seq < gen; seq++ {
			if os.Remove(filepath.Join(db.dir, rotSegName(i, seq))) == nil {
				removed = true
			}
		}
		db.setSealed(&db.shards[i])
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
