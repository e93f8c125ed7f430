package tsdb

// Tests for the rotating WAL layout: the crash matrix over every durable
// boundary of the rotation and checkpoint protocols (× crash before/after
// the boundary's fsync), the zero-rewrite compaction guarantee, the
// differential recovery property over random schedules, and the
// size-based checkpoint trigger's replay-tail bound.

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/simrand"
)

// laterEntries is legacyEntries shifted to start at startMin minutes past
// t0, so it can follow an earlier workload in per-series time order.
func laterEntries(n, startMin int) []Entry {
	out := legacyEntries(n)
	for i := range out {
		out[i].At = t0.Add(time.Duration(startMin+i) * time.Minute)
		out[i].Value = float64(i % 5)
	}
	return out
}

// refContents deep-copies the reference store's state for comparison.
func refContents(r *refDB) map[SeriesKey][]Point {
	out := make(map[SeriesKey][]Point, len(r.series))
	for k, pts := range r.series {
		out[k] = append([]Point(nil), pts...)
	}
	return out
}

// refApplyAll appends entries to the reference store, failing the test on
// any rejection (matrix workloads are constructed in order).
func refApplyAll(t *testing.T, r *refDB, entries []Entry) {
	t.Helper()
	for _, e := range entries {
		if err := r.append(e.Key, e.At, e.Value); err != nil {
			t.Fatalf("reference append %v: %v", e.Key, err)
		}
	}
}

// forceRotate rotates shard si's active segment under its lock, the way
// an append crossing RotateBytes would.
func forceRotate(db *DB, si int) error {
	sh := &db.shards[si]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return db.rotateLocked(sh)
}

// matrixEnv is the per-cell state the disk mutations need: where the
// crash-simulating harness must truncate or restore files to model
// writes that never reached stable storage.
type matrixEnv struct {
	dir       string
	si        int    // shard the rotation cells target
	seqAtArm  uint64 // that shard's active seq when the fault was armed
	prePath   string // that shard's active segment path
	preSize   int64  // its durable size before the at-risk record
	recLen    int64  // the at-risk record's encoded length
	preCopies map[string][]byte
}

// copySegments snapshots every rotating segment file's bytes, so the
// delete-boundary cells can restore unlinks that "never hit the disk".
func copySegments(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte, len(paths))
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[filepath.Base(p)] = raw
	}
	return out
}

// truncateHalf truncates every file matching the glob pattern to half its
// size — the on-disk shape of a write that lost its tail in the page
// cache when the machine died before fsync.
func truncateHalf(t *testing.T, dir, pattern string) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, pattern))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatalf("no file matches %s; the fault did not leave the expected state", pattern)
	}
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(p, st.Size()/2); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRotationCrashMatrix enumerates every durable boundary of the
// rotation and checkpoint protocols × crash before/after that boundary's
// fsync, and demands that recovery after each simulated crash is exactly
// equal to the differential reference store — and that a subsequent
// checkpoint succeeds from the crashed state and recovery still holds.
//
// "Crash before fsync" cells additionally mutate the on-disk state after
// the fault (truncating unsynced files, restoring unsynced unlinks),
// because the injected abort alone cannot make the page cache forget.
func TestRotationCrashMatrix(t *testing.T) {
	cells := []struct {
		point     string
		op        string // "rotate" or "checkpoint"
		extra     bool   // rotation cells: append an unflushed record across the boundary
		loseExtra bool   // the crash loses that record (mutate simulates it)
		mutate    func(t *testing.T, env *matrixEnv)
	}{
		{point: "rotate:seal:before-sync", op: "rotate", extra: true, loseExtra: true,
			mutate: func(t *testing.T, env *matrixEnv) {
				// The seal's flush reached the file but not the platter:
				// the record's tail is lost, leaving a torn record.
				if err := os.Truncate(env.prePath, env.preSize+env.recLen-5); err != nil {
					t.Fatal(err)
				}
			}},
		{point: "rotate:seal:after-sync", op: "rotate", extra: true},
		{point: "rotate:create:before-sync", op: "rotate", extra: true,
			mutate: func(t *testing.T, env *matrixEnv) {
				// The new segment's header never fully persisted.
				stray := filepath.Join(env.dir, rotSegName(env.si, env.seqAtArm+1))
				if err := os.Truncate(stray, 10); err != nil {
					t.Fatal(err)
				}
			}},
		{point: "rotate:create:after-sync", op: "rotate", extra: true},
		{point: "checkpoint:capture", op: "checkpoint"},
		{point: "checkpoint:segsync:after", op: "checkpoint"},
		{point: "checkpoint:snapshot:before-sync", op: "checkpoint",
			mutate: func(t *testing.T, env *matrixEnv) {
				truncateHalf(t, env.dir, "checkpoint-*.snap.tmp")
			}},
		{point: "checkpoint:snapshot:synced", op: "checkpoint"},
		{point: "checkpoint:snapshot:committed", op: "checkpoint"},
		{point: "checkpoint:manifest:before-sync", op: "checkpoint",
			mutate: func(t *testing.T, env *matrixEnv) {
				truncateHalf(t, env.dir, manifestName+".tmp")
			}},
		{point: "checkpoint:manifest:committed", op: "checkpoint"},
		{point: "checkpoint:delete:mid", op: "checkpoint"},
		{point: "checkpoint:delete:before-sync", op: "checkpoint",
			mutate: func(t *testing.T, env *matrixEnv) {
				// The unlinks never became durable: every segment file that
				// existed before the checkpoint is back.
				for name, raw := range env.preCopies {
					p := filepath.Join(env.dir, name)
					if _, err := os.Stat(p); errors.Is(err, os.ErrNotExist) {
						if err := os.WriteFile(p, raw, 0o644); err != nil {
							t.Fatal(err)
						}
					}
				}
			}},
		{point: "checkpoint:delete:after-sync", op: "checkpoint"},
	}

	for _, cell := range cells {
		cell := cell
		t.Run(cell.point, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Shards: 4, RotateBytes: 1024}
			db, err := OpenWithOptions(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefDB()

			// Workload A, a real checkpoint (so the crashed operation has
			// a committed state to fall back to), then workload B.
			a := legacyEntries(600)
			if n, err := db.AppendBatch(a); err != nil || n != len(a) {
				t.Fatalf("stored %d, err %v", n, err)
			}
			refApplyAll(t, ref, a)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			b := laterEntries(200, 50000)
			if n, err := db.AppendBatch(b); err != nil || n != len(b) {
				t.Fatalf("stored %d, err %v", n, err)
			}
			refApplyAll(t, ref, b)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			// The live store must agree with the reference before the
			// crash; afterwards, recovery is measured against the
			// reference alone.
			assertSameContents(t, contents(db), refContents(ref))
			want := refContents(ref)

			env := &matrixEnv{dir: dir}
			if cell.op == "rotate" {
				// Rotate the target shard onto a fresh segment first, so
				// the at-risk record's durable prefix is exactly the new
				// header — the torn-tail arithmetic stays deterministic.
				k := a[0].Key
				env.si = db.ShardIndexOf(k)
				if err := forceRotate(db, env.si); err != nil {
					t.Fatal(err)
				}
				env.seqAtArm = db.shards[env.si].walSeq
				env.prePath = filepath.Join(dir, rotSegName(env.si, env.seqAtArm))
				env.preSize = int64(rotSegHeaderLen)
				env.recLen = int64(4 + 2 + len(k.String()) + 16)
				if cell.extra {
					x := Entry{Key: k, At: t0.Add(55000 * time.Minute), Value: 77}
					if err := db.Append(x.Key, x.At, x.Value); err != nil {
						t.Fatal(err)
					}
					if !cell.loseExtra {
						refApplyAll(t, ref, []Entry{x})
						want = refContents(ref)
					}
				}
			}
			env.preCopies = copySegments(t, dir)

			// Arm the crash and fire the operation.
			db.testCrash = func(point string) error {
				if point == cell.point {
					return errCrashPoint
				}
				return nil
			}
			switch cell.op {
			case "rotate":
				err = forceRotate(db, env.si)
			case "checkpoint":
				err = db.Checkpoint()
			}
			if !errors.Is(err, errCrashPoint) {
				t.Fatalf("%s: op returned %v, want injected crash", cell.point, err)
			}
			db.testCrash = nil
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if cell.mutate != nil {
				cell.mutate(t, env)
			}

			re, err := OpenWithOptions(dir, opts)
			if err != nil {
				t.Fatalf("reopen after %s: %v", cell.point, err)
			}
			assertSameContents(t, contents(re), want)
			// The store must checkpoint its way out of the crashed state,
			// and still recover exactly afterwards.
			if err := re.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after %s: %v", cell.point, err)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re2, err := OpenWithOptions(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			assertSameContents(t, contents(re2), want)
		})
	}
}

// TestCheckpointZeroRewrite proves compaction never rewrites a data file:
// every segment file that survives a checkpoint is byte-identical to its
// pre-checkpoint self (compaction = manifest commit + unlink of covered
// sealed segments), and at least one sealed segment is actually unlinked.
func TestCheckpointZeroRewrite(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithOptions(dir, Options{Shards: 4, RotateBytes: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	entries := legacyEntries(800)
	if n, err := db.AppendBatch(entries); err != nil || n != len(entries) {
		t.Fatalf("stored %d, err %v", n, err)
	}
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	hash := func() map[string][32]byte {
		t.Helper()
		paths, err := filepath.Glob(filepath.Join(dir, "wal-*-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		out := make(map[string][32]byte, len(paths))
		for _, p := range paths {
			raw, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			out[filepath.Base(p)] = sha256.Sum256(raw)
		}
		return out
	}
	before := hash()
	if len(before) <= 4 {
		t.Fatalf("workload produced only %d segment files; no rotation to compact", len(before))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := hash()
	if len(after) >= len(before) {
		t.Fatalf("checkpoint deleted no sealed segments: %d files before, %d after", len(before), len(after))
	}
	for name, h := range after {
		bh, ok := before[name]
		if !ok {
			t.Fatalf("checkpoint created segment file %s", name)
		}
		if h != bh {
			t.Fatalf("checkpoint rewrote segment file %s", name)
		}
	}
}

// TestRotatedDifferentialRecovery drives three stores — rotated (tiny
// threshold), single-segment (rotation disabled, the PR 2 shape), and the
// in-memory reference — through the same seeded random schedule of
// append / checkpoint / reopen steps, and demands all three agree after
// every reopen and at the end. Failures print the seed and op index; the
// schedule is a pure function of the seed, so a failing case shrinks by
// truncating the op count.
func TestRotatedDifferentialRecovery(t *testing.T) {
	datasets := []string{DatasetPlacementScore, DatasetPrice, DatasetInterruptFree}
	types := []string{"m5.xlarge", "c5.large", "r5.2xlarge"}
	regions := []string{"us-east-1", "eu-west-1"}
	azs := []string{"a", "b"}

	for _, seed := range []int{3, 17, 2210} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := simrand.New(uint64(seed))
			r := rng.StreamN("rotdiff", seed)
			dirRot, dirSingle := t.TempDir(), t.TempDir()
			optRot := Options{Shards: 4, RotateBytes: 256}
			optSingle := Options{Shards: 4, RotateBytes: -1}
			dbRot, err := OpenWithOptions(dirRot, optRot)
			if err != nil {
				t.Fatal(err)
			}
			dbSingle, err := OpenWithOptions(dirSingle, optSingle)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefDB()

			ts := 0
			const ops = 120
			for op := 0; op < ops; op++ {
				switch v := r.Intn(10); {
				case v < 7: // batch append, strictly time-ordered
					n := 1 + r.Intn(20)
					batch := make([]Entry, 0, n)
					for i := 0; i < n; i++ {
						ts++
						batch = append(batch, Entry{
							Key: SeriesKey{
								Dataset: datasets[r.Intn(len(datasets))],
								Type:    types[r.Intn(len(types))],
								Region:  regions[r.Intn(len(regions))],
								AZ:      azs[r.Intn(len(azs))],
							},
							At:    t0.Add(time.Duration(ts) * time.Second),
							Value: float64(r.Intn(6)),
						})
					}
					if n, err := dbRot.AppendBatch(batch); err != nil || n != len(batch) {
						t.Fatalf("seed %d op %d: rotated stored %d, err %v", seed, op, n, err)
					}
					if n, err := dbSingle.AppendBatch(batch); err != nil || n != len(batch) {
						t.Fatalf("seed %d op %d: single stored %d, err %v", seed, op, n, err)
					}
					refApplyAll(t, ref, batch)
				case v < 8: // checkpoint both
					if err := dbRot.Checkpoint(); err != nil {
						t.Fatalf("seed %d op %d: rotated checkpoint: %v", seed, op, err)
					}
					if err := dbSingle.Checkpoint(); err != nil {
						t.Fatalf("seed %d op %d: single checkpoint: %v", seed, op, err)
					}
				default: // crash-reopen both, then compare all three
					if err := dbRot.Close(); err != nil {
						t.Fatal(err)
					}
					if err := dbSingle.Close(); err != nil {
						t.Fatal(err)
					}
					if dbRot, err = OpenWithOptions(dirRot, optRot); err != nil {
						t.Fatalf("seed %d op %d: rotated reopen: %v", seed, op, err)
					}
					if dbSingle, err = OpenWithOptions(dirSingle, optSingle); err != nil {
						t.Fatalf("seed %d op %d: single reopen: %v", seed, op, err)
					}
					want := refContents(ref)
					assertSameContents(t, contents(dbRot), want)
					assertSameContents(t, contents(dbSingle), want)
				}
			}
			want := refContents(ref)
			assertSameContents(t, contents(dbRot), want)
			assertSameContents(t, contents(dbSingle), want)
			if err := dbRot.Close(); err != nil {
				t.Fatal(err)
			}
			if err := dbSingle.Close(); err != nil {
				t.Fatal(err)
			}
			finalRot, err := OpenWithOptions(dirRot, optRot)
			if err != nil {
				t.Fatal(err)
			}
			defer finalRot.Close()
			finalSingle, err := OpenWithOptions(dirSingle, optSingle)
			if err != nil {
				t.Fatal(err)
			}
			defer finalSingle.Close()
			assertSameContents(t, contents(finalRot), want)
			assertSameContents(t, contents(finalSingle), want)
		})
	}
}

// TestCheckpointAfterBytesBoundsReplayTail writes ten times a size
// threshold while checkpointing whenever WALBytesSinceCheckpoint crosses
// it — the collector's size-based trigger — and verifies the next open
// replays less than twice the threshold, i.e. recovery is bounded by
// bytes written, not archive age.
func TestCheckpointAfterBytesBoundsReplayTail(t *testing.T) {
	const threshold = 16 << 10
	dir := t.TempDir()
	opts := Options{Shards: 4, RotateBytes: 2048}
	db, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := func(i int) SeriesKey {
		return SeriesKey{Dataset: DatasetPrice, Type: fmt.Sprintf("t%d", i%31), Region: "us-east-1", AZ: "us-east-1a"}
	}
	written := uint64(0)
	ts := 0
	for written < 10*threshold {
		batch := make([]Entry, 0, 24)
		for i := 0; i < 24; i++ {
			ts++
			e := Entry{Key: k(ts), At: t0.Add(time.Duration(ts) * time.Second), Value: float64(ts % 7)}
			batch = append(batch, e)
			written += uint64(4 + 2 + len(e.Key.String()) + 16)
		}
		if n, err := db.AppendBatch(batch); err != nil || n != len(batch) {
			t.Fatalf("stored %d, err %v", n, err)
		}
		if db.WALBytesSinceCheckpoint() >= threshold {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	}
	want := contents(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.ReplayedWALBytes(); got >= 2*threshold {
		t.Fatalf("recovery replayed %d WAL bytes after writing %d; want < 2x the %d-byte checkpoint threshold",
			got, written, threshold)
	}
	assertSameContents(t, contents(re), want)
}

// TestRotSegNameRoundTrip pins the segment file name round trip,
// including sequence numbers past the %06d padding width — a
// width-limited scan would silently drop (and later overwrite) segments
// once a long-lived shard rotates past seq 999999.
func TestRotSegNameRoundTrip(t *testing.T) {
	for _, seq := range []uint64{1, 999999, 1000000, 1234567890} {
		name := rotSegName(3, seq)
		var i int
		var got uint64
		if !scanRotSegName(name, &i, &got) || i != 3 || got != seq {
			t.Fatalf("round trip failed for seq %d (name %s): i=%d got=%d", seq, name, i, got)
		}
	}
	for _, bad := range []string{
		"wal-00000.log", "wal-0-1.log", "wal-00000-01.log",
		"wal-000001-000001.log", "points.wal", "wal-00000-000001.log.tmp",
	} {
		var i int
		var seq uint64
		if scanRotSegName(bad, &i, &seq) {
			t.Fatalf("scan accepted non-canonical name %q", bad)
		}
	}
}

// TestRotationSeqPastMillionRecovers proves recovery walks a chain whose
// sequence numbers outgrow the 6-digit name padding: a shard with
// segments seq 999999 and seq 1000000 replays both and keeps appending.
func TestRotationSeqPastMillionRecovers(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, RotateBytes: -1}
	db, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	k := legacyEntries(1)[0].Key
	for i := 0; i < 10; i++ {
		if err := db.Append(k, t0.Add(time.Duration(i)*time.Minute), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Relabel the shard's only segment as seq 999999 and hand-roll a seq
	// 1000000 continuation carrying ten more records.
	oldPath := filepath.Join(dir, rotSegName(0, 1))
	raw, err := os.ReadFile(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	epoch := binary.LittleEndian.Uint64(raw[16:])
	binary.LittleEndian.PutUint64(raw[24:], 999999)
	if err := os.WriteFile(filepath.Join(dir, rotSegName(0, 999999)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(oldPath); err != nil {
		t.Fatal(err)
	}
	base := uint64(len(raw) - rotSegHeaderLen)
	next := encodeRotHeader(rotHeader{index: 0, count: 1, epoch: epoch, seq: 1000000, base: base})
	for i := 10; i < 20; i++ {
		next = appendRecord(next, k.String(), t0.Add(time.Duration(i)*time.Minute).UnixNano(), float64(i))
	}
	if err := os.WriteFile(filepath.Join(dir, rotSegName(0, 1000000)), next, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.PointCount(); got != 20 {
		t.Fatalf("recovered %d points across the seq-1000000 boundary, want 20", got)
	}
	if err := re.Append(k, t0.Add(30*time.Minute), 30); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := re2.PointCount(); got != 21 {
		t.Fatalf("append after the seq-1000000 boundary lost: %d points, want 21", got)
	}
}

// TestRotationFailureDoesNotFailAppend pins the append contract when the
// segment cannot rotate (e.g. disk full creating the next file): the
// append itself succeeds — the record is durable in the still-active
// segment — the failure shows up in RotateFailures, and recovery still
// reproduces every point.
func TestRotationFailureDoesNotFailAppend(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1, RotateBytes: 256}
	db, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	db.testCrash = func(point string) error {
		if strings.HasPrefix(point, "rotate:") {
			return errCrashPoint
		}
		return nil
	}
	k := legacyEntries(1)[0].Key
	for i := 0; i < 100; i++ {
		if err := db.Append(k, t0.Add(time.Duration(i)*time.Minute), float64(i)); err != nil {
			t.Fatalf("append %d failed because rotation failed: %v", i, err)
		}
	}
	if db.RotateFailures() == 0 {
		t.Fatal("100 appends at a 256-byte threshold triggered no rotation attempts")
	}
	db.testCrash = nil
	want := contents(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSameContents(t, contents(re), want)
}
