package tsdb

// Tests for the WAL's segment generations: the crash matrix over every
// durable boundary of the checkpoint protocol and the rotation inside it
// (× crash before/after the boundary's fsync), the guarantee that a
// committed checkpoint leaves none of the WAL it covers on disk, the
// differential recovery property over random schedules with failing
// checkpoints, and the size-based checkpoint trigger's replay-tail bound.

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
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

// matrixEnv is the per-cell state the disk mutations need: where the
// crash-simulating harness must truncate or restore files to model
// writes that never reached stable storage.
type matrixEnv struct {
	dir       string
	gen       uint64 // the generation the crashed checkpoint rotates to
	prePath   string // the active segment when the fault was armed
	preSize   int64  // its durable size before the at-risk record
	recLen    int64  // the at-risk record's encoded length
	tearOld   bool   // flush cell: the swapped-out segment still unsynced
	preCopies map[string][]byte
	appended  chan error // swap cell: the append that waited for the cut
}

// tearAtRisk truncates the at-risk record in the pre-checkpoint segment
// mid-record: the swap flushed it into the file but no fsync carried it
// to the platter.
func (env *matrixEnv) tearAtRisk(t *testing.T) {
	t.Helper()
	if err := os.Truncate(env.prePath, env.preSize+env.recLen-5); err != nil {
		t.Fatal(err)
	}
}

// copySegments snapshots every segment file's bytes, so the
// delete-boundary cells can restore unlinks that "never hit the disk".
func copySegments(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
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
// checkpoint protocol — the rotation onto the next segment generation
// (rotate:create:*, rotate:seal:*) and the commit that follows — × crash
// before/after that boundary's fsync, and demands that recovery after
// each simulated crash is exactly equal to the differential reference
// store — and that a subsequent checkpoint succeeds from the crashed
// state and recovery still holds.
//
// "Crash before fsync" cells additionally mutate the on-disk state after
// the fault (truncating unsynced files, restoring unsynced unlinks),
// because the injected abort alone cannot make the page cache forget.
func TestRotationCrashMatrix(t *testing.T) {
	cells := []struct {
		name      string // the subtest; the failpoint it arms unless point is set
		point     string
		loseExtra bool // the crash loses the at-risk record (mutate simulates it)
		// uncovered makes an earlier checkpoint fail after its swap, so
		// the crashed one covers two generations.
		uncovered bool
		// during runs inside the crash hook, just before the abort; after
		// runs once the crashed checkpoint has returned.
		during func(t *testing.T, db *DB, env *matrixEnv, ref *refDB)
		after  func(t *testing.T, db *DB, env *matrixEnv, ref *refDB)
		mutate func(t *testing.T, env *matrixEnv)
	}{
		{name: "rotate:create:before-sync",
			mutate: func(t *testing.T, env *matrixEnv) {
				// The new segment's directory entry never persisted.
				if err := os.Remove(filepath.Join(env.dir, rotSegName(env.gen))); err != nil {
					t.Fatalf("no generation-%d segment to lose: %v", env.gen, err)
				}
			}},
		{name: "rotate:create:after-sync"},
		// Fires inside the cut, with every shard lock held, right after
		// the swap: the at-risk record sits in the swapped-out segment,
		// which no fsync has reached.
		{name: "rotate:seal:before-sync", loseExtra: true,
			mutate: func(t *testing.T, env *matrixEnv) { env.tearAtRisk(t) }},
		// The same boundary, seen from a writer: the cut holds every shard
		// lock, so an append started inside it waits, lands wholly in the
		// new generation, and a Flush after it makes both segments
		// durable.
		{name: "rotate:swap:append-waits", point: "rotate:seal:before-sync",
			during: func(t *testing.T, db *DB, env *matrixEnv, ref *refDB) {
				for i := range db.shards {
					if db.shards[i].mu.TryLock() {
						db.shards[i].mu.Unlock()
						t.Errorf("shard %d is not locked at the swap", i)
					}
				}
				env.appended = make(chan error, 1)
				go func() {
					env.appended <- db.Append(matrixKey, t0.Add(56000*time.Minute), 88)
				}()
				select {
				case err := <-env.appended:
					t.Fatalf("an append completed inside the cut (err %v)", err)
				case <-time.After(20 * time.Millisecond):
				}
			},
			after: func(t *testing.T, db *DB, env *matrixEnv, ref *refDB) {
				if err := <-env.appended; err != nil {
					t.Fatal(err)
				}
				refApplyAll(t, ref, []Entry{{Key: matrixKey, At: t0.Add(56000 * time.Minute), Value: 88}})
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				st, err := os.Stat(filepath.Join(env.dir, rotSegName(env.gen)))
				if err != nil || st.Size() <= int64(rotSegHeaderLen) {
					t.Fatalf("the waiting append is not in generation %d (%v, %v)", env.gen, st, err)
				}
			}},
		{name: "rotate:seal:after-sync"},
		// A point acknowledged by Flush in the new segment, while the old
		// one still waits for the checkpoint's fsync: Flush must have
		// synced the old one too, or the torn old segment ends the chain
		// in front of the acknowledged point.
		{name: "rotate:seal:flush", point: "checkpoint:capture",
			during: func(t *testing.T, db *DB, env *matrixEnv, ref *refDB) {
				y := Entry{Key: matrixKey, At: t0.Add(56000 * time.Minute), Value: 88}
				if err := db.Append(y.Key, y.At, y.Value); err != nil {
					t.Fatal(err)
				}
				if err := db.Flush(); err != nil {
					t.Fatal(err)
				}
				refApplyAll(t, ref, []Entry{y})
				env.tearOld = len(db.unsynced) > 0
			},
			mutate: func(t *testing.T, env *matrixEnv) {
				if env.tearOld {
					env.tearAtRisk(t)
				}
			}},
		{name: "checkpoint:capture"},
		{name: "checkpoint:segsync:after"},
		{name: "checkpoint:snapshot:before-sync",
			mutate: func(t *testing.T, env *matrixEnv) {
				truncateHalf(t, env.dir, "checkpoint-*.snap.tmp")
			}},
		{name: "checkpoint:snapshot:synced"},
		{name: "checkpoint:snapshot:committed"},
		{name: "checkpoint:manifest:before-sync",
			mutate: func(t *testing.T, env *matrixEnv) {
				truncateHalf(t, env.dir, manifestName+".tmp")
			}},
		{name: "checkpoint:manifest:committed"},
		// Between unlinking the two generations the checkpoint covers.
		{name: "checkpoint:delete:mid", uncovered: true},
		{name: "checkpoint:delete:before-sync",
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
		{name: "checkpoint:delete:after-sync"},
	}

	for _, cell := range cells {
		cell := cell
		t.Run(cell.name, func(t *testing.T) {
			point := cell.point
			if point == "" {
				point = cell.name
			}
			dir := t.TempDir()
			opts := Options{Shards: 4}
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
			if cell.uncovered {
				injected := errors.New("injected failure after the swap")
				db.testCrash = func(p string) error {
					if p == "checkpoint:capture" {
						return injected
					}
					return nil
				}
				if err := db.Checkpoint(); !errors.Is(err, injected) {
					t.Fatalf("checkpoint returned %v, want the injected failure", err)
				}
				db.testCrash = nil
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			// The live store must agree with the reference before the
			// crash; afterwards, recovery is measured against the
			// reference alone.
			assertSameContents(t, contents(db), refContents(ref))

			// The at-risk record: one more point, left in the write
			// buffer. The checkpoint's swap flushes it into the segment it
			// swaps out; only that segment's fsync makes it durable.
			k := matrixKey
			env := &matrixEnv{dir: dir, gen: db.walSeq + 1}
			env.prePath = filepath.Join(dir, rotSegName(db.walSeq))
			st, err := os.Stat(env.prePath)
			if err != nil {
				t.Fatal(err)
			}
			env.preSize = st.Size()
			x := Entry{Key: k, At: t0.Add(55000 * time.Minute), Value: 77}
			if err := db.Append(x.Key, x.At, x.Value); err != nil {
				t.Fatal(err)
			}
			// The append reached write(2) before it returned.
			if st, err = os.Stat(env.prePath); err != nil {
				t.Fatal(err)
			}
			env.recLen = st.Size() - env.preSize
			if !cell.loseExtra {
				refApplyAll(t, ref, []Entry{x})
			}
			env.preCopies = copySegments(t, dir)

			// Arm the crash and fire the checkpoint.
			db.testCrash = func(p string) error {
				if p != point {
					return nil
				}
				if cell.during != nil {
					cell.during(t, db, env, ref)
				}
				return errCrashPoint
			}
			if err := db.Checkpoint(); !errors.Is(err, errCrashPoint) {
				t.Fatalf("%s: checkpoint returned %v, want injected crash", cell.name, err)
			}
			db.testCrash = nil
			if cell.after != nil {
				cell.after(t, db, env, ref)
			}
			want := refContents(ref)
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if cell.mutate != nil {
				cell.mutate(t, env)
			}

			re, err := OpenWithOptions(dir, opts)
			if err != nil {
				t.Fatalf("reopen after %s: %v", cell.name, err)
			}
			assertSameContents(t, contents(re), want)
			// The store must checkpoint its way out of the crashed state,
			// and still recover exactly afterwards.
			if err := re.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after %s: %v", cell.name, err)
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

// matrixKey is the series of the crash matrix's at-risk records: a key
// of the legacy workload, whose points all lie before them.
var matrixKey = legacyEntries(1)[0].Key

// walFileBytes sums the sizes of every WAL segment file in dir and
// returns it with the file count.
func walFileBytes(t *testing.T, dir string) (int64, int) {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		total += st.Size()
	}
	return total, len(paths)
}

// TestCheckpointZeroRewrite proves that after a committed checkpoint no
// WAL byte it covers is on disk, and that compaction never rewrote a
// data file to get there: no segment file that existed before the
// checkpoint survives it, and the WAL is one file holding exactly the
// records appended since (WALBytesSinceCheckpoint) plus its header.
func TestCheckpointZeroRewrite(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithOptions(dir, Options{Shards: 4})
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
	before := copySegments(t, dir)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after := copySegments(t, dir)
	for name := range after {
		if _, ok := before[name]; ok {
			t.Fatalf("segment file %s survived the checkpoint that covers it", name)
		}
	}
	check := func(when string) {
		t.Helper()
		if err := db.Flush(); err != nil {
			t.Fatal(err)
		}
		onDisk, files := walFileBytes(t, dir)
		if files != 1 {
			t.Fatalf("%s: %d segment files, want one", when, files)
		}
		if want := int64(db.WALBytesSinceCheckpoint()) + int64(files*rotSegHeaderLen); onDisk != want {
			t.Fatalf("%s: WAL files hold %d bytes, want %d un-checkpointed record bytes plus %d headers",
				when, onDisk, db.WALBytesSinceCheckpoint(), files)
		}
	}
	check("after the checkpoint")
	tail := laterEntries(100, 90000)
	if n, err := db.AppendBatch(tail); err != nil || n != len(tail) {
		t.Fatalf("stored %d, err %v", n, err)
	}
	check("after appending past it")
}

// TestRotatedDifferentialRecovery drives three stores — one whose
// checkpoints always succeed, one whose checkpoints fail at a random
// protocol step about half the time (each failure a real error, so the
// cleanup paths run: uncovered swapped-out segments, generations created
// but never swapped onto), and the in-memory reference — through
// the same seeded random schedule of append / checkpoint / reopen steps,
// and demands all three agree after every reopen and at the end.
// Failures print the seed and op index; the schedule is a pure function
// of the seed, so a failing case shrinks by truncating the op count.
func TestRotatedDifferentialRecovery(t *testing.T) {
	datasets := []string{DatasetPlacementScore, DatasetPrice, DatasetInterruptFree}
	types := []string{"m5.xlarge", "c5.large", "r5.2xlarge"}
	regions := []string{"us-east-1", "eu-west-1"}
	azs := []string{"a", "b"}
	failPoints := []string{
		"rotate:create:before-sync", "rotate:create:after-sync",
		"rotate:seal:before-sync", "rotate:seal:after-sync",
		"checkpoint:capture", "checkpoint:segsync:after",
		"checkpoint:snapshot:before-sync", "checkpoint:manifest:before-sync",
	}
	injected := errors.New("injected checkpoint failure")

	for _, seed := range []int{3, 17, 2210} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := simrand.New(uint64(seed))
			r := rng.StreamN("rotdiff", seed)
			dirOK, dirFail := t.TempDir(), t.TempDir()
			opts := Options{Shards: 4}
			failAt := ""
			open := func(dir string, failing bool) *DB {
				t.Helper()
				db, err := OpenWithOptions(dir, opts)
				if err != nil {
					t.Fatalf("seed %d: open: %v", seed, err)
				}
				if failing {
					db.testCrash = func(p string) error {
						if p == failAt {
							return injected
						}
						return nil
					}
				}
				return db
			}
			dbOK, dbFail := open(dirOK, false), open(dirFail, true)
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
					if n, err := dbOK.AppendBatch(batch); err != nil || n != len(batch) {
						t.Fatalf("seed %d op %d: stored %d, err %v", seed, op, n, err)
					}
					if n, err := dbFail.AppendBatch(batch); err != nil || n != len(batch) {
						t.Fatalf("seed %d op %d: failing store stored %d, err %v", seed, op, n, err)
					}
					refApplyAll(t, ref, batch)
				case v < 8: // checkpoint both
					if err := dbOK.Checkpoint(); err != nil {
						t.Fatalf("seed %d op %d: checkpoint: %v", seed, op, err)
					}
					failAt = ""
					if r.Intn(2) == 0 {
						failAt = failPoints[r.Intn(len(failPoints))]
					}
					err := dbFail.Checkpoint()
					if failAt == "" && err != nil || failAt != "" && !errors.Is(err, injected) {
						t.Fatalf("seed %d op %d: checkpoint failing at %q returned %v", seed, op, failAt, err)
					}
					failAt = ""
				default: // reopen both, then compare all three
					if err := dbOK.Close(); err != nil {
						t.Fatal(err)
					}
					if err := dbFail.Close(); err != nil {
						t.Fatal(err)
					}
					dbOK, dbFail = open(dirOK, false), open(dirFail, true)
					want := refContents(ref)
					assertSameContents(t, contents(dbOK), want)
					assertSameContents(t, contents(dbFail), want)
				}
			}
			want := refContents(ref)
			assertSameContents(t, contents(dbOK), want)
			assertSameContents(t, contents(dbFail), want)
			// A checkpoint that commits reclaims everything a failed one
			// left behind.
			if err := dbFail.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if n := dbFail.SealedSegments(); n != 0 {
				t.Fatalf("seed %d: %d uncovered segments after a committed checkpoint", seed, n)
			}
			if err := dbOK.Close(); err != nil {
				t.Fatal(err)
			}
			if err := dbFail.Close(); err != nil {
				t.Fatal(err)
			}
			finalOK, finalFail := open(dirOK, false), open(dirFail, false)
			defer finalOK.Close()
			defer finalFail.Close()
			assertSameContents(t, contents(finalOK), want)
			assertSameContents(t, contents(finalFail), want)
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
	opts := Options{Shards: 4}
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
// once a long-lived store rotates past seq 999999.
func TestRotSegNameRoundTrip(t *testing.T) {
	for _, seq := range []uint64{1, 999999, 1000000, 1234567890} {
		name := rotSegName(seq)
		var got uint64
		if !scanRotSegName(name, &got) || got != seq {
			t.Fatalf("round trip failed for seq %d (name %s): got=%d", seq, name, got)
		}
	}
	for _, bad := range []string{
		"wal-00000.log", "wal-0-1.log", "wal-01.log", "wal-00000-000001.log",
		"wal-0000001.log", "points.wal", "wal-000001.log.tmp",
	} {
		var seq uint64
		if scanRotSegName(bad, &seq) {
			t.Fatalf("scan accepted non-canonical name %q", bad)
		}
	}
}

// TestRotationAfterCrashedGeneration covers a crash while a checkpoint
// creates its generation, after the new segment was durable but before
// its directory entry was — with the entry lost, and with it kept, which
// leaves the header-only segment as the chain's active one at the next
// open. The reopened store then runs a checkpoint that fails after its
// swap, appends more, and must reopen exactly: the points appended after
// the failed checkpoint sit in a segment recovery only reaches through a
// gap-free chain.
func TestRotationAfterCrashedGeneration(t *testing.T) {
	for _, entryLost := range []bool{false, true} {
		t.Run(fmt.Sprintf("entryLost=%v", entryLost), func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Shards: 4}
			db, err := OpenWithOptions(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefDB()
			apply := func(db *DB, entries []Entry) {
				t.Helper()
				if n, err := db.AppendBatch(entries); err != nil || n != len(entries) {
					t.Fatalf("stored %d, err %v", n, err)
				}
				refApplyAll(t, ref, entries)
			}
			apply(db, legacyEntries(600))
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			apply(db, laterEntries(200, 50000))
			gen := db.walSeq + 1
			db.testCrash = func(p string) error {
				if p == "rotate:create:before-sync" {
					return errCrashPoint
				}
				return nil
			}
			if err := db.Checkpoint(); !errors.Is(err, errCrashPoint) {
				t.Fatalf("checkpoint returned %v, want injected crash", err)
			}
			db.testCrash = nil
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if entryLost {
				if err := os.Remove(filepath.Join(dir, rotSegName(gen))); err != nil {
					t.Fatal(err)
				}
			}
			re, err := OpenWithOptions(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			want := gen
			if entryLost {
				want = gen - 1
			}
			if re.walSeq != want {
				t.Fatalf("after the crash the log appends to segment %d, want %d", re.walSeq, want)
			}
			apply(re, laterEntries(200, 52000))
			injected := errors.New("injected snapshot failure")
			re.testCrash = func(p string) error {
				if p == "checkpoint:snapshot:before-sync" {
					return injected
				}
				return nil
			}
			if err := re.Checkpoint(); !errors.Is(err, injected) {
				t.Fatalf("checkpoint returned %v, want the injected failure", err)
			}
			re.testCrash = nil
			apply(re, laterEntries(200, 54000))
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re2, err := OpenWithOptions(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			assertSameContents(t, contents(re2), refContents(ref))
		})
	}
}

// TestRotationSeqPastMillionRecovers proves recovery walks a chain whose
// sequence numbers outgrow the 6-digit name padding: segments seq 999999
// and seq 1000000 both replay, and the store keeps appending.
func TestRotationSeqPastMillionRecovers(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 1}
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
	// Relabel the only segment as seq 999999, hand-roll a seq 1000000
	// continuation carrying ten more records, and point the manifest's
	// first uncovered generation at the relabelled segment.
	oldPath := filepath.Join(dir, rotSegName(1))
	raw, err := os.ReadFile(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	copy(raw, encodeRotHeader(999999))
	if err := os.WriteFile(filepath.Join(dir, rotSegName(999999)), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(oldPath); err != nil {
		t.Fatal(err)
	}
	var tail []Entry
	for i := 10; i < 20; i++ {
		tail = append(tail, Entry{Key: k, At: t0.Add(time.Duration(i) * time.Minute), Value: float64(i)})
	}
	next := append(encodeRotHeader(1000000), walRecord(tail)...)
	if err := os.WriteFile(filepath.Join(dir, rotSegName(1000000)), next, 0o644); err != nil {
		t.Fatal(err)
	}
	man, _, err := readManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.WALSeq = 999999
	if err := writeManifest(dir, man, nil); err != nil {
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
	// A checkpoint rotates past the boundary and reclaims both.
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := re.Append(k, t0.Add(31*time.Minute), 31); err != nil {
		t.Fatal(err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(segs) != 1 || filepath.Base(segs[0]) != rotSegName(1000001) {
		t.Fatalf("segment files %v after the checkpoint, want only %s", segs, rotSegName(1000001))
	}
	re2, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := re2.PointCount(); got != 22 {
		t.Fatalf("appends after the seq-1000000 boundary lost: %d points, want 22", got)
	}
}

// TestRotationFailureFailsCheckpoint pins what happens when the next
// segment generation cannot be created (e.g. disk full): the rotation is
// part of the checkpoint, so the checkpoint fails — returned to a manual
// caller, counted in spotlake_maintenance_errors_total for the byte
// trigger's — before the log swapped. Appends continue on the old
// segment, the old manifest stays authoritative, no half-created file is
// left, and a reopen is exact.
func TestRotationFailureFailsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 2, CheckpointAfterBytes: 2048, MaintenanceInterval: -1}
	db, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range legacyEntries(40) { // ~1.8KB: under the threshold
		if err := db.Append(e.Key, e.At, e.Value); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	committed, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	seq := db.walSeq
	noSpace := errors.New("injected: no space left on device")
	db.testCrash = func(point string) error {
		if point == "rotate:create:before-sync" {
			return noSpace
		}
		return nil
	}
	if err := db.Checkpoint(); !errors.Is(err, noSpace) {
		t.Fatalf("checkpoint with a failing segment create returned %v", err)
	}
	for _, e := range laterEntries(200, 1000) { // ~9KB: past the threshold
		if err := db.Append(e.Key, e.At, e.Value); err != nil {
			t.Fatalf("append failed because the checkpoint's rotation failed: %v", err)
		}
	}
	if errs, cp := db.maintErrs.Value(), db.maintCP.Value(); errs == 0 || cp != 0 {
		t.Fatalf("byte trigger over a failing rotation: %d errors, %d checkpoints, want errors and no checkpoint", errs, cp)
	}
	reg := obs.NewRegistry()
	RegisterMetrics(reg, func() *DB { return db })
	for _, smp := range reg.Samples() {
		if smp.Name == "spotlake_maintenance_errors_total" && smp.Value == 0 {
			t.Fatal("spotlake_maintenance_errors_total is 0 after a failed maintenance checkpoint")
		}
	}
	if got := db.walSeq; got != seq {
		t.Fatalf("the log swapped from segment %d to %d through a failed rotation", seq, got)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log")); len(segs) != 1 {
		t.Fatalf("segment files %v, want the active one (no half-created generation)", segs)
	}
	if raw, err := os.ReadFile(filepath.Join(dir, manifestName)); err != nil || !bytes.Equal(raw, committed) {
		t.Fatalf("the manifest moved through failed checkpoints (err %v)", err)
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
