package tsdb

// Tests for the store-internal maintainer: the one segment the byte
// trigger leaves from the append path alone, the daemon
// reclaiming the tail of a store left idle above the threshold,
// single-flight between the daemon and manual Checkpoint under -race,
// and the failure backoff.

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out after %v waiting for %s", d, what)
}

// TestChainCapBoundsSealedSegments pins what the byte trigger leaves on
// disk now that every checkpoint rotates the WAL: pointwise appends with
// the daemon disabled — so the only enforcement is the append path's
// synchronous check, and nothing calls Checkpoint — leave exactly one
// segment file after each maintenance checkpoint commits, and never an
// uncovered swapped-out one.
func TestChainCapBoundsSealedSegments(t *testing.T) {
	const threshold = 2048
	dir := t.TempDir()
	db, err := openTuned(dir, tuning{Options: Options{CheckpointAfterBytes: threshold}, shards: 2, noDaemon: true})
	if err != nil {
		t.Fatal(err)
	}
	entries := legacyEntries(4000)
	seen := uint64(0)
	for n, e := range entries {
		if err := db.Append(e.Key, e.At, e.Value); err != nil {
			t.Fatalf("append %d: %v", n, err)
		}
		if got := db.sealedSegments(); got != 0 {
			t.Fatalf("after append %d: %d uncovered swapped-out segments", n, got)
		}
		cp := db.maintCP.Value()
		if cp == seen {
			continue
		}
		seen = cp
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		if len(segs) != 1 {
			t.Fatalf("after checkpoint %d (append %d): segment files %v, want one", seen, n, segs)
		}
	}
	if seen < 2 {
		t.Fatalf("%d maintenance checkpoints; the bound was not exercised", seen)
	}
	if cp := db.maintCP.Value(); cp == 0 {
		t.Fatalf("4000 appends over a %d-byte threshold: %d checkpoints", threshold, cp)
	}
	if errs := db.maintErrs.Value(); errs != 0 {
		t.Fatalf("%d maintenance checkpoint errors", errs)
	}
	points := db.PointCount()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.PointCount() != points {
		t.Fatalf("recovered %d points, want %d", re.PointCount(), points)
	}
}

// TestDaemonVsManualCheckpointSingleFlight hammers a store with
// concurrent appends, manual Checkpoint calls, and daemon polls whose
// byte trigger keeps re-arming: the daemon runs, and a third goroutine
// polls as it does (maintainOnce) without its one-second wait. Run under
// -race (CI does); the assertions are no errors, and exact recovery
// afterwards.
func TestDaemonVsManualCheckpointSingleFlight(t *testing.T) {
	dir := t.TempDir()
	db, err := openTuned(dir, tuning{Options: Options{CheckpointAfterBytes: 1024}, shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	entries := legacyEntries(3000)
	var appender, checkpointer sync.WaitGroup
	stop := make(chan struct{})
	appender.Add(1)
	go func() {
		defer appender.Done()
		for _, e := range entries {
			if err := db.Append(e.Key, e.At, e.Value); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	poll := func(checkpoint func() error) {
		defer checkpointer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := checkpoint(); err != nil {
				t.Errorf("checkpoint: %v", err)
				return
			}
		}
	}
	checkpointer.Add(2)
	go poll(db.Checkpoint)
	go poll(func() error { db.maintainOnce(); return nil })
	appender.Wait()
	close(stop)
	checkpointer.Wait()
	if errs := db.maintErrs.Value(); errs != 0 {
		t.Fatalf("%d maintenance checkpoint errors", errs)
	}
	points, series := db.PointCount(), db.SeriesCount()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.PointCount() != points || re.SeriesCount() != series {
		t.Fatalf("recovered %d points / %d series, want %d / %d",
			re.PointCount(), re.SeriesCount(), points, series)
	}
}

// TestMaintenanceBackoffOnFailure pins the append path's stand-down
// after a failed maintenance checkpoint: with the byte trigger latched
// and checkpoints failing persistently, appends must keep succeeding
// and must not re-attempt a snapshot per call — one failed attempt,
// then the backoff window gates the rest.
func TestMaintenanceBackoffOnFailure(t *testing.T) {
	dir := t.TempDir()
	db, err := openTuned(dir, tuning{Options: Options{CheckpointAfterBytes: 2048}, shards: 2, noDaemon: true})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	injected := errors.New("injected checkpoint failure")
	db.testCrash = func(p string) error {
		if p == "checkpoint:capture" {
			return injected
		}
		return nil
	}
	entries := legacyEntries(500) // ~23KB, far past the 2KB threshold
	for _, e := range entries {
		if err := db.Append(e.Key, e.At, e.Value); err != nil {
			t.Fatalf("append failed under checkpoint failure: %v", err)
		}
	}
	if errs := db.maintErrs.Value(); errs != 1 {
		t.Fatalf("%d failed maintenance attempts across 500 appends, want exactly 1 (backoff)", errs)
	}
	if cp := db.maintCP.Value(); cp != 0 {
		t.Fatalf("%d checkpoints committed through an always-failing hook", cp)
	}
	// Clear the fault and the backoff window: the latched trigger must
	// fire on the next append and clear the tail.
	db.testCrash = nil
	db.maintRetryAt.Store(0)
	if err := db.Append(entries[0].Key, t0.Add(1000*time.Minute), 42); err != nil {
		t.Fatal(err)
	}
	if cp := db.maintCP.Value(); cp != 1 {
		t.Fatalf("latched trigger did not fire after the fault cleared: %d checkpoints", cp)
	}
	if tail := db.WALBytesSinceCheckpoint(); tail >= 2048 {
		t.Fatalf("tail still %d bytes after recovery checkpoint", tail)
	}
}

// TestReplayTailSeedsByteTrigger pins the crash-restart accounting: the
// un-checkpointed tail a reopen replays must seed the byte counters, or
// a writer crashing just under the threshold every run would grow the
// tail forever without ever arming the size trigger.
func TestReplayTailSeedsByteTrigger(t *testing.T) {
	const threshold = 8 << 10
	dir := t.TempDir()
	opts := tuning{Options: Options{CheckpointAfterBytes: threshold}, shards: 2, noDaemon: true}
	db, err := openTuned(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// ~3.9KB: below the threshold, so nothing fires before the "crash".
	for _, e := range legacyEntries(150) {
		if err := db.Append(e.Key, e.At, e.Value); err != nil {
			t.Fatal(err)
		}
	}
	before := db.WALBytesSinceCheckpoint()
	if before == 0 || before >= threshold {
		t.Fatalf("round 1 wrote %d WAL bytes; the test needs 0 < tail < %d", before, threshold)
	}
	if cp := db.maintCP.Value(); cp != 0 {
		t.Fatalf("trigger fired below the threshold: %d checkpoints", cp)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := openTuned(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.WALBytesSinceCheckpoint(); got != before {
		t.Fatalf("reopen counts %d un-checkpointed WAL bytes, want the replayed tail %d", got, before)
	}
	if got := re.cpPointsTotal.Load(); got != 150 {
		t.Fatalf("reopen counts %d un-checkpointed points, want the replayed 150", got)
	}
	// Round 2 crosses the threshold mid-way; the append path must fire
	// off the seeded total, bounding the tail again.
	for _, e := range laterEntries(400, 1000) {
		if err := re.Append(e.Key, e.At, e.Value); err != nil {
			t.Fatal(err)
		}
	}
	if re.maintCP.Value() == 0 {
		t.Fatalf("seeded byte trigger never fired across the threshold: %d checkpoints", re.maintCP.Value())
	}
	if tail := re.WALBytesSinceCheckpoint(); tail >= threshold {
		t.Fatalf("tail is %d bytes after the trigger fired (threshold %d)", tail, threshold)
	}
}

// TestBulkRestoreDaemonBoundsReplay models a writer that dumps far more
// than the threshold in one call and then goes idle — a bulk restore, or
// appends continuing while whoever used to checkpoint is wedged. One
// oversized batch holds each shard's lock past the threshold, where the
// append path cannot intervene, and nothing appends afterwards, so only
// the daemon can act: within its poll it must fold the tail into a
// checkpoint, unlink every segment it covers, and leave the next open
// almost nothing to replay. The daemon polls once a second, so the test
// takes one to two seconds.
func TestBulkRestoreDaemonBoundsReplay(t *testing.T) {
	const threshold = 16 << 10
	dir := t.TempDir()
	opts := tuning{Options: Options{CheckpointAfterBytes: threshold}, shards: 2}
	db, err := openTuned(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	entries := legacyEntries(2000) // ~90KB: several thresholds' worth
	if n, err := db.AppendBatch(entries); err != nil || n != len(entries) {
		t.Fatalf("stored %d, err %v", n, err)
	}
	// Wait on the stats as well as the byte counter: a checkpoint
	// decrements the counter mid-protocol and bumps the stats only at the
	// end. (A daemon tick that lands mid-batch cuts before the batch's
	// later shard groups; the next tick then finishes the job.)
	waitFor(t, 5*time.Second, "daemon to checkpoint the idle tail", func() bool {
		return db.maintCP.Value() > 0 &&
			db.WALBytesSinceCheckpoint() < threshold && db.sealedSegments() == 0
	})
	if errs := db.maintErrs.Value(); errs != 0 {
		t.Fatalf("%d maintenance checkpoint errors", errs)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := openTuned(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.ReplayedWALBytes(); got >= threshold {
		t.Fatalf("reopen replayed %d WAL bytes; the daemon checkpoint should bound it below %d", got, threshold)
	}
	if re.PointCount() != len(entries) {
		t.Fatalf("recovered %d points, want %d", re.PointCount(), len(entries))
	}
}
