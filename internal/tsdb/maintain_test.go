package tsdb

// Tests for the append path's enforcement of the byte trigger: the one
// segment it leaves, the oversized batch that checkpoints before it
// returns, single-flight against manual Checkpoint under -race, the
// failure backoff, and Close waiting out an in-flight checkpoint.

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestChainCapBoundsSealedSegments pins what the byte trigger leaves on
// disk now that every checkpoint rotates the WAL: pointwise appends, with
// nothing calling Checkpoint, leave the tail below the threshold after
// every append, exactly one segment file after each maintenance
// checkpoint commits, and never an uncovered swapped-out one.
func TestChainCapBoundsSealedSegments(t *testing.T) {
	const threshold = 2048
	dir := t.TempDir()
	db, err := openTuned(dir, tuning{Options: Options{CheckpointAfterBytes: threshold}, shards: 2})
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
		if tail := db.WALBytesSinceCheckpoint(); tail >= threshold {
			t.Fatalf("after append %d: tail %d bytes, threshold %d", n, tail, threshold)
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

// TestAppendVsManualCheckpointSingleFlight hammers a store with
// concurrent appends, whose byte trigger keeps re-arming, manual
// Checkpoint calls, and a third goroutine driving the append path's
// enforcement (enforceMaintenance) on its own. Run under -race (CI
// does); the assertions are no errors, and exact recovery afterwards.
func TestAppendVsManualCheckpointSingleFlight(t *testing.T) {
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
	go poll(func() error { db.enforceMaintenance(); return nil })
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
	db, err := openTuned(dir, tuning{Options: Options{CheckpointAfterBytes: 2048}, shards: 2})
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
	opts := tuning{Options: Options{CheckpointAfterBytes: threshold}, shards: 2}
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
	// off the seeded total, keeping the tail below the threshold after
	// every append.
	for n, e := range laterEntries(400, 1000) {
		if err := re.Append(e.Key, e.At, e.Value); err != nil {
			t.Fatal(err)
		}
		if tail := re.WALBytesSinceCheckpoint(); tail >= threshold {
			t.Fatalf("after append %d: tail %d bytes, threshold %d", n, tail, threshold)
		}
	}
	if re.maintCP.Value() == 0 {
		t.Fatalf("seeded byte trigger never fired across the threshold: %d checkpoints", re.maintCP.Value())
	}
}

// TestOversizedBatchCheckpointsBeforeReturning models a writer that
// dumps far more than the threshold in one call and then goes idle — a
// bulk restore. The batch holds each shard's lock past the threshold,
// where no checkpoint can cut, so the append checkpoints after its last
// shard group, before it returns: by then the tail is folded into a
// checkpoint, every segment it covers is unlinked, and the next open has
// almost nothing to replay. Nothing waits and nothing polls.
func TestOversizedBatchCheckpointsBeforeReturning(t *testing.T) {
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
	if cp, tail, sealed := db.maintCP.Value(), db.WALBytesSinceCheckpoint(), db.sealedSegments(); cp == 0 || tail >= threshold || sealed != 0 {
		t.Fatalf("oversized batch returned with %d checkpoints, a %d-byte tail (threshold %d), %d uncovered segments",
			cp, tail, threshold, sealed)
	}
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
		t.Fatalf("reopen replayed %d WAL bytes; the batch's checkpoint should bound it below %d", got, threshold)
	}
	if re.PointCount() != len(entries) {
		t.Fatalf("recovered %d points, want %d", re.PointCount(), len(entries))
	}
}

// TestCloseWaitsForInFlightCheckpoint holds a sealing checkpoint at its
// manifest commit while Close starts. Close must not return until the
// checkpoint has finished, and must then close what the checkpoint
// opened: no block file is left in coldSegs, and no descriptor of the
// store's directory stays open.
func TestCloseWaitsForInFlightCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, err := openTuned(dir, sealedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AppendBatch(sealEntries(64, 0)); err != nil {
		t.Fatal(err)
	}
	held, release := make(chan struct{}), make(chan struct{})
	db.testCrash = func(p string) error {
		if p == "checkpoint:manifest:before-sync" {
			close(held)
			<-release
		}
		return nil
	}
	cpErr, closeErr := make(chan error, 1), make(chan error, 1)
	go func() { cpErr <- db.Checkpoint() }()
	<-held
	go func() { closeErr <- db.Close() }()
	select {
	case err := <-closeErr:
		close(release)
		<-cpErr
		t.Fatalf("Close returned (%v) while a checkpoint was in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	close(release)
	if err := <-cpErr; err != nil {
		t.Fatalf("checkpoint: %v", err)
	}
	if err := <-closeErr; err != nil {
		t.Fatalf("close: %v", err)
	}
	if db.SealedBlocks() == 0 {
		t.Fatal("the checkpoint sealed nothing; the test needs it to open a block file")
	}
	if n := len(db.coldSegs); n != 0 {
		t.Fatalf("%d block files still open in coldSegs after Close", n)
	}
	if open := openFilesUnder(t, dir); len(open) != 0 {
		t.Fatalf("files still open after Close: %v", open)
	}
}

// openFilesUnder lists this process's open descriptors naming a file
// under dir, read from /proc/self/fd; the test skips where there is none.
func openFilesUnder(t *testing.T, dir string) []string {
	t.Helper()
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to list open files: %v", err)
	}
	var out []string
	for _, fd := range fds {
		target, err := os.Readlink(filepath.Join("/proc/self/fd", fd.Name()))
		if err == nil && strings.HasPrefix(target, dir+string(filepath.Separator)) {
			out = append(out, target)
		}
	}
	return out
}
