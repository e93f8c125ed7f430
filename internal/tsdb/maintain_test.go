package tsdb

// Tests for the store-internal maintainer: the sealed-chain cap's hard
// bound on the append path, the daemon reclaiming chains and byte tails
// without caller cooperation, single-flight between the daemon and
// manual Checkpoint under -race, and the daemon bounding the recovery
// tail after a bulk snapshot restore.

import (
	"bytes"
	"errors"
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

// TestChainCapBoundsSealedSegments drives pointwise appends through a
// store with MaxSealedSegments=3 and the daemon disabled, so the only
// enforcement is the append path's synchronous check — and asserts no
// shard's sealed chain ever exceeds the cap at any observable instant,
// with no caller-invoked checkpoints at all.
func TestChainCapBoundsSealedSegments(t *testing.T) {
	const chainCap = 3
	dir := t.TempDir()
	db, err := OpenWithOptions(dir, Options{
		Shards:              2,
		RotateBytes:         512,
		MaxSealedSegments:   chainCap,
		MaintenanceInterval: -1, // no daemon: the append path alone must hold the bound
	})
	if err != nil {
		t.Fatal(err)
	}
	entries := legacyEntries(4000)
	for n, e := range entries {
		if err := db.Append(e.Key, e.At, e.Value); err != nil {
			t.Fatalf("append %d: %v", n, err)
		}
		for i := 0; i < db.ShardCount(); i++ {
			if got := db.ShardSealedSegments(i); got > chainCap {
				t.Fatalf("after append %d: shard %d holds %d sealed segments, cap %d", n, i, got, chainCap)
			}
		}
	}
	st := db.MaintenanceStats()
	if st.ForcedByChainLength == 0 {
		t.Fatalf("4000 appends over 512-byte segments never hit the chain cap: %+v", st)
	}
	if st.Errors != 0 {
		t.Fatalf("%d maintenance checkpoint errors", st.Errors)
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

// TestMaintainerDaemonReclaimsWedgedChains models the wedged-collector
// scenario: nothing ever calls Checkpoint, and one oversized batch (the
// equivalent of appends continuing while the checkpointing caller is
// stuck) rotates shards well past the cap inside a single shard-lock
// hold, where the append path cannot intervene. The rotation wake + the
// daemon must bring every chain back under the cap on their own.
func TestMaintainerDaemonReclaimsWedgedChains(t *testing.T) {
	const chainCap = 2
	dir := t.TempDir()
	db, err := OpenWithOptions(dir, Options{
		Shards:              2,
		RotateBytes:         256,
		MaxSealedSegments:   chainCap,
		MaintenanceInterval: 2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	// One batch holding each shard's lock across many rotations: chains
	// overshoot the cap with no per-append enforcement possible.
	if _, err := db.AppendBatch(legacyEntries(200)); err != nil {
		t.Fatal(err)
	}
	// The stats land after the chains drop (the checkpoint zeroes the
	// sealed counters mid-protocol, the counters increment at the end),
	// so the poll must wait for both.
	waitFor(t, 5*time.Second, "daemon to reclaim sealed chains", func() bool {
		for i := 0; i < db.ShardCount(); i++ {
			if db.ShardSealedSegments(i) > chainCap {
				return false
			}
		}
		st := db.MaintenanceStats()
		return st.Checkpoints > 0 && st.ForcedByChainLength > 0
	})
	if st := db.MaintenanceStats(); st.Errors != 0 {
		t.Fatalf("%d maintenance checkpoint errors", st.Errors)
	}
}

// TestDaemonVsManualCheckpointSingleFlight hammers a store with
// concurrent appends, manual Checkpoint calls, and a fast maintenance
// daemon whose both triggers are hot. Run under -race (CI does); the
// assertions are no errors, and exact recovery afterwards.
func TestDaemonVsManualCheckpointSingleFlight(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithOptions(dir, Options{
		Shards:               4,
		RotateBytes:          512,
		CheckpointAfterBytes: 4096,
		MaxSealedSegments:    3,
		MaintenanceInterval:  time.Millisecond,
	})
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
	checkpointer.Add(1)
	go func() {
		defer checkpointer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Checkpoint(); err != nil {
				t.Errorf("manual checkpoint: %v", err)
				return
			}
		}
	}()
	appender.Wait()
	close(stop)
	checkpointer.Wait()
	if st := db.MaintenanceStats(); st.Errors != 0 {
		t.Fatalf("%d maintenance checkpoint errors", st.Errors)
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
	db, err := OpenWithOptions(dir, Options{
		Shards:               2,
		RotateBytes:          -1,
		CheckpointAfterBytes: 2048,
		MaintenanceInterval:  -1,
	})
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
	st := db.MaintenanceStats()
	if st.Errors != 1 {
		t.Fatalf("%d failed maintenance attempts across 500 appends, want exactly 1 (backoff)", st.Errors)
	}
	if st.Checkpoints != 0 {
		t.Fatalf("%d checkpoints committed through an always-failing hook", st.Checkpoints)
	}
	// Clear the fault and the backoff window: the latched trigger must
	// fire on the next append and clear the tail.
	db.testCrash = nil
	db.maintRetryAt.Store(0)
	if err := db.Append(entries[0].Key, t0.Add(1000*time.Minute), 42); err != nil {
		t.Fatal(err)
	}
	if st := db.MaintenanceStats(); st.Checkpoints != 1 || st.ForcedByBytes != 1 {
		t.Fatalf("latched trigger did not fire after the fault cleared: %+v", st)
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
	opts := Options{
		Shards:               2,
		RotateBytes:          -1,
		CheckpointAfterBytes: threshold,
		MaintenanceInterval:  -1,
	}
	db, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// ~6.9KB: below the threshold, so nothing fires before the "crash".
	for _, e := range legacyEntries(150) {
		if err := db.Append(e.Key, e.At, e.Value); err != nil {
			t.Fatal(err)
		}
	}
	before := db.WALBytesSinceCheckpoint()
	if before == 0 || before >= threshold {
		t.Fatalf("round 1 wrote %d WAL bytes; the test needs 0 < tail < %d", before, threshold)
	}
	if st := db.MaintenanceStats(); st.Checkpoints != 0 {
		t.Fatalf("trigger fired below the threshold: %+v", st)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.WALBytesSinceCheckpoint(); got != before {
		t.Fatalf("reopen counts %d un-checkpointed WAL bytes, want the replayed tail %d", got, before)
	}
	// Round 2 crosses the threshold mid-way; the append path must fire
	// off the seeded total, bounding the tail again.
	for _, e := range laterEntries(150, 1000) {
		if err := re.Append(e.Key, e.At, e.Value); err != nil {
			t.Fatal(err)
		}
	}
	if st := re.MaintenanceStats(); st.ForcedByBytes == 0 {
		t.Fatalf("seeded byte trigger never fired across the threshold: %+v", st)
	}
	if tail := re.WALBytesSinceCheckpoint(); tail >= threshold {
		t.Fatalf("tail is %d bytes after the trigger fired (threshold %d)", tail, threshold)
	}
}

// TestBulkRestoreDaemonBoundsReplay loads a snapshot into a fresh
// durable store — a writer that is not the collector, so before the
// maintainer nothing would ever checkpoint the re-logged WAL — and
// asserts the daemon folds the restore into a checkpoint, so the next
// open replays almost nothing.
func TestBulkRestoreDaemonBoundsReplay(t *testing.T) {
	const threshold = 16 << 10
	src, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.AppendBatch(legacyEntries(2000)); err != nil {
		t.Fatal(err)
	}
	var snap bytes.Buffer
	if err := src.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	wantPoints := src.PointCount()
	src.Close()

	dir := t.TempDir()
	opts := Options{
		Shards:               2,
		RotateBytes:          8 << 10,
		CheckpointAfterBytes: threshold,
		MaintenanceInterval:  2 * time.Millisecond,
	}
	db, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadSnapshot(&snap); err != nil {
		t.Fatal(err)
	}
	if db.WALBytesSinceCheckpoint() < threshold {
		t.Fatalf("restore re-logged only %d WAL bytes; the test needs > %d to arm the trigger",
			db.WALBytesSinceCheckpoint(), threshold)
	}
	// Wait on the stats, not the byte counter: the checkpoint decrements
	// the counter mid-protocol and bumps the stats only at the end, so a
	// counter-based wait can observe the drop before the stats land.
	waitFor(t, 5*time.Second, "daemon to checkpoint the restored tail", func() bool {
		st := db.MaintenanceStats()
		return st.Checkpoints > 0 && st.ForcedByBytes > 0
	})
	if tail := db.WALBytesSinceCheckpoint(); tail >= threshold {
		t.Fatalf("WAL tail still %d bytes after the daemon checkpoint (threshold %d)", tail, threshold)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.ReplayedWALBytes(); got >= threshold {
		t.Fatalf("reopen replayed %d WAL bytes; the daemon checkpoint should bound it below %d", got, threshold)
	}
	if re.PointCount() != wantPoints {
		t.Fatalf("recovered %d points, want %d", re.PointCount(), wantPoints)
	}
}
