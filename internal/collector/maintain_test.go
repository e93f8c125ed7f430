package collector

// Tests the store's byte-triggered checkpoints
// (tsdb.Options.CheckpointAfterBytes) under a simulated-time collection
// run: the collector carries no trigger of its own.

import (
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cloudsim"
	"repro/internal/simclock"
	"repro/internal/tsdb"
)

// TestStoreByteTriggerHoldsWithoutDaemon pins the byte bound for
// simulated-time batch runs: with the daemon disabled (and it being
// wall-clock anyway, useless against a writer compressing months into
// seconds), the store's append-path enforcement alone must keep the
// replay tail bounded by the threshold plus one tick.
func TestStoreByteTriggerHoldsWithoutDaemon(t *testing.T) {
	dir := t.TempDir()
	cat := catalog.Compact(2)
	clk := simclock.NewAtEpoch()
	cloud := cloudsim.New(cat, clk, 11, cloudsim.DefaultParams())
	const threshold = 16 << 10
	db, err := tsdb.OpenWithOptions(dir, tsdb.Options{
		RotateBytes:          4096,
		CheckpointAfterBytes: threshold,
		MaintenanceInterval:  -1, // daemon off: only the append path enforces
	})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	cfg := DefaultConfig()
	cfg.CheckpointInterval = 0
	col, err := New(cloud, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Run(6 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if m := db.MaintenanceStats(); m.ForcedByBytes == 0 {
		t.Fatalf("append-path byte trigger never fired with the daemon disabled: %+v", m)
	}
	// The append path checks the threshold before every tick's batch, so
	// the tail is bounded by threshold + one tick's worth of overshoot.
	if tail := db.WALBytesSinceCheckpoint(); tail >= 2*threshold {
		t.Fatalf("WAL tail is %d bytes after the run, want < 2x the %d-byte threshold", tail, threshold)
	}
}
