package collector

// Tests the store's byte-triggered checkpoints
// (tsdb.Options.CheckpointAfterBytes) under a simulated-time collection
// run: the collector carries no trigger of its own.

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cloudsim"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/tsdb"
)

// TestStoreByteTriggerHoldsWithoutDaemon pins the byte bound for
// simulated-time batch runs: with the daemon disabled (and it being
// wall-clock anyway, useless against a writer compressing months into
// seconds), the store's append-path enforcement alone must keep the
// replay tail bounded by the threshold plus one tick — and, since every
// checkpoint rotates the WAL and unlinks what it covers, the WAL on disk
// with it.
func TestStoreByteTriggerHoldsWithoutDaemon(t *testing.T) {
	dir := t.TempDir()
	cat := catalog.Compact(2)
	clk := simclock.NewAtEpoch()
	cloud := cloudsim.New(cat, clk, 11, cloudsim.DefaultParams())
	const threshold = 16 << 10
	db, err := tsdb.OpenWithOptions(dir, tsdb.Options{
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
	if storeMetric(t, db, "spotlake_maintenance_forced_by_bytes_total") == 0 {
		t.Fatalf("append-path byte trigger never fired with the daemon disabled: %v maintenance checkpoints",
			storeMetric(t, db, "spotlake_maintenance_checkpoints_total"))
	}
	// The append path checks the threshold before every tick's batch, so
	// the tail is bounded by threshold + one tick's worth of overshoot.
	tail := db.WALBytesSinceCheckpoint()
	if tail >= 2*threshold {
		t.Fatalf("WAL tail is %d bytes after the run, want < 2x the %d-byte threshold", tail, threshold)
	}
	// On disk: the un-checkpointed records plus the small header of the
	// store's one segment, nothing the checkpoints covered.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("segment files %v, want one", segs)
	}
	var onDisk int64
	for _, p := range segs {
		fi, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		onDisk += fi.Size()
	}
	if headers := onDisk - int64(tail); headers < 0 || headers > int64(len(segs))*64 {
		t.Fatalf("WAL files hold %d bytes for a %d-byte tail; the excess is not just headers", onDisk, tail)
	}
}

// storeMetric reads one of db's registry metrics by its exposition name;
// an unknown name fails the test.
func storeMetric(t *testing.T, db *tsdb.DB, name string) float64 {
	t.Helper()
	reg := obs.NewRegistry()
	tsdb.RegisterMetrics(reg, func() *tsdb.DB { return db })
	for _, s := range reg.Samples() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("no metric %s", name)
	return 0
}
