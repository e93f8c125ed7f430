package collector

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cloudsim"
	"repro/internal/simclock"
	"repro/internal/tsdb"
)

func TestExactPackingPlan(t *testing.T) {
	cat := catalog.Compact(2)
	cloud := cloudsim.New(cat, simclock.NewAtEpoch(), 9, cloudsim.DefaultParams())
	db, _ := tsdb.Open("")

	cfgFFD := DefaultConfig()
	colFFD, err := New(cloud, db, cfgFFD)
	if err != nil {
		t.Fatal(err)
	}
	cfgExact := DefaultConfig()
	cfgExact.ExactPacking = true
	colExact, err := New(cloud, db, cfgExact)
	if err != nil {
		t.Fatal(err)
	}
	if len(colExact.Plan().Queries) > len(colFFD.Plan().Queries) {
		t.Errorf("exact plan (%d) worse than FFD (%d)",
			len(colExact.Plan().Queries), len(colFFD.Plan().Queries))
	}
}

func TestStoreAllSamples(t *testing.T) {
	run := func(storeAll bool) int {
		cat := catalog.Compact(1)
		cloud := cloudsim.New(cat, simclock.NewAtEpoch(), 10, cloudsim.DefaultParams())
		db, _ := tsdb.Open("")
		cfg := DefaultConfig()
		cfg.StoreAllSamples = storeAll
		col, err := New(cloud, db, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := col.Run(4 * time.Hour); err != nil {
			t.Fatal(err)
		}
		return db.PointCount()
	}
	dedup := run(false)
	raw := run(true)
	if raw <= dedup {
		t.Errorf("raw storage (%d) should exceed deduplicated (%d)", raw, dedup)
	}
	// Raw mode stores one point per series per tick: 25 ticks (1 + 24).
	cat := catalog.Compact(1)
	series := 0
	for _, tp := range cat.Types() {
		series += len(cat.PoolsOfType(tp.Name))      // sps
		series += len(cat.PoolsOfType(tp.Name))      // price
		series += len(cat.SupportedRegions(tp.Name)) // if
		series += len(cat.SupportedRegions(tp.Name)) // savings
	}
	want := series * 25
	if raw != want {
		t.Errorf("raw points = %d, want %d (series x ticks)", raw, want)
	}
}

func TestLowQuotaNeedsMoreAccounts(t *testing.T) {
	cat := catalog.Compact(2)
	cloud := cloudsim.New(cat, simclock.NewAtEpoch(), 11, cloudsim.DefaultParams())
	db, _ := tsdb.Open("")
	cfgFull := DefaultConfig()
	colFull, err := New(cloud, db, cfgFull)
	if err != nil {
		t.Fatal(err)
	}
	cfgTight := DefaultConfig()
	cfgTight.QuotaPerAccount = 10
	colTight, err := New(cloud, db, cfgTight)
	if err != nil {
		t.Fatal(err)
	}
	if colTight.Accounts() <= colFull.Accounts() {
		t.Errorf("quota 10 needs %d accounts, quota 50 needs %d; tighter quota should need more",
			colTight.Accounts(), colFull.Accounts())
	}
	// And the tight-quota collector must still run without quota errors.
	if err := colTight.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if colTight.Stats().QueryErrors != 0 {
		t.Errorf("%d query errors with tight quota", colTight.Stats().QueryErrors)
	}
}

// TestPeriodicCheckpointing runs a short durable collection with periodic
// checkpoints enabled and verifies (a) checkpoints actually fire, (b) the
// WAL segments they cover are deleted, bounding the on-disk tail, and (c)
// a reopened store recovers the full archive.
func TestPeriodicCheckpointing(t *testing.T) {
	dir := t.TempDir()
	cat := catalog.Compact(2)
	clk := simclock.NewAtEpoch()
	cloud := cloudsim.New(cat, clk, 7, cloudsim.DefaultParams())
	db, err := tsdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CheckpointInterval = time.Hour
	col, err := New(cloud, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Run(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	st := col.Stats()
	if st.Checkpoints < 2 {
		t.Fatalf("checkpoints fired %d times over 3h at 1h cadence", st.Checkpoints)
	}
	if st.CheckpointErrors != 0 {
		t.Fatalf("%d checkpoint errors", st.CheckpointErrors)
	}
	// Truncation check: the segments hold only the tail collected since
	// the last periodic checkpoint, so their total size must be far below
	// the whole run's WAL volume. A quiescent checkpoint then cuts them
	// to (near) empty.
	walBytes := func() int64 {
		t.Helper()
		segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil || len(segs) == 0 {
			t.Fatalf("globbing segments: %v (%d files)", err, len(segs))
		}
		var total int64
		for _, s := range segs {
			fi, err := os.Stat(s)
			if err != nil {
				t.Fatal(err)
			}
			total += fi.Size()
		}
		return total
	}
	// Flush so buffered record bytes are in the files before measuring.
	if err := db.Flush(); err != nil {
		t.Fatal(err)
	}
	afterRun := walBytes()
	// If periodic checkpoints had not deleted covered segments, the
	// chain would hold the whole run's volume (>30 record bytes per
	// stored point).
	if fullVolume := int64(db.PointCount()) * 30; afterRun >= fullVolume {
		t.Fatalf("segments hold %d bytes after run, >= uncompacted volume estimate %d", afterRun, fullVolume)
	}
	// A quiescent checkpoint rotates the log and deletes every segment it
	// covers; what survives is the new, header-only segment.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if tail := walBytes(); tail > afterRun || tail > 64 {
		t.Fatalf("quiescent checkpoint left %d segment bytes (was %d)", tail, afterRun)
	}
	points, series := db.PointCount(), db.SeriesCount()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := tsdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.PointCount() != points || re.SeriesCount() != series {
		t.Fatalf("recovered %d points / %d series, want %d / %d",
			re.PointCount(), re.SeriesCount(), points, series)
	}
}

// TestSizeBasedCheckpointTrigger runs a durable collection with only the
// byte-count checkpoint trigger enabled and verifies (a) it fires as the
// WAL crosses the threshold, (b) the replay tail a restart faces stays
// bounded by the threshold rather than the run length, and (c) recovery
// is lossless.
func TestSizeBasedCheckpointTrigger(t *testing.T) {
	dir := t.TempDir()
	cat := catalog.Compact(2)
	clk := simclock.NewAtEpoch()
	cloud := cloudsim.New(cat, clk, 11, cloudsim.DefaultParams())
	const threshold = 16 << 10
	opts := tsdb.Options{CheckpointAfterBytes: threshold}
	db, err := tsdb.OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.CheckpointInterval = 0 // size trigger only
	col, err := New(cloud, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Run(6 * time.Hour); err != nil {
		t.Fatal(err)
	}
	st := col.Stats()
	if forced := storeMetric(t, db, "spotlake_maintenance_forced_by_bytes_total"); forced < 2 {
		t.Fatalf("size-triggered checkpoints fired %v times; the run writes several times the %d-byte threshold", forced, threshold)
	}
	if st.Checkpoints != 0 {
		t.Fatalf("%d interval checkpoints fired with the interval trigger disabled", st.Checkpoints)
	}
	if errs := storeMetric(t, db, "spotlake_maintenance_errors_total"); st.CheckpointErrors != 0 || errs != 0 {
		t.Fatalf("%d collector + %v store checkpoint errors", st.CheckpointErrors, errs)
	}
	// The un-checkpointed tail is at most the threshold plus one tick's
	// worth of overshoot (the trigger runs before each tick's batch).
	if tail := db.WALBytesSinceCheckpoint(); tail >= 2*threshold {
		t.Fatalf("WAL tail is %d bytes after the run, want < 2x the %d-byte threshold", tail, threshold)
	}
	points, series := db.PointCount(), db.SeriesCount()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := tsdb.OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.ReplayedWALBytes(); got >= 2*threshold {
		t.Fatalf("recovery replayed %d WAL bytes, want < 2x the %d-byte threshold", got, threshold)
	}
	if re.PointCount() != points || re.SeriesCount() != series {
		t.Fatalf("recovered %d points / %d series, want %d / %d",
			re.PointCount(), re.SeriesCount(), points, series)
	}
}
