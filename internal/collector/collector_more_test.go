package collector

import (
	"flag"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cloudsim"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/tsdb"
)

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

// TestRunBelowByteTriggerTakesNoCheckpoint runs a durable collection
// with the binaries' default store flags and DefaultConfig: collection
// itself never checkpoints, so a run that stays below the byte trigger
// commits no checkpoint and leaves its whole WAL in one segment.
func TestRunBelowByteTriggerTakesNoCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cloud := cloudsim.New(catalog.Compact(2), simclock.NewAtEpoch(), 7, cloudsim.DefaultParams())
	opts := tsdb.BindFlags(flag.NewFlagSet("store", flag.ContinueOnError))
	db, err := tsdb.OpenWithOptions(dir, *opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	col, err := New(cloud, db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Run(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if tail := db.WALBytesSinceCheckpoint(); tail == 0 || tail >= uint64(opts.CheckpointAfterBytes) {
		t.Fatalf("WAL tail %d bytes; the run must write some WAL and stay below the %d-byte trigger", tail, opts.CheckpointAfterBytes)
	}
	if cp := storeMetric(t, db, "spotlake_checkpoint_seconds_count"); cp != 0 {
		t.Fatalf("%v checkpoints committed below the byte trigger", cp)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 {
		t.Fatalf("segment files %v, want one", segs)
	}
}

// TestSizeBasedCheckpointTrigger runs a durable collection over a store
// with a small byte trigger and verifies (a) it fires as the
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
	col, err := New(cloud, db, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Run(6 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if cp := storeMetric(t, db, "spotlake_maintenance_checkpoints_total"); cp < 2 {
		t.Fatalf("size-triggered checkpoints fired %v times; the run writes several times the %d-byte threshold", cp, threshold)
	}
	if errs := storeMetric(t, db, "spotlake_maintenance_errors_total"); errs != 0 {
		t.Fatalf("%v store checkpoint errors", errs)
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
