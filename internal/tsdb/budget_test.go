package tsdb

// Tests at the collector's shape: a seeded synthetic load standing in
// for spotlake-collector's writes, the byte trigger's bound under it,
// and the store's byte and memory budget.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simrand"
)

// collectorLoad is a seeded stand-in for spotlake-collector's writes:
// change-only series offered every 10-minute tick, each tick one
// AppendBatchIfChanged of every series. The first tick stores every
// series; after it, about 40 % of the (series, day) pairs gain a point,
// one value change at a random tick of the day, and every other offer
// repeats its series' value, which the store drops as unchanged.
type collectorLoad struct {
	rng   *simrand.Rand
	tick  int
	batch []Entry
	// changeAt is each series' change tick within the current day, -1
	// for none.
	changeAt []int
}

// changeShare is the share of (series, day) pairs that gain a point.
const changeShare = 0.4

func newCollectorLoad(seed uint64, seriesN int) *collectorLoad {
	l := &collectorLoad{rng: simrand.New(seed).Stream("collector-load"), batch: make([]Entry, seriesN), changeAt: make([]int, seriesN)}
	datasets := []string{DatasetPlacementScore, DatasetInterruptFree, DatasetPrice}
	for i := range l.batch {
		l.batch[i] = Entry{
			Key: SeriesKey{Dataset: datasets[i%3], Type: fmt.Sprintf("t%d.xlarge", i/3%40),
				Region: fmt.Sprintf("region-%d", i/120%10), AZ: fmt.Sprintf("az%d", i/1200)},
			Value: float64(1 + l.rng.Intn(10)),
		}
	}
	return l
}

// step offers one tick to db.
func (l *collectorLoad) step(t testing.TB, db *DB) {
	t.Helper()
	const ticksPerDay = 144
	tickOfDay := l.tick % ticksPerDay
	if tickOfDay == 0 {
		for i := range l.changeAt {
			l.changeAt[i] = -1
			if l.rng.Bool(changeShare) {
				l.changeAt[i] = l.rng.Intn(ticksPerDay)
			}
		}
	}
	at := t0.Add(time.Duration(l.tick) * 10 * time.Minute)
	for i := range l.batch {
		e := &l.batch[i]
		e.At = at
		if l.changeAt[i] == tickOfDay && l.tick > 0 {
			e.Value = float64(1 + (int(e.Value)+l.rng.Intn(9))%10) // any of the nine others
		}
	}
	l.tick++
	if _, err := db.AppendBatchIfChanged(l.batch); err != nil {
		t.Fatal(err)
	}
}

// storeMetric reads one of db's registry metrics by its exposition name;
// an unknown name fails the test.
func storeMetric(t testing.TB, db *DB, name string) float64 {
	t.Helper()
	reg := obs.NewRegistry()
	RegisterMetrics(reg, func() *DB { return db })
	for _, s := range reg.Samples() {
		if s.Name == name {
			return s.Value
		}
	}
	t.Fatalf("no metric %s", name)
	return 0
}

// TestStoreByteTriggerHolds pins the byte bound for simulated-time batch
// runs, whose writers compress months into seconds: the tick that
// crosses the threshold checkpoints before it returns, so the replay
// tail is below the threshold after every tick — and, since every
// checkpoint rotates the WAL and unlinks what it covers, the WAL on disk
// with it. Six simulated hours of 3000 collector-shaped series.
func TestStoreByteTriggerHolds(t *testing.T) {
	dir := t.TempDir()
	const threshold = 16 << 10
	db, err := openTuned(dir, tuning{Options: Options{CheckpointAfterBytes: threshold}})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	load := newCollectorLoad(11, 3000)
	for i := 0; i < 6*6; i++ {
		load.step(t, db)
		if tail := db.WALBytesSinceCheckpoint(); tail >= threshold {
			t.Fatalf("after tick %d: WAL tail %d bytes, want < the %d-byte threshold", i, tail, threshold)
		}
	}
	if storeMetric(t, db, "spotlake_maintenance_checkpoints_total") == 0 {
		t.Fatal("append-path byte trigger never fired: 0 maintenance checkpoints")
	}
	tail := db.WALBytesSinceCheckpoint()
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
	fi, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if headers := fi.Size() - int64(tail); headers < 0 || headers > 64 {
		t.Fatalf("WAL file holds %d bytes for a %d-byte tail; the excess is not just a header", fi.Size(), tail)
	}
}

// TestCollectorShapeBudget holds the store's costs at the collector's
// shape to their measured values: 500 collector-shaped series, N = 7
// simulated days and then N more, with one checkpoint per simulated day
// and no byte trigger. The daily checkpoint models spotlake-server's
// publication cadence (-checkpoint-interval 24h) below -checkpoint-bytes;
// a batch spotlake-collector run below it takes only its final one.
// The writer has one shard, so each tick is one WAL record in offer order
// and every counted byte repeats run to run; the read-only open has
// eight, the default on up to eight CPUs, so the heap does not depend on
// the machine. The counted figures are gated at their measured value
// plus 2 %, the heap (which the runtime rounds into size classes and
// spans) at its value plus 15 %.
func TestCollectorShapeBudget(t *testing.T) {
	const seriesN, days = 500, 7
	dir := t.TempDir()
	db, err := openTuned(dir, tuning{shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	load := newCollectorLoad(46, seriesN)
	written := func() float64 {
		return storeMetric(t, db, "spotlake_store_wal_bytes_written_total") + storeMetric(t, db, "spotlake_checkpoint_bytes_written_total")
	}
	var writtenAtN float64
	for d := 0; d < 2*days; d++ {
		for i := 0; i < 144; i++ {
			load.step(t, db)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if d == days-1 {
			writtenAtN = written()
		}
	}
	points := float64(db.PointCount())
	walPerPoint := storeMetric(t, db, "spotlake_store_wal_bytes_written_total") / points
	cpPerPoint := storeMetric(t, db, "spotlake_checkpoint_bytes_written_total") / points
	growth := written() / writtenAtN
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var atRest int64
	for _, f := range files {
		fi, err := f.Info()
		if err != nil {
			t.Fatal(err)
		}
		atRest += fi.Size()
	}
	restPerPoint := float64(atRest) / points

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ro, err := openTuned(dir, tuning{Options: Options{ReadOnly: true}, shards: 8})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	heapPerSeries := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / seriesN
	runtime.KeepAlive(ro)
	if err := ro.Close(); err != nil {
		t.Fatal(err)
	}

	t.Logf("%d series, %.0f points over 2×%d days: WAL %.4f B/point, checkpoint %.4f B/point, at rest %.4f B/point, %d-day/%d-day bytes written %.4f, heap after a read-only open %.0f B/series",
		seriesN, points, days, walPerPoint, cpPerPoint, restPerPoint, 2*days, days, growth, heapPerSeries)
	const counted, heap = 1.02, 1.15
	for _, f := range []struct {
		name      string
		got, want float64
		margin    float64
	}{
		{"WAL bytes written per point", walPerPoint, 35.3951, counted},
		{"checkpoint bytes written per point", cpPerPoint, 205.2680, counted},
		{"bytes at rest per point", restPerPoint, 15.9360, counted},
		{"2N-day / N-day bytes written", growth, 2.0494, counted},
		{"heap per series after a read-only open", heapPerSeries, 420, heap},
	} {
		if f.got > f.want*f.margin {
			t.Errorf("%s: %.4f, budget %.4f (%.4f + %.0f %%)", f.name, f.got, f.want*f.margin, f.want, 100*(f.margin-1))
		}
	}
}
