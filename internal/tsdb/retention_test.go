package tsdb

// Per-dataset raw retention: the maintenance tail may drop sealed raw
// blocks past the horizon, but never a point whose rollup buckets are
// not committed — including across crashes at every stage of the
// enforcement protocol (the crash-matrix cells below).

import (
	"errors"
	"testing"
	"time"
)

func retentionOpts() Options {
	o := rollupOpts()
	o.RetainRaw = map[string]time.Duration{DatasetPrice: 24 * time.Hour}
	return o
}

// assertNeverDropUncovered is the core invariant: every point of ref
// missing from db must (a) be a prefix drop — the surviving points are
// exactly a suffix of ref, no interior holes — and (b) have both its 1h
// and 1d buckets present in the committed rollup tier.
func assertNeverDropUncovered(t *testing.T, db *DB, ref map[SeriesKey][]Point) {
	t.Helper()
	end := t0.Add(100000 * time.Hour)
	for k, want := range ref {
		got := noerr(db.Query(k, time.Time{}, end))
		if len(got) > len(want) {
			t.Fatalf("%v: store has %d points, ref only %d", k, len(got), len(want))
		}
		tail := want[len(want)-len(got):]
		for i := range got {
			if !got[i].At.Equal(tail[i].At) || got[i].Value != tail[i].Value {
				t.Fatalf("%v: surviving points are not a suffix of the reference (index %d: got %v, want %v)", k, i, got[i], tail[i])
			}
		}
		for _, p := range want[:len(want)-len(got)] {
			for _, res := range rollupResolutions {
				bs := time.Unix(0, bucketStart(p.At.UnixNano(), res)).UTC()
				tier, _ := db.Tier(res, AggMean)
				cov := noerr(tier.Query(k, bs, bs))
				if len(cov) != 1 {
					t.Fatalf("%v: raw point at %v was dropped but its %s bucket %v has no committed rollup",
						k, p.At, ResName(res), bs)
				}
			}
		}
	}
}

// retentionWorkload appends ~5 days of price data (retained at 24h)
// plus an unretained dataset, returning the reference contents.
func retentionWorkload(t *testing.T, db *DB) map[SeriesKey][]Point {
	t.Helper()
	a := rollupEntries(3000, 0) // ~5.2 days across 4 series (one is price)
	if n, err := db.AppendBatch(a); err != nil || n != len(a) {
		t.Fatalf("stored %d, err %v", n, err)
	}
	ref := make(map[SeriesKey][]Point)
	for _, e := range a {
		ref[e.Key] = append(ref[e.Key], Point{At: e.At, Value: e.Value})
	}
	return ref
}

func TestRetentionDropsOnlyCovered(t *testing.T) {
	dir := t.TempDir()
	opts := retentionOpts()
	db, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := retentionWorkload(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	cut, ok := db.RetentionCut(DatasetPrice)
	if !ok || cut.IsZero() {
		t.Fatal("no retention cut committed after checkpoint")
	}
	stats := db.RetentionStats()
	if len(stats) != 1 || stats[0].Dataset != DatasetPrice {
		t.Fatalf("RetentionStats = %+v, want one entry for %s", stats, DatasetPrice)
	}
	if stats[0].DroppedPoints == 0 {
		t.Fatal("five days of data past a 24h horizon dropped nothing")
	}
	if stats[0].Horizon != 24*time.Hour || !stats[0].Cut.Equal(cut) {
		t.Fatalf("RetentionStats = %+v, want horizon 24h and cut %v", stats[0], cut)
	}
	assertNeverDropUncovered(t, db, ref)

	// Unretained datasets must be untouched.
	for k, want := range ref {
		if k.Dataset == DatasetPrice {
			continue
		}
		if got := noerr(db.Query(k, time.Time{}, t0.Add(100000*time.Hour))); len(got) != len(want) {
			t.Fatalf("unretained %v lost points: %d of %d remain", k, len(got), len(want))
		}
	}
	// Something must actually have been dropped below the cut.
	for k, want := range ref {
		if k.Dataset != DatasetPrice {
			continue
		}
		got := noerr(db.Query(k, time.Time{}, t0.Add(100000*time.Hour)))
		if len(got) == len(want) {
			t.Fatalf("retained %v dropped nothing", k)
		}
	}

	// The cut is durable and idempotent across reopen.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	cut2, ok := re.RetentionCut(DatasetPrice)
	if !ok || !cut2.Equal(cut) {
		t.Fatalf("reopened cut = %v (%v), want %v", cut2, ok, cut)
	}
	assertNeverDropUncovered(t, re, ref)
	assertRollupsMatchRef(t, re, ref)
}

// crashMatrixWorkload lays down two phases of price-only data around a
// clean checkpoint. The first checkpoint seals block file A; the second
// (the one each matrix cell crashes) advances the cut past everything in
// file A, so the fully-dead-file unlink path genuinely runs.
func crashMatrixWorkload(t *testing.T, db *DB) map[SeriesKey][]Point {
	t.Helper()
	keys := []SeriesKey{
		{Dataset: DatasetPrice, Type: "m5.large", Region: "us-east-1", AZ: "us-east-1a"},
		{Dataset: DatasetPrice, Type: "c5.large", Region: "us-east-1", AZ: "us-east-1b"},
	}
	ref := make(map[SeriesKey][]Point)
	appendPhase := func(n, start int) {
		out := make([]Entry, 0, n)
		for i := 0; i < n; i++ {
			step := start + i/len(keys)
			e := Entry{
				Key:   keys[i%len(keys)],
				At:    t0.Add(time.Duration(step) * 10 * time.Minute),
				Value: float64((i*7)%23) + float64(i%5)/8,
			}
			out = append(out, e)
			ref[e.Key] = append(ref[e.Key], Point{At: e.At, Value: e.Value})
		}
		if n2, err := db.AppendBatch(out); err != nil || n2 != n {
			t.Fatalf("stored %d, err %v", n2, err)
		}
	}
	appendPhase(900, 0) // ~3.1 days
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	appendPhase(900, 450) // ~3.1 more days
	return ref
}

// TestRetentionCrashMatrix crashes enforcement at every protocol stage
// and proves the reopened store never lost a raw point its rollups do
// not cover, and can still checkpoint its way forward.
func TestRetentionCrashMatrix(t *testing.T) {
	points := []string{
		"retention:manifest:before-sync",
		"retention:manifest:synced",
		"retention:manifest:committed",
		"retention:unlink:mid",
	}
	for _, point := range points {
		point := point
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			opts := retentionOpts()
			db, err := OpenWithOptions(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref := crashMatrixWorkload(t, db)
			db.testCrash = func(p string) error {
				if p == point {
					return errCrashPoint
				}
				return nil
			}
			err = db.Checkpoint()
			if !errors.Is(err, errCrashPoint) {
				t.Fatalf("checkpoint returned %v, want injected crash at %s", err, point)
			}
			db.testCrash = nil
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := OpenWithOptions(dir, opts)
			if err != nil {
				t.Fatalf("reopen after %s: %v", point, err)
			}
			assertNeverDropUncovered(t, re, ref)
			// The store must enforce its way out of the crashed state.
			if err := re.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after %s: %v", point, err)
			}
			assertNeverDropUncovered(t, re, ref)
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			// And the post-recovery state itself reopens cleanly.
			re2, err := OpenWithOptions(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			assertNeverDropUncovered(t, re2, ref)
			assertRollupsMatchRef(t, re2, ref)
		})
	}
}

// TestRetentionTriggerCountsAndMeta: the retention trigger drives the
// maintenance daemon like the other three, and its checkpoints count in
// MaintenanceStats.ForcedByRetention.
func TestRetentionTrigger(t *testing.T) {
	dir := t.TempDir()
	opts := retentionOpts()
	opts.MaintenanceInterval = -1 // no daemon; exercise the trigger directly
	db, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if !db.SelfMaintains() {
		t.Fatal("a store with -retain-raw must self-maintain")
	}
	retentionWorkload(t, db)
	if !db.retentionTriggerHot() {
		t.Fatal("five days past a 24h horizon did not arm the retention trigger")
	}
	db.cpMu.Lock()
	db.runMaintenanceCheckpointLocked()
	db.cpMu.Unlock()
	if st := db.MaintenanceStats(); st.ForcedByRetention == 0 {
		t.Fatalf("ForcedByRetention = 0 after a retention-triggered checkpoint (stats %+v)", st)
	}
	if db.retentionTriggerHot() {
		t.Fatal("trigger still hot after enforcement evaluated the cut (would spin)")
	}

	// Re-arming is quantized to 1d buckets: a sub-day estimate advance can
	// never condemn a new block (coverage moves in 1d steps), so it must
	// not re-fire — else a fast history replay checkpoints per append.
	var pk SeriesKey
	var last time.Time
	for _, k := range sealKeys() {
		if k.Dataset == DatasetPrice {
			pk = k
		}
	}
	for _, e := range rollupEntries(3000, 0) {
		if e.At.After(last) {
			last = e.At
		}
	}
	if _, err := db.AppendBatch([]Entry{{Key: pk, At: last.Add(10 * time.Minute), Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if db.retentionTriggerHot() {
		t.Fatal("trigger re-armed on a sub-day estimate advance (replay would checkpoint per append)")
	}
	if _, err := db.AppendBatch([]Entry{{Key: pk, At: last.Add(24 * time.Hour), Value: 1}}); err != nil {
		t.Fatal(err)
	}
	if !db.retentionTriggerHot() {
		t.Fatal("trigger stayed cold after the estimate crossed a 1d bucket boundary")
	}
}

// TestRetentionCutAtRangeStart: a horizon reaching back past the first
// representable instant cuts nothing. maxAt - horizon underflows int64
// there, and a wrapped estimate would sit far in the future, capped only
// by coverage, dropping every covered raw block.
func TestRetentionCutAtRangeStart(t *testing.T) {
	rs := &retentionState{horizon: 1000 * 24 * time.Hour}
	rs.maxAt.Store(minInstant.Add(24 * time.Hour).UnixNano())
	rs.coverage.Store(minInstant.UnixNano())
	if est, ok := rs.cutEstimate(); ok {
		t.Fatalf("cutEstimate = %d, want none: nothing is older than the horizon", est)
	}
}

// TestRetentionRequiresDurableSealingStore: configuration errors are
// rejected at open, not silently ignored.
func TestRetentionRequiresDurableSealingStore(t *testing.T) {
	if _, err := OpenWithOptions("", Options{RetainRaw: map[string]time.Duration{DatasetPrice: time.Hour}}); err == nil {
		t.Fatal("memory-only store accepted RetainRaw")
	}
	o := rollupOpts()
	o.HotTailPoints = -1 // sealing disabled
	o.RetainRaw = map[string]time.Duration{DatasetPrice: time.Hour}
	if _, err := OpenWithOptions(t.TempDir(), o); err == nil {
		t.Fatal("non-sealing store accepted RetainRaw")
	}
	o = rollupOpts()
	o.RetainRaw = map[string]time.Duration{DatasetPrice: -time.Hour}
	if _, err := OpenWithOptions(t.TempDir(), o); err == nil {
		t.Fatal("negative horizon accepted")
	}
}

func TestParseRetainRaw(t *testing.T) {
	m, err := ParseRetainRaw("price=90d,sps=720h")
	if err != nil {
		t.Fatal(err)
	}
	if m["price"] != 90*24*time.Hour || m["sps"] != 720*time.Hour {
		t.Fatalf("parsed %v", m)
	}
	for _, bad := range []string{"", "price", "price=", "=90d", "price=0s", "price=-1h", "price=1h,price=2h", "price=nonsense"} {
		if _, err := ParseRetainRaw(bad); err == nil {
			t.Errorf("ParseRetainRaw(%q) accepted", bad)
		}
	}
}
