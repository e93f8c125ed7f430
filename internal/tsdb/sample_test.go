package tsdb

// Tests for points at rest as samples: the 16-byte pointer-free layout,
// the accepted timestamp range across every tier, one zone (UTC) for
// every answer, and window bounds that saturate instead of wrapping.

import (
	"math"
	"reflect"
	"testing"
	"time"
)

// The API's widest window: the default bounds the archive and the
// analysis tools read whole series with.
var (
	year1    = time.Time{}
	year9999 = time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)
)

// hasPointers reports whether a value of type t holds anything the GC
// must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Chan,
		reflect.Func, reflect.Interface, reflect.Slice, reflect.String:
		return true
	}
	return false
}

// TestRestingPointLayout guards the storage economy: the element types of
// the hot tail, of a read view's hot window and of the block cache's
// entries stay at 16 bytes with no pointer, and the cache charges what
// one really occupies.
func TestRestingPointLayout(t *testing.T) {
	for name, slice := range map[string]any{
		"series.points":       series{}.points,
		"seriesView.hot":      seriesView{}.hot,
		"blockCacheEntry.pts": blockCacheEntry{}.pts,
	} {
		elem := reflect.TypeOf(slice).Elem()
		if elem.Size() > 16 {
			t.Errorf("%s element %v is %d bytes, want <= 16", name, elem, elem.Size())
		}
		if hasPointers(elem) {
			t.Errorf("%s element %v holds a pointer the GC must scan", name, elem)
		}
		if int64(elem.Size()) != sampleBytes {
			t.Errorf("%s element is %d bytes, but the block cache charges %d", name, elem.Size(), sampleBytes)
		}
	}
	if !hasPointers(reflect.TypeOf(Point{})) {
		t.Fatal("hasPointers misses time.Time's *Location")
	}
}

// checkServed asserts every read answers want (the series' full contents)
// in UTC: Query and QueryAfter over the widest window, Last and MaxTime
// with ==, which compares the Location too, and ValueAt at each point's
// own instant as it was appended (any zone).
func checkServed(t *testing.T, stage string, db *DB, k SeriesKey, appended []Point) {
	t.Helper()
	want := make([]Point, len(appended))
	for i, p := range appended {
		want[i] = Point{At: p.At.UTC(), Value: p.Value}
	}
	for name, got := range map[string][]Point{
		"Query":      noerr(db.Query(k, year1, year9999)),
		"QueryAfter": noerr(db.QueryAfter(k, year1, 0, year9999, -1)),
	} {
		if len(got) != len(want) {
			t.Fatalf("%s: %s returned %d points, want %d", stage, name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: %s[%d] = %v (%v), want %v", stage, name, i, got[i], got[i].At.Location(), want[i])
			}
		}
	}
	if p, ok := noerr2(db.Last(k)); !ok || p != want[len(want)-1] {
		t.Fatalf("%s: Last = %v, %v (%v), want %v", stage, p, ok, p.At.Location(), want[len(want)-1])
	}
	if at, ok := db.MaxTime(); !ok || at != want[len(want)-1].At {
		t.Fatalf("%s: MaxTime = %v, %v, want %v", stage, at, ok, want[len(want)-1].At)
	}
	for i, p := range appended {
		// The last point of an equal-timestamp run carries the value.
		wantV := p.Value
		for j := i + 1; j < len(appended) && appended[j].At.Equal(p.At); j++ {
			wantV = appended[j].Value
		}
		if v, ok := noerr2(db.ValueAt(k, p.At)); !ok || v != wantV {
			t.Fatalf("%s: ValueAt(%v) = %v, %v, want %v", stage, p.At, v, ok, wantV)
		}
	}
}

// sealReopen runs fn on a fresh durable store holding pts under k before
// a seal, after a checkpoint that seals all but the hot tail, and after
// a reopen of the same directory.
func sealReopen(t *testing.T, k SeriesKey, pts []Point, fn func(stage string, db *DB)) {
	t.Helper()
	opts := tuning{shards: 2, hotTail: 1, blockPoints: 2}
	dir := t.TempDir()
	db, err := openTuned(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if err := db.Append(k, p.At, p.Value); err != nil {
			t.Fatal(err)
		}
	}
	fn("hot", db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.ColdPointCount() == 0 {
		t.Fatal("checkpoint sealed nothing")
	}
	fn("sealed", db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = openTuned(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	fn("reopened", db)
}

// TestRangeLimitsDurableRoundTrip appends at both limits of the accepted
// range and asserts every acknowledged point reads back unchanged before
// a seal, from sealed blocks and rollups, and after a reopen. A timestamp
// the int64 nanosecond formats cannot hold (year 3000, year 1600) must be
// refused at append, never acknowledged and then served centuries away.
func TestRangeLimitsDurableRoundTrip(t *testing.T) {
	k := key("us-east-1a")
	pts := []Point{
		{At: minInstant, Value: 1},
		{At: minInstant.Add(time.Hour), Value: 2},
		{At: t0, Value: 3},
		{At: t0.Add(time.Hour), Value: 4},
		{At: maxInstant.Add(-time.Hour), Value: 5},
		{At: maxInstant, Value: 6},
	}
	sealReopen(t, k, pts, func(stage string, db *DB) {
		checkServed(t, stage, db, k, pts)
		for _, at := range []time.Time{
			time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC),
			time.Date(1600, 1, 1, 0, 0, 0, 0, time.UTC),
		} {
			if err := db.Append(key("us-east-1b"), at, 7); err == nil {
				t.Fatalf("%s: Append at %v was acknowledged", stage, at)
			}
		}
		// 1678 to 2022 overflows a Duration: the interval saturates as
		// Time.Sub does.
		ivs := noerr(db.ChangeIntervals(k))
		for i, d := range ivs {
			if want := pts[i+1].At.Sub(pts[i].At); d != want {
				t.Fatalf("%s: ChangeIntervals[%d] = %v, want %v", stage, i, d, want)
			}
		}
		if ivs[1] != math.MaxInt64 {
			t.Fatalf("%s: the 1678 → 2022 interval = %v, want the saturated maximum", stage, ivs[1])
		}
		if stage == "hot" {
			return
		}
		// The first day of the range is a whole rollup bucket.
		tier, _ := db.Tier(Res1d, AggMax)
		got := noerr(tier.Query(k, year1, year9999))
		if len(got) == 0 || got[0] != (Point{At: minInstant, Value: 2}) {
			t.Fatalf("%s: 1d max tier = %v, want its first bucket at %v holding 2", stage, got, minInstant)
		}
	})
}

// TestOneZonePerPoint: a point appended in any zone is served in UTC by
// every tier, so its answer (and the JSON rendered from it) is the same
// before a seal, after one and after a restart.
func TestOneZonePerPoint(t *testing.T) {
	k := key("us-east-1a")
	jst := time.FixedZone("JST", 9*3600)
	est := time.FixedZone("EST", -5*3600)
	pts := []Point{
		{At: time.Date(2022, 1, 1, 9, 0, 0, 0, jst), Value: 1},
		{At: time.Date(2022, 1, 1, 0, 10, 0, 0, time.UTC), Value: 2},
		{At: time.Date(2021, 12, 31, 19, 20, 0, 0, est), Value: 3},
		{At: time.Date(2022, 1, 1, 9, 30, 0, 0, jst), Value: 4},
		{At: time.Date(2022, 1, 1, 9, 30, 0, 0, jst).In(time.Local), Value: 5},
		{At: time.Date(2022, 1, 1, 9, 40, 0, 0, jst), Value: 6},
	}
	sealReopen(t, k, pts, func(stage string, db *DB) {
		checkServed(t, stage, db, k, pts)
	})
}

// TestWindowBoundsSaturate reads whole series through the API's widest
// window, year 1 … year 9999, whose unix nanoseconds overflow int64: every
// read must treat the bounds as what they are, before and after all data,
// on a hot series and on a sealed one, and agree with the reference.
func TestWindowBoundsSaturate(t *testing.T) {
	k := key("us-east-1a")
	ref := newRefDB()
	var pts []Point
	for i := 0; i < 40; i++ {
		at := t0.Add(time.Duration(i/3) * time.Hour) // equal-timestamp runs of 3
		pts = append(pts, Point{At: at, Value: float64(i % 7)})
		if err := ref.append(k, at, float64(i%7)); err != nil {
			t.Fatal(err)
		}
	}
	const step = 200 * 365 * 24 * time.Hour
	sealReopen(t, k, pts, func(stage string, db *DB) {
		all := ref.query(k, year1, year9999)
		for name, got := range map[string][]Point{
			"Query":                   noerr(db.Query(k, year1, year9999)),
			"QueryAfter(year 1, 5)":   noerr(db.QueryAfter(k, year1, 5, year9999, -1)),
			"QueryAfter(first, 1)":    append(all[:1:1], noerr(db.QueryAfter(k, all[0].At, 1, year9999, -1))...),
			"QueryAfter(year 1, max)": noerr(db.QueryAfter(k, year1, 0, year9999, 1000)),
		} {
			if len(got) != len(all) {
				t.Fatalf("%s: %s returned %d points, want %d", stage, name, len(got), len(all))
			}
			for i := range all {
				if got[i] != all[i] {
					t.Fatalf("%s: %s[%d] = %v, want %v", stage, name, i, got[i], all[i])
				}
			}
		}
		if n := noerr(db.CountAfter(k, year1, 0, year9999)); n != len(all) {
			t.Fatalf("%s: CountAfter = %d, want %d", stage, n, len(all))
		}
		if n := noerr(db.CountAfter(k, year1, 3, year9999)); n != len(all) {
			t.Fatalf("%s: CountAfter(year 1, seq 3) = %d, want %d", stage, n, len(all))
		}
		if got := noerr(db.Query(k, year9999, year1)); len(got) != 0 {
			t.Fatalf("%s: inverted window returned %d points", stage, len(got))
		}
		for _, at := range []time.Time{year1, year9999} {
			gv, gok := noerr2(db.ValueAt(k, at))
			wv, wok := ref.valueAt(k, at)
			if gok != wok || gv != wv {
				t.Fatalf("%s: ValueAt(%v) = %v, %v, want %v, %v", stage, at, gv, gok, wv, wok)
			}
		}
		gm, gok := noerr2(db.WindowMean(k, year1, year9999))
		wm, wok := ref.windowMean(k, year1, year9999)
		if gok != wok || math.Float64bits(gm) != math.Float64bits(wm) {
			t.Fatalf("%s: WindowMean = %v, %v, want %v, %v", stage, gm, gok, wm, wok)
		}
		gg, wg := noerr(db.Grid(k, year1, year9999, step)), ref.grid(k, year1, year9999, step)
		if len(gg) != len(wg) {
			t.Fatalf("%s: Grid returned %d samples, want %d", stage, len(gg), len(wg))
		}
		for i := range wg {
			if math.Float64bits(gg[i]) != math.Float64bits(wg[i]) {
				t.Fatalf("%s: Grid[%d] = %v, want %v", stage, i, gg[i], wg[i])
			}
		}
		if stage == "hot" {
			return
		}
		tier, _ := db.Tier(Res1h, AggLast)
		buckets := noerr(tier.Query(k, year1, year9999))
		if n := noerr(tier.CountAfter(k, year1, 0, year9999)); len(buckets) == 0 || n != len(buckets) {
			t.Fatalf("%s: 1h tier returned %d buckets, counted %d", stage, len(buckets), n)
		}
	})
}
