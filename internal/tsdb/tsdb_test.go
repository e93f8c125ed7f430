package tsdb

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"
)

var t0 = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

func key(az string) SeriesKey {
	return SeriesKey{Dataset: DatasetPlacementScore, Type: "m5.xlarge", Region: "us-east-1", AZ: az}
}

// openTuned opens dir at t, each zero geometry field at its production
// value: defaultShards, hotTailPoints, blockPoints.
func openTuned(dir string, t tuning) (*DB, error) {
	if t.shards == 0 {
		t.shards = defaultShards()
	}
	if t.shards&(t.shards-1) != 0 {
		return nil, fmt.Errorf("tsdb: %d shards is not a power of two", t.shards)
	}
	if t.hotTail == 0 {
		t.hotTail = hotTailPoints
	}
	if t.blockPoints == 0 {
		t.blockPoints = blockPoints
	}
	return t.open(dir)
}

func mustOpen(t *testing.T, dir string) *DB {
	t.Helper()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestKeyRoundTrip(t *testing.T) {
	k := key("us-east-1a")
	parsed, err := ParseSeriesKey(k.String())
	if err != nil || parsed != k {
		t.Errorf("round trip = %v, %v", parsed, err)
	}
	// Empty AZ is legal (region-granular advisor series).
	k2 := SeriesKey{Dataset: DatasetInterruptFree, Type: "m5.xlarge", Region: "us-east-1"}
	parsed, err = ParseSeriesKey(k2.String())
	if err != nil || parsed != k2 {
		t.Errorf("round trip with empty AZ = %v, %v", parsed, err)
	}
	for _, bad := range []string{"", "a|b", "a|b|c|d|e", "|x|y|z"} {
		if _, err := ParseSeriesKey(bad); err == nil {
			t.Errorf("ParseSeriesKey(%q) should fail", bad)
		}
	}
}

func TestAppendAndQuery(t *testing.T) {
	db := mustOpen(t, "")
	k := key("us-east-1a")
	for i := 0; i < 10; i++ {
		if err := db.Append(k, t0.Add(time.Duration(i)*time.Hour), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	pts := noerr(db.Query(k, t0.Add(2*time.Hour), t0.Add(5*time.Hour)))
	if len(pts) != 4 {
		t.Fatalf("query returned %d points, want 4", len(pts))
	}
	if pts[0].Value != 2 || pts[3].Value != 5 {
		t.Errorf("wrong window contents: %v", pts)
	}
	if got := noerr(db.Query(key("us-east-1b"), t0, t0.Add(time.Hour))); got != nil {
		t.Error("unknown series should return nil")
	}
}

func TestAppendValidation(t *testing.T) {
	db := mustOpen(t, "")
	if err := db.Append(SeriesKey{}, t0, 1); err == nil {
		t.Error("incomplete key accepted")
	}
	k := key("us-east-1a")
	if err := db.Append(k, t0.Add(time.Hour), 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Append(k, t0, 2); err == nil {
		t.Error("out-of-order append accepted")
	}
	// Equal timestamps are allowed (same collection tick).
	if err := db.Append(k, t0.Add(time.Hour), 3); err != nil {
		t.Errorf("equal-time append rejected: %v", err)
	}
}

// TestOversizedKeyRejected: keys longer than the uint16 key-length fields
// of the WAL and block file codecs must be rejected at append time, not
// silently truncated into unreadable records.
func TestOversizedKeyRejected(t *testing.T) {
	db, _ := Open("")
	big := make([]byte, 70000)
	for i := range big {
		big[i] = 'x'
	}
	k := SeriesKey{Dataset: string(big), Type: "t", Region: "r", AZ: "a"}
	if err := db.Append(k, t0, 1); err == nil {
		t.Error("oversized key accepted by Append")
	}
	if _, err := db.AppendIfChanged(k, t0, 1); err == nil {
		t.Error("oversized key accepted by AppendIfChanged")
	}
	if n, err := db.AppendBatch([]Entry{{Key: k, At: t0, Value: 1}}); err == nil || n != 0 {
		t.Errorf("oversized key accepted by AppendBatch: n=%d err=%v", n, err)
	}
	if db.PointCount() != 0 {
		t.Error("oversized key stored points")
	}
}

// TestUnencodablePointRejected: a value JSON cannot render, or a
// timestamp outside years 1678–2261 (which unix nanoseconds cannot hold
// or the accepted range trims), is refused with ErrUnencodablePoint at
// all four append entry points,
// stores nothing (not even the series), and leaves the good entries of
// the same batch stored.
func TestUnencodablePointRejected(t *testing.T) {
	db := mustOpen(t, "")
	k := key("us-east-1a")
	bad := []Entry{
		{Key: k, At: t0, Value: math.NaN()},
		{Key: k, At: t0, Value: math.Inf(1)},
		{Key: k, At: t0, Value: math.Inf(-1)},
		{Key: k, At: time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC), Value: 1},
		{Key: k, At: time.Date(-1, 12, 31, 0, 0, 0, 0, time.UTC), Value: 1},
		// JSON renders these, but unix nanoseconds cannot hold them.
		{Key: k, At: time.Date(0, 1, 1, 0, 0, 0, 0, time.UTC), Value: 1},
		{Key: k, At: time.Date(9999, 12, 31, 23, 59, 59, 0, time.UTC), Value: 1},
		{Key: k, At: time.Date(3000, 1, 1, 0, 0, 0, 0, time.UTC), Value: 1},
		// Just outside the accepted range, including the int64 limits.
		{Key: k, At: minInstant.Add(-time.Nanosecond), Value: 1},
		{Key: k, At: maxInstant.Add(time.Nanosecond), Value: 1},
		{Key: k, At: time.Unix(0, math.MinInt64), Value: 1},
		{Key: k, At: time.Unix(0, math.MaxInt64), Value: 1},
	}
	for _, e := range bad {
		if err := db.Append(e.Key, e.At, e.Value); !errors.Is(err, ErrUnencodablePoint) {
			t.Errorf("Append(%v, %v) = %v, want ErrUnencodablePoint", e.At, e.Value, err)
		}
		if stored, err := db.AppendIfChanged(e.Key, e.At, e.Value); stored || !errors.Is(err, ErrUnencodablePoint) {
			t.Errorf("AppendIfChanged(%v, %v) = %v, %v, want ErrUnencodablePoint", e.At, e.Value, stored, err)
		}
		for name, appendBatch := range map[string]func([]Entry) (int, error){
			"AppendBatch": db.AppendBatch, "AppendBatchIfChanged": db.AppendBatchIfChanged,
		} {
			if n, err := appendBatch([]Entry{e}); n != 0 || !errors.Is(err, ErrUnencodablePoint) {
				t.Errorf("%s(%v, %v) = %d, %v, want ErrUnencodablePoint", name, e.At, e.Value, n, err)
			}
		}
	}
	if db.PointCount() != 0 || db.SeriesCount() != 0 {
		t.Fatalf("rejected points left %d points in %d series", db.PointCount(), db.SeriesCount())
	}
	// The range limits themselves are accepted, in any zone, and a bad
	// entry does not take its batch down with it.
	edge := []Entry{
		{Key: key("a"), At: minInstant, Value: 1},
		{Key: key("b"), At: maxInstant.In(time.FixedZone("", -3600)), Value: 2},
		bad[0],
	}
	if n, err := db.AppendBatch(edge); n != 2 || !errors.Is(err, ErrUnencodablePoint) {
		t.Fatalf("AppendBatch(edges + NaN) = %d, %v, want 2 stored and ErrUnencodablePoint", n, err)
	}
}

func TestAppendIfChanged(t *testing.T) {
	db := mustOpen(t, "")
	k := key("us-east-1a")
	values := []float64{3, 3, 3, 2, 2, 3, 3, 3, 1}
	stored := 0
	for i, v := range values {
		ok, err := db.AppendIfChanged(k, t0.Add(time.Duration(i)*10*time.Minute), v)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			stored++
		}
	}
	if stored != 4 { // 3, 2, 3, 1
		t.Errorf("stored %d change points, want 4", stored)
	}
	if db.PointCount() != 4 {
		t.Errorf("PointCount = %d, want 4", db.PointCount())
	}
}

func TestValueAtStepSemantics(t *testing.T) {
	db := mustOpen(t, "")
	k := key("us-east-1a")
	db.Append(k, t0.Add(1*time.Hour), 3)
	db.Append(k, t0.Add(5*time.Hour), 1)
	if _, ok := noerr2(db.ValueAt(k, t0)); ok {
		t.Error("value before first point should be absent")
	}
	if v, ok := noerr2(db.ValueAt(k, t0.Add(time.Hour))); !ok || v != 3 {
		t.Errorf("value at first point = %v, %v", v, ok)
	}
	if v, _ := noerr2(db.ValueAt(k, t0.Add(3*time.Hour))); v != 3 {
		t.Errorf("value mid-step = %v, want 3", v)
	}
	if v, _ := noerr2(db.ValueAt(k, t0.Add(8*time.Hour))); v != 1 {
		t.Errorf("value after last change = %v, want 1", v)
	}
}

func TestWindowMean(t *testing.T) {
	db := mustOpen(t, "")
	k := key("us-east-1a")
	// Value 2 for the first half of the window, 4 for the second half.
	db.Append(k, t0, 2)
	db.Append(k, t0.Add(12*time.Hour), 4)
	mean, ok := noerr2(db.WindowMean(k, t0, t0.Add(24*time.Hour)))
	if !ok || math.Abs(mean-3) > 1e-9 {
		t.Errorf("WindowMean = %v, %v, want 3", mean, ok)
	}
	// Window entirely before data: absent.
	if _, ok := noerr2(db.WindowMean(k, t0.Add(-2*time.Hour), t0.Add(-time.Hour))); ok {
		t.Error("mean before data should be absent")
	}
	// Window that starts before the first point but overlaps it: only the
	// covered part counts.
	mean, ok = noerr2(db.WindowMean(k, t0.Add(-12*time.Hour), t0.Add(12*time.Hour)))
	if !ok || math.Abs(mean-2) > 1e-9 {
		t.Errorf("partially covered mean = %v, %v, want 2", mean, ok)
	}
	// Degenerate window.
	if _, ok := noerr2(db.WindowMean(k, t0, t0)); ok {
		t.Error("empty window should be absent")
	}
}

func TestWindowMeanMatchesGridAverage(t *testing.T) {
	// Property: for fine grids, the step-aware window mean approaches the
	// grid-sample average.
	db := mustOpen(t, "")
	k := key("us-east-1a")
	vals := []float64{3, 1, 2, 3, 2, 1, 3}
	for i, v := range vals {
		db.Append(k, t0.Add(time.Duration(i*7)*time.Hour), v)
	}
	from, to := t0, t0.Add(49*time.Hour)
	mean, _ := noerr2(db.WindowMean(k, from, to))
	grid := noerr(db.Grid(k, from, to.Add(-time.Minute), time.Minute))
	sum := 0.0
	for _, g := range grid {
		sum += g
	}
	gridMean := sum / float64(len(grid))
	if math.Abs(mean-gridMean) > 0.01 {
		t.Errorf("window mean %v vs grid mean %v", mean, gridMean)
	}
}

func TestGridNaNBeforeData(t *testing.T) {
	db := mustOpen(t, "")
	k := key("us-east-1a")
	db.Append(k, t0.Add(2*time.Hour), 5)
	g := noerr(db.Grid(k, t0, t0.Add(4*time.Hour), time.Hour))
	if len(g) != 5 {
		t.Fatalf("grid len %d, want 5", len(g))
	}
	if !math.IsNaN(g[0]) || !math.IsNaN(g[1]) {
		t.Error("grid before first point should be NaN")
	}
	if g[2] != 5 || g[4] != 5 {
		t.Errorf("grid = %v", g)
	}
	if noerr(db.Grid(k, t0, t0.Add(time.Hour), 0)) != nil {
		t.Error("zero step should return nil")
	}
}

func TestChangeIntervals(t *testing.T) {
	db := mustOpen(t, "")
	k := key("us-east-1a")
	db.Append(k, t0, 1)
	db.Append(k, t0.Add(30*time.Minute), 2)
	db.Append(k, t0.Add(2*time.Hour), 3)
	iv := noerr(db.ChangeIntervals(k))
	if len(iv) != 2 || iv[0] != 30*time.Minute || iv[1] != 90*time.Minute {
		t.Errorf("intervals = %v", iv)
	}
	if noerr(db.ChangeIntervals(key("none"))) != nil {
		t.Error("unknown series should have no intervals")
	}
}

func TestKeysFilter(t *testing.T) {
	db := mustOpen(t, "")
	db.Append(SeriesKey{Dataset: "sps", Type: "a.x", Region: "r1", AZ: "r1a"}, t0, 1)
	db.Append(SeriesKey{Dataset: "sps", Type: "a.x", Region: "r1", AZ: "r1b"}, t0, 1)
	db.Append(SeriesKey{Dataset: "if", Type: "a.x", Region: "r1"}, t0, 1)
	db.Append(SeriesKey{Dataset: "sps", Type: "b.x", Region: "r2", AZ: "r2a"}, t0, 1)

	if got := len(db.Keys(KeyFilter{})); got != 4 {
		t.Errorf("unfiltered keys = %d, want 4", got)
	}
	if got := len(db.Keys(KeyFilter{Dataset: "sps"})); got != 3 {
		t.Errorf("sps keys = %d, want 3", got)
	}
	if got := len(db.Keys(KeyFilter{Type: "a.x", Region: "r1"})); got != 3 {
		t.Errorf("a.x/r1 keys = %d, want 3", got)
	}
	if got := len(db.Keys(KeyFilter{AZ: "r1b"})); got != 1 {
		t.Errorf("AZ keys = %d, want 1", got)
	}
	// Sorted canonically.
	keys := db.Keys(KeyFilter{})
	for i := 1; i < len(keys); i++ {
		if keys[i-1].String() >= keys[i].String() {
			t.Error("keys not sorted")
		}
	}
}

func TestLast(t *testing.T) {
	db := mustOpen(t, "")
	k := key("us-east-1a")
	if _, ok := noerr2(db.Last(k)); ok {
		t.Error("empty series has a last point")
	}
	db.Append(k, t0, 1)
	db.Append(k, t0.Add(time.Hour), 9)
	p, ok := noerr2(db.Last(k))
	if !ok || p.Value != 9 {
		t.Errorf("Last = %v, %v", p, ok)
	}
}

func TestPersistenceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir)
	k1, k2 := key("us-east-1a"), SeriesKey{Dataset: "if", Type: "p3.2xlarge", Region: "eu-west-1"}
	for i := 0; i < 100; i++ {
		if err := db.Append(k1, t0.Add(time.Duration(i)*time.Minute), float64(i%3+1)); err != nil {
			t.Fatal(err)
		}
	}
	db.Append(k2, t0, 2.5)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir)
	defer re.Close()
	if re.SeriesCount() != 2 {
		t.Fatalf("reopened series count = %d, want 2", re.SeriesCount())
	}
	if re.PointCount() != 101 {
		t.Fatalf("reopened point count = %d, want 101", re.PointCount())
	}
	pts := noerr(re.Query(k1, t0, t0.Add(200*time.Minute)))
	if len(pts) != 100 {
		t.Fatalf("reopened query = %d points", len(pts))
	}
	if v, ok := noerr2(re.ValueAt(k2, t0.Add(time.Hour))); !ok || v != 2.5 {
		t.Errorf("reopened advisor value = %v, %v", v, ok)
	}
	// Appends after reopen continue working.
	if err := re.Append(k1, t0.Add(300*time.Minute), 3); err != nil {
		t.Fatal(err)
	}
}

func TestReplayToleratesTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir)
	k := key("us-east-1a")
	for i := 0; i < 10; i++ {
		db.Append(k, t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the log by chopping 7 bytes off its one segment.
	path := filepath.Join(dir, rotSegName(db.walSeq))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	re := mustOpen(t, dir)
	defer re.Close()
	if got := re.PointCount(); got != 9 {
		t.Errorf("replay after truncation kept %d points, want 9", got)
	}
}

func TestClosedStoreRejectsWrites(t *testing.T) {
	db := mustOpen(t, "")
	db.Close()
	if err := db.Append(key("us-east-1a"), t0, 1); err == nil {
		t.Error("write after close accepted")
	}
}

func TestConcurrentReadsAndWrites(t *testing.T) {
	db := mustOpen(t, "")
	k := key("us-east-1a")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			db.Append(k, t0.Add(time.Duration(i)*time.Second), float64(i))
		}
	}()
	for i := 0; i < 5000; i++ {
		db.ValueAt(k, t0.Add(time.Duration(i)*time.Second))
		db.Query(k, t0, t0.Add(time.Hour))
	}
	<-done
	if db.PointCount() != 5000 {
		t.Errorf("points = %d", db.PointCount())
	}
}

func TestQueryWindowProperty(t *testing.T) {
	// Property: Query(k, from, to) returns exactly the points with
	// from <= t <= to, in order.
	db := mustOpen(t, "")
	k := key("us-east-1a")
	n := 200
	for i := 0; i < n; i++ {
		db.Append(k, t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	f := func(aRaw, bRaw uint8) bool {
		a, b := int(aRaw)%n, int(bRaw)%n
		if a > b {
			a, b = b, a
		}
		from, to := t0.Add(time.Duration(a)*time.Minute), t0.Add(time.Duration(b)*time.Minute)
		pts := noerr(db.Query(k, from, to))
		if len(pts) != b-a+1 {
			return false
		}
		for i, p := range pts {
			if p.Value != float64(a+i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
