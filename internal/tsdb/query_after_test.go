package tsdb

import (
	"math"
	"testing"
	"time"
)

// TestQueryAfterSeek pins CountAfter/QueryAfter — the seek primitives
// behind keyset-cursor pagination — against the full Query result: the
// points after full[i].At are exactly full[i+1:], regardless of where in
// the series the cursor position falls.
func TestQueryAfterSeek(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	k := SeriesKey{Dataset: DatasetPrice, Type: "m5.xlarge", Region: "us-east-1", AZ: "us-east-1a"}
	const n = 40
	for i := 0; i < n; i++ {
		if err := db.Append(k, t0.Add(time.Duration(i)*time.Minute), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	from, to := t0.Add(5*time.Minute), t0.Add(30*time.Minute)
	full := noerr(db.Query(k, from, to))
	if len(full) == 0 {
		t.Fatal("empty window")
	}
	for i := range full {
		rest := full[i+1:]
		if got := noerr(db.CountAfter(k, full[i].At, 1, to)); got != len(rest) {
			t.Fatalf("CountAfter(%v) = %d, want %d", full[i].At, got, len(rest))
		}
		got := noerr(db.QueryAfter(k, full[i].At, 1, to, -1))
		if len(got) != len(rest) {
			t.Fatalf("QueryAfter(%v) = %d points, want %d", full[i].At, len(got), len(rest))
		}
		for j := range rest {
			if got[j] != rest[j] {
				t.Fatalf("QueryAfter(%v)[%d] = %+v, want %+v", full[i].At, j, got[j], rest[j])
			}
		}
	}
	// A position before the window's first point yields the whole window.
	if got := noerr(db.QueryAfter(k, from.Add(-time.Second), 0, to, -1)); len(got) != len(full) {
		t.Fatalf("pre-window seek: %d points, want %d", len(got), len(full))
	}
	// A position at or past the last point yields nothing.
	if got := noerr(db.QueryAfter(k, full[len(full)-1].At, 1, to, -1)); got != nil {
		t.Fatalf("seek at last point returned %d points", len(got))
	}
	if got := noerr(db.CountAfter(k, to, 1, to)); got != 0 {
		t.Fatalf("CountAfter at window end = %d", got)
	}
	// max caps the page; zero max is empty; negative is unbounded.
	if got := noerr(db.QueryAfter(k, full[0].At, 1, to, 3)); len(got) != 3 || got[0] != full[1] {
		t.Fatalf("capped seek: %+v", got)
	}
	if got := noerr(db.QueryAfter(k, full[0].At, 1, to, 0)); got != nil {
		t.Fatalf("zero-max seek returned %d points", len(got))
	}
	// Unknown series: empty, no panic.
	none := SeriesKey{Dataset: DatasetPrice, Type: "nope", Region: "r", AZ: "a"}
	if noerr(db.CountAfter(none, from, 0, to)) != 0 || noerr(db.QueryAfter(none, from, 0, to, -1)) != nil {
		t.Fatal("unknown series not empty")
	}
	// Appends after a fixed seek position never change what the position
	// resolves to — the stability property cursors rely on.
	before := noerr(db.QueryAfter(k, full[2].At, 1, to, 5))
	if err := db.Append(k, t0.Add((n+1)*time.Minute), 99); err != nil {
		t.Fatal(err)
	}
	after := noerr(db.QueryAfter(k, full[2].At, 1, to, 5))
	if len(before) != len(after) {
		t.Fatalf("append moved the seek window: %d -> %d points", len(before), len(after))
	}
	for i := range before {
		if before[i] != after[i] {
			t.Fatalf("append moved seek point %d: %+v -> %+v", i, before[i], after[i])
		}
	}
}

// TestQueryAfterEqualTimestampRun pins the sequence component of the
// seek position: the store accepts equal-timestamp appends, and a
// position (T, seq) must resolve to "the run's remainder", never skip
// it — this is what lets a cursor page boundary fall inside such a run.
func TestQueryAfterEqualTimestampRun(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	k := SeriesKey{Dataset: DatasetPrice, Type: "m5.xlarge", Region: "us-east-1", AZ: "us-east-1a"}
	// points: [T, T, T, U, U] with T < U.
	T, U := t0, t0.Add(time.Minute)
	for i, at := range []time.Time{T, T, T, U, U} {
		if err := db.Append(k, at, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	to := t0.Add(time.Hour)
	for _, tc := range []struct {
		seq, want int
	}{
		{0, 5}, // nothing at T consumed: the whole series
		{1, 4}, // one T point consumed
		{3, 2}, // the whole T run consumed: both U points remain
		{9, 2}, // forged overshoot clamps to the run, never into U
	} {
		got := noerr(db.QueryAfter(k, T, tc.seq, to, -1))
		if len(got) != tc.want {
			t.Fatalf("QueryAfter(T, seq=%d): %d points, want %d", tc.seq, len(got), tc.want)
		}
		if n := noerr(db.CountAfter(k, T, tc.seq, to)); n != tc.want {
			t.Fatalf("CountAfter(T, seq=%d) = %d, want %d", tc.seq, n, tc.want)
		}
	}
	// seq=9 overshoots the T run; the clamp must not eat the U points:
	// the first returned point is the first U point.
	if got := noerr(db.QueryAfter(k, T, 9, to, -1)); got[0].Value != 3 {
		t.Fatalf("overshot seq resumed at %+v, want the first U point", got[0])
	}
	// Values confirm position, not just count: (T, 1) starts at the
	// second T point.
	if got := noerr(db.QueryAfter(k, T, 1, to, 2)); got[0].Value != 1 || got[1].Value != 2 {
		t.Fatalf("(T,1) page = %+v, want the 2nd and 3rd T points", got)
	}
}

// TestQueryRangeWindowing pins a plain window read — the position
// (from, 0) through CountAfter/QueryAfter, and Query, which is that read
// to its end — against the appended points filtered by hand: both bounds
// inclusive, windows hanging over either end of the series, empty
// windows, and a max capped, zero, unbounded and near MaxInt.
func TestQueryRangeWindowing(t *testing.T) {
	db, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	k := SeriesKey{Dataset: DatasetPrice, Type: "m5.xlarge", Region: "us-east-1", AZ: "us-east-1a"}
	const n = 40
	minute := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Minute) }
	var all []Point
	for i := 0; i < n; i++ {
		p := Point{At: minute(i), Value: float64(i)}
		if err := db.Append(k, p.At, p.Value); err != nil {
			t.Fatal(err)
		}
		all = append(all, p)
	}
	for _, w := range []struct {
		name     string
		from, to time.Time
	}{
		{"inner", minute(5), minute(30)},
		{"between points", minute(5).Add(time.Second), minute(30).Add(-time.Second)},
		{"one point", minute(7), minute(7)},
		{"over the start", minute(-10), minute(3)},
		{"over the end", minute(35), minute(90)},
		{"everything", time.Time{}, minute(1000)},
		{"before the series", minute(-10), minute(-1)},
		{"after the series", minute(n), minute(n + 5)},
		{"ends before it starts", minute(20), minute(10)},
	} {
		var full []Point
		for _, p := range all {
			if !p.At.Before(w.from) && !p.At.After(w.to) {
				full = append(full, p)
			}
		}
		if got := noerr(db.CountAfter(k, w.from, 0, w.to)); got != len(full) {
			t.Fatalf("%s: CountAfter %d, want %d", w.name, got, len(full))
		}
		for _, tc := range []struct{ max, wantN int }{
			{-1, len(full)},
			{7, min(7, len(full))},
			{100, len(full)},
			{math.MaxInt, len(full)}, // a huge max must not overflow
			{0, 0},                   // zero max = empty
		} {
			got := noerr(db.QueryAfter(k, w.from, 0, w.to, tc.max))
			if len(got) != tc.wantN {
				t.Fatalf("%s: QueryAfter(max=%d): %d points, want %d", w.name, tc.max, len(got), tc.wantN)
			}
			for j, p := range got {
				if p != full[j] {
					t.Fatalf("%s: QueryAfter(max=%d)[%d] = %+v, want %+v", w.name, tc.max, j, p, full[j])
				}
			}
		}
		got := noerr(db.Query(k, w.from, w.to))
		if len(got) != len(full) {
			t.Fatalf("%s: Query %d points, want %d", w.name, len(got), len(full))
		}
		for j, p := range got {
			if p != full[j] {
				t.Fatalf("%s: Query[%d] = %+v, want %+v", w.name, j, p, full[j])
			}
		}
	}
}
