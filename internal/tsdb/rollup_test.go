package tsdb

// Differential tests for the rollup fold: every bucket every tier serves
// must bitwise-equal a naive fold of every stored point — hot tail
// included, across the hot/cold boundary, across reopen, on a
// memory-only store and on a replica — and reads racing appends and
// seals must agree with the final state on every bucket but the newest.

import (
	"math"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

var (
	testResolutions = []time.Duration{Res1h, Res1d}
	testAggs        = []Agg{AggMin, AggMax, AggMean, AggLast}
)

// rollupOpts seals aggressively like sealedOpts but with block sizes
// that put several blocks per series so folds cross block boundaries.
func rollupOpts() tuning {
	return tuning{Options: Options{BlockCacheBytes: 1 << 14}, shards: 4, hotTail: 4, blockPoints: 16}
}

// rollupEntries builds a multi-day workload over a few series: points
// every 10 simulated minutes with drifting values, so 1h buckets hold
// ~6 points and 1d buckets ~144.
func rollupEntries(n, start int) []Entry {
	keys := sealKeys()
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		step := start + i/len(keys)
		out = append(out, Entry{
			Key:   keys[i%len(keys)],
			At:    t0.Add(time.Duration(step) * 10 * time.Minute),
			Value: float64((i*7)%23) + float64(i%5)/8,
		})
	}
	return out
}

// addRef appends entries, each series' in time order, to a reference of
// every stored point.
func addRef(ref map[SeriesKey][]Point, entries []Entry) {
	for _, e := range entries {
		ref[e.Key] = append(ref[e.Key], Point{At: e.At, Value: e.Value})
	}
}

// naiveRollup groups time-ordered points by the res-aligned interval
// they fall in (time.Truncate, not the store's bucketStart) and
// aggregates each group, summing the mean in time order.
func naiveRollup(pts []Point, res time.Duration, agg Agg) []Point {
	var out []Point
	for i := 0; i < len(pts); {
		start := pts[i].At.Truncate(res)
		j := i
		for j < len(pts) && pts[j].At.Truncate(res).Equal(start) {
			j++
		}
		grp := pts[i:j]
		v := grp[0].Value
		sum := 0.0
		for _, p := range grp {
			switch {
			case agg == AggMin && p.Value < v, agg == AggMax && p.Value > v, agg == AggLast:
				v = p.Value
			}
			sum += p.Value
		}
		if agg == AggMean {
			v = sum / float64(len(grp))
		}
		out = append(out, Point{At: start.UTC(), Value: v})
		i = j
	}
	return out
}

func samePoints(a, b []Point) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].At.Equal(b[i].At) || math.Float64bits(a[i].Value) != math.Float64bits(b[i].Value) {
			return false
		}
	}
	return true
}

// assertRollupsMatch checks every tier of db against naiveRollup of ref,
// bitwise: the whole series, its count, a window with unaligned bounds,
// and a cursor resume that skips the bucket at its position.
func assertRollupsMatch(t *testing.T, db *DB, ref map[SeriesKey][]Point) {
	t.Helper()
	end := t0.Add(100000 * time.Hour)
	keys := db.Keys(KeyFilter{})
	if len(keys) != len(ref) {
		t.Fatalf("store holds %d series, the reference %d", len(keys), len(ref))
	}
	for _, k := range keys {
		for _, res := range testResolutions {
			for _, agg := range testAggs {
				tier, ok := db.Tier(res, agg)
				if !ok {
					t.Fatalf("store has no %v/%s tier", res, agg)
				}
				want := naiveRollup(ref[k], res, agg)
				if len(want) == 0 {
					t.Fatalf("%v: no reference points; the check would be vacuous", k)
				}
				if got := noerr(tier.Query(k, time.Time{}, end)); !samePoints(got, want) {
					t.Fatalf("%v %v/%s: served %v, want %v", k, res, agg, got, want)
				}
				if n := noerr(tier.CountAfter(k, time.Time{}, 0, end)); n != len(want) {
					t.Fatalf("%v %v/%s: CountAfter %d, want %d", k, res, agg, n, len(want))
				}
				if len(want) < 4 {
					continue
				}
				lo, hi := len(want)/3, 2*len(want)/3
				from, to := want[lo].At.Add(time.Nanosecond), want[hi].At.Add(res/2)
				if got := noerr(tier.Query(k, from, to)); !samePoints(got, want[lo+1:hi+1]) {
					t.Fatalf("%v %v/%s window (%v, %v]: served %v, want %v", k, res, agg, from, to, got, want[lo+1:hi+1])
				}
				if got := noerr(tier.QueryAfter(k, want[lo].At, 1, end, 2)); !samePoints(got, want[lo+1:lo+3]) {
					t.Fatalf("%v %v/%s resume after bucket %d: served %v, want %v", k, res, agg, lo, got, want[lo+1:lo+3])
				}
			}
		}
	}
}

// TestRollupDifferential checks every served bucket against the naive
// fold of every stored point before any seal, after each seal (buckets
// straddling the hot/cold boundary included), after a reopen, and on a
// memory-only store fed the same points. No seal leaves a rollup file.
func TestRollupDifferential(t *testing.T) {
	dir := t.TempDir()
	db, err := openTuned(dir, rollupOpts())
	if err != nil {
		t.Fatal(err)
	}
	mem, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	ref := make(map[SeriesKey][]Point)
	appendBoth := func(entries []Entry) {
		t.Helper()
		for _, s := range []*DB{db, mem} {
			if n, err := s.AppendBatch(entries); err != nil || n != len(entries) {
				t.Fatalf("stored %d, err %v", n, err)
			}
		}
		addRef(ref, entries)
	}

	// ~3 days of data, all hot.
	appendBoth(rollupEntries(1800, 0))
	if db.ColdPointCount() != 0 {
		t.Fatal("points sealed before any checkpoint")
	}
	assertRollupsMatch(t, db, ref)

	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.ColdPointCount() == 0 || db.HotPointCount() == 0 {
		t.Fatalf("the seal left %d cold and %d hot points; want both tiers", db.ColdPointCount(), db.HotPointCount())
	}
	assertRollupsMatch(t, db, ref)

	// Two more days: the newest buckets are hot again until the next
	// seal moves the boundary through them.
	appendBoth(rollupEntries(1200, 450))
	assertRollupsMatch(t, db, ref)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	assertRollupsMatch(t, db, ref)

	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = openTuned(dir, rollupOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	assertRollupsMatch(t, db, ref)
	assertRollupsMatch(t, mem, ref)
	if m, _ := filepath.Glob(filepath.Join(dir, "rollup-*")); len(m) != 0 {
		t.Fatalf("seals left rollup files: %v", m)
	}
}

// TestRollupReadsDuringSeals reads every tier while a writer appends and
// checkpoints. Appends are monotone, so every bucket a reader saw but
// its newest must equal the final tier's bucket at the same place, bit
// for bit, and the newest one's start must be there too. Run under
// -race it also checks that folds read views appends and seals replace
// without a data race.
func TestRollupReadsDuringSeals(t *testing.T) {
	db, err := openTuned(t.TempDir(), rollupOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ref := make(map[SeriesKey][]Point)
	first := rollupEntries(600, 0)
	if _, err := db.AppendBatch(first); err != nil {
		t.Fatal(err)
	}
	addRef(ref, first)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	end := t0.Add(100000 * time.Hour)
	type seen struct {
		k   SeriesKey
		r   int
		pts []Point
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	observed := make([][]seen, 2)
	for g := range observed {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, k := range sealKeys() {
					for r, res := range testResolutions {
						tier, _ := db.Tier(res, AggMean)
						pts, err := tier.Query(k, time.Time{}, end)
						if err != nil {
							t.Error(err)
							return
						}
						if n, _ := tier.CountAfter(k, time.Time{}, 0, end); n < len(pts) {
							t.Errorf("%v %v: CountAfter %d after Query served %d", k, res, n, len(pts))
							return
						}
						observed[g] = append(observed[g], seen{k, r, pts})
					}
				}
			}
		}(g)
	}
	for round := 1; round <= 6; round++ {
		more := rollupEntries(300, 150*round)
		if _, err := db.AppendBatch(more); err != nil {
			t.Error(err)
			break
		}
		addRef(ref, more)
		if err := db.Checkpoint(); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	final := make(map[SeriesKey][][]Point)
	for _, k := range sealKeys() {
		for _, res := range testResolutions {
			tier, _ := db.Tier(res, AggMean)
			final[k] = append(final[k], noerr(tier.Query(k, time.Time{}, end)))
		}
	}
	reads := 0
	for _, obs := range observed {
		for _, o := range obs {
			want := final[o.k][o.r]
			n := len(o.pts)
			if n == 0 || n > len(want) {
				t.Fatalf("%v %v: a reader saw %d buckets, the final tier holds %d", o.k, testResolutions[o.r], n, len(want))
			}
			if !samePoints(o.pts[:n-1], want[:n-1]) || !o.pts[n-1].At.Equal(want[n-1].At) {
				t.Fatalf("%v %v: a reader saw %v, which is not a prefix of the final %v up to its newest bucket's value", o.k, testResolutions[o.r], o.pts, want)
			}
			reads++
		}
	}
	if reads == 0 {
		t.Fatal("readers made no reads")
	}
	assertRollupsMatch(t, db, ref)
}
