package tsdb

import (
	"fmt"
	"math"
	"sort"
	"testing"
	"time"

	"repro/internal/simrand"
)

// refDB is the naive single-map reference implementation of the store's
// read/write semantics: plain slices, linear scans, no sharding, no locks.
// The differential test drives it and the real DB with identical op
// sequences and demands identical answers — the safety net under the
// sharded refactor.
type refDB struct {
	series map[SeriesKey][]Point
}

func newRefDB() *refDB { return &refDB{series: make(map[SeriesKey][]Point)} }

func (r *refDB) append(k SeriesKey, at time.Time, v float64) error {
	if k.Dataset == "" || k.Type == "" || k.Region == "" {
		return fmt.Errorf("ref: incomplete key")
	}
	pts := r.series[k]
	if n := len(pts); n > 0 && at.Before(pts[n-1].At) {
		return fmt.Errorf("ref: out of order")
	}
	r.series[k] = append(pts, Point{At: at, Value: v})
	return nil
}

func (r *refDB) appendIfChanged(k SeriesKey, at time.Time, v float64) (bool, error) {
	if pts := r.series[k]; len(pts) > 0 && pts[len(pts)-1].Value == v {
		return false, nil
	}
	if err := r.append(k, at, v); err != nil {
		return false, err
	}
	return true, nil
}

func (r *refDB) query(k SeriesKey, from, to time.Time) []Point {
	var out []Point
	for _, p := range r.series[k] {
		if !p.At.Before(from) && !p.At.After(to) {
			out = append(out, p)
		}
	}
	return out
}

func (r *refDB) valueAt(k SeriesKey, t time.Time) (float64, bool) {
	v, ok := 0.0, false
	for _, p := range r.series[k] {
		if p.At.After(t) {
			break
		}
		v, ok = p.Value, true
	}
	return v, ok
}

// windowMean integrates the step function over [from, to) straight from
// the point list: each point's value holds over [its time, the next
// point's time), clipped to the window. Nonzero segments are summed in
// time order, so the result matches the store's bit for bit.
func (r *refDB) windowMean(k SeriesKey, from, to time.Time) (float64, bool) {
	total, weight := 0.0, 0.0
	pts := r.series[k]
	for i, p := range pts {
		start, end := p.At, to
		if start.Before(from) {
			start = from
		}
		if i+1 < len(pts) && pts[i+1].At.Before(to) {
			end = pts[i+1].At
		}
		if end.After(start) {
			d := end.Sub(start).Seconds()
			total += p.Value * d
			weight += d
		}
	}
	if weight == 0 {
		return 0, false
	}
	return total / weight, true
}

// grid samples valueAt at every instant, NaN before the first point.
func (r *refDB) grid(k SeriesKey, from, to time.Time, step time.Duration) []float64 {
	var out []float64
	for t := from; !t.After(to); t = t.Add(step) {
		v, ok := r.valueAt(k, t)
		if !ok {
			v = math.NaN()
		}
		out = append(out, v)
	}
	return out
}

func (r *refDB) last(k SeriesKey) (Point, bool) {
	pts := r.series[k]
	if len(pts) == 0 {
		return Point{}, false
	}
	return pts[len(pts)-1], true
}

func (r *refDB) keys(f KeyFilter) []SeriesKey {
	var out []SeriesKey
	for k := range r.series {
		if f.matches(k) {
			out = append(out, k)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func (r *refDB) pointCount() int {
	n := 0
	for _, pts := range r.series {
		n += len(pts)
	}
	return n
}

// TestDifferentialAgainstReference drives the sharded DB and the reference
// with the same randomized op sequence and compares every result.
func TestDifferentialAgainstReference(t *testing.T) {
	for _, shards := range []int{1, 4, 16} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			runDifferential(t, shards, ^uint64(0))
		})
	}
}

// runDifferential is TestDifferentialAgainstReference's body at one
// shard count, on stores whose key hashes are ANDed with mask (see
// openMasked).
func runDifferential(t *testing.T, shards int, mask uint64) {
	t.Helper()
	rng := simrand.New(2022)
	for trial := 0; trial < 20; trial++ {
		r := rng.StreamN("diff", shards*1000+trial)
		db := openMasked(t, "", tuning{shards: shards}, mask)
		ref := newRefDB()

		// A small key universe forces collisions on series,
		// dedup hits, and out-of-order rejections.
		datasets := []string{DatasetPlacementScore, DatasetPrice, DatasetInterruptFree}
		types := []string{"m5.xlarge", "c5.large", "r5.2xlarge", "p3.8xlarge"}
		regions := []string{"us-east-1", "eu-west-1"}
		azs := []string{"a", "b", ""}
		randKey := func() SeriesKey {
			return SeriesKey{
				Dataset: datasets[r.Intn(len(datasets))],
				Type:    types[r.Intn(len(types))],
				Region:  regions[r.Intn(len(regions))],
				AZ:      azs[r.Intn(len(azs))],
			}
		}
		randTime := func() time.Time {
			return t0.Add(time.Duration(r.Intn(10000)) * time.Second)
		}

		const ops = 600
		for op := 0; op < ops; op++ {
			switch r.Intn(6) {
			case 0, 1: // append (random time: may be rejected as out of order)
				k, at, v := randKey(), randTime(), float64(r.Intn(8))
				if p, ok := ref.last(k); ok && r.Intn(4) == 0 {
					at = p.At // grow an equal-timestamp run
				}
				gotErr := db.Append(k, at, v)
				wantErr := ref.append(k, at, v)
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("op %d: Append(%v, %v, %v) err=%v, ref err=%v", op, k, at, v, gotErr, wantErr)
				}
			case 2: // dedup append
				k, at, v := randKey(), randTime(), float64(r.Intn(4))
				got, gotErr := db.AppendIfChanged(k, at, v)
				want, wantErr := ref.appendIfChanged(k, at, v)
				if got != want || (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("op %d: AppendIfChanged(%v) = (%v, %v), ref (%v, %v)", op, k, got, gotErr, want, wantErr)
				}
			case 3: // batch append mirrored point-by-point onto the reference
				n := 1 + r.Intn(8)
				entries := make([]Entry, 0, n)
				for i := 0; i < n; i++ {
					entries = append(entries, Entry{Key: randKey(), At: randTime(), Value: float64(r.Intn(8))})
				}
				got, _ := db.AppendBatch(entries)
				want := 0
				for _, e := range entries {
					if ref.append(e.Key, e.At, e.Value) == nil {
						want++
					}
				}
				if got != want {
					t.Fatalf("op %d: AppendBatch stored %d, ref %d", op, got, want)
				}
			case 4: // range query
				k := randKey()
				from := randTime()
				to := from.Add(time.Duration(r.Intn(5000)) * time.Second)
				got := noerr(db.Query(k, from, to))
				want := ref.query(k, from, to)
				if len(got) != len(want) {
					t.Fatalf("op %d: Query(%v) = %d points, ref %d", op, k, len(got), len(want))
				}
				for i := range got {
					if !got[i].At.Equal(want[i].At) || got[i].Value != want[i].Value {
						t.Fatalf("op %d: Query(%v)[%d] = %v, ref %v", op, k, i, got[i], want[i])
					}
				}
			default: // point lookups
				k, at := randKey(), randTime()
				gv, gok := noerr2(db.ValueAt(k, at))
				wv, wok := ref.valueAt(k, at)
				if gok != wok || (gok && gv != wv) {
					t.Fatalf("op %d: ValueAt(%v, %v) = (%v, %v), ref (%v, %v)", op, k, at, gv, gok, wv, wok)
				}
				gp, gok2 := noerr2(db.Last(k))
				wp, wok2 := ref.last(k)
				if gok2 != wok2 || (gok2 && (gp.Value != wp.Value || !gp.At.Equal(wp.At))) {
					t.Fatalf("op %d: Last(%v) = (%v, %v), ref (%v, %v)", op, k, gp, gok2, wp, wok2)
				}
				// Step-walk folds over a window whose edges are
				// random, before all data, or exactly on a stored
				// point (possibly inside an equal-timestamp run).
				edge := func() time.Time {
					switch pts := ref.series[k]; r.Intn(3) {
					case 0:
						if len(pts) > 0 {
							return pts[r.Intn(len(pts))].At
						}
					case 1:
						return t0.Add(-time.Minute)
					}
					return randTime()
				}
				from, to := edge(), edge()
				if to.Before(from) {
					from, to = to, from
				}
				gm, gok3 := noerr2(db.WindowMean(k, from, to))
				wm, wok3 := ref.windowMean(k, from, to)
				if gok3 != wok3 || math.Float64bits(gm) != math.Float64bits(wm) {
					t.Fatalf("op %d: WindowMean(%v, %v, %v) = (%v, %v), ref (%v, %v)", op, k, from, to, gm, gok3, wm, wok3)
				}
				step := time.Duration(60+r.Intn(900)) * time.Second
				gg, wg := noerr(db.Grid(k, from, to, step)), ref.grid(k, from, to, step)
				if len(gg) != len(wg) {
					t.Fatalf("op %d: Grid(%v, %v, %v) length %d, ref %d", op, k, from, to, len(gg), len(wg))
				}
				for i := range wg {
					if math.Float64bits(gg[i]) != math.Float64bits(wg[i]) {
						t.Fatalf("op %d: Grid(%v, %v, %v)[%d] = %v, ref %v", op, k, from, to, i, gg[i], wg[i])
					}
				}
			}
		}

		// Final whole-store comparison.
		if got, want := db.PointCount(), ref.pointCount(); got != want {
			t.Fatalf("PointCount = %d, ref %d", got, want)
		}
		if got, want := db.SeriesCount(), len(ref.series); got != want {
			t.Fatalf("SeriesCount = %d, ref %d", got, want)
		}
		for _, f := range []KeyFilter{{}, {Dataset: DatasetPrice}, {Region: "us-east-1"}, {Dataset: DatasetPlacementScore, AZ: "a"}} {
			got, want := db.Keys(f), ref.keys(f)
			if len(got) != len(want) {
				t.Fatalf("Keys(%+v) = %d keys, ref %d", f, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("Keys(%+v)[%d] = %v, ref %v", f, i, got[i], want[i])
				}
			}
		}
		// Every series' full contents, including window means.
		for k, pts := range ref.series {
			got := noerr(db.Query(k, t0.Add(-time.Hour), t0.Add(20000*time.Second)))
			if len(got) != len(pts) {
				t.Fatalf("series %v: %d points, ref %d", k, len(got), len(pts))
			}
			from := t0
			to := t0.Add(10000 * time.Second)
			gm, gok := noerr2(db.WindowMean(k, from, to))
			wm, wok := ref.windowMean(k, from, to)
			if gok != wok || math.Float64bits(gm) != math.Float64bits(wm) {
				t.Fatalf("series %v: WindowMean = (%v, %v), ref (%v, %v)", k, gm, gok, wm, wok)
			}
		}
	}
}
