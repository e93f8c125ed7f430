package tsdb

// Rollups: min/max/mean/last at 1h and 1d, folded at read time.
//
// Long-horizon queries (the paper's month-scale Figures 6/7 views) read a
// series downsampled into buckets through Tier. A bucket [t, t+res) holds
// the aggregates of the points stored inside it: min, max, last, and the
// mean of those points summed in time order. An interval with no stored
// point has no bucket. Nothing is materialized: a read captures the
// series' view like any raw read and folds the points whose buckets it
// serves, so every store — memory-only, durable, sealing or not — serves
// every bucket, the hot tail's included. Appends are monotone per series,
// so only the bucket holding a series' newest point can still change; the
// serving layer's result cache guards folded pages with the same store
// generation as raw ones.
//
// Folding the same points in the same order reproduces a bucket bit for
// bit, so a bucket over sealed history reads the same whether its points
// are hot, cold, or split across the boundary.

import (
	"errors"
	"fmt"
	"time"
)

// Rollup resolutions: the bucket widths Tier folds into.
const (
	Res1h = time.Hour
	Res1d = 24 * time.Hour
)

// ParseResolution parses a canonical rollup resolution name. It reports
// false for anything else — including "raw" and "auto", which are query
// protocol concepts, not bucket widths.
func ParseResolution(s string) (time.Duration, bool) {
	switch s {
	case "1h":
		return Res1h, true
	case "1d":
		return Res1d, true
	}
	return 0, false
}

// Agg identifies one downsampling aggregate.
type Agg uint8

const (
	AggMin Agg = iota
	AggMax
	AggMean
	AggLast
)

func (a Agg) String() string {
	switch a {
	case AggMin:
		return "min"
	case AggMax:
		return "max"
	case AggMean:
		return "mean"
	case AggLast:
		return "last"
	}
	return fmt.Sprintf("agg(%d)", uint8(a))
}

// ParseAgg parses a canonical aggregate name.
func ParseAgg(s string) (Agg, bool) {
	switch s {
	case "min":
		return AggMin, true
	case "max":
		return AggMax, true
	case "mean":
		return AggMean, true
	case "last":
		return AggLast, true
	}
	return 0, false
}

// bucket is one rollup bucket [start, start+res): the aggregates of the
// points stored inside it, indexed by Agg.
type bucket struct {
	start int64 // unix nanoseconds, a multiple of the resolution
	v     [AggLast + 1]float64
}

// bucketStart floors a unix-nano timestamp to its bucket's start.
func bucketStart(at int64, res time.Duration) int64 {
	r := int64(res)
	m := at % r
	if m < 0 {
		m += r
	}
	return at - m
}

// Tier is one rollup tier of a store — a resolution and an aggregate —
// read by raw series key through the raw reads' positions: CountAfter,
// QueryAfter and Query mean what they mean on DB, over the series'
// buckets instead of its points. Bucket timestamps are unique per series,
// so a position's sequence can only skip the bucket at exactly its
// timestamp.
type Tier struct {
	db  *DB
	res time.Duration
	agg Agg
}

// Tier returns the tier holding agg at res. ok is false when res is not
// Res1h or Res1d, or agg is not an Agg.
func (db *DB) Tier(res time.Duration, agg Agg) (Tier, bool) {
	if (res != Res1h && res != Res1d) || agg > AggLast {
		return Tier{}, false
	}
	return Tier{db: db, res: res, agg: agg}, true
}

// bounds captures k's view and returns the global index window [lo, hi)
// of the points that fold into the buckets after the position
// (after, seq) and starting at or before to. Both predicates are
// monotone in time because bucketStart is, and both are true of any
// point past the last bucket served, whose last nanosecond bounds
// becomes r's horizon.
func (t Tier) bounds(k SeriesKey, after time.Time, seq int, to time.Time, r *coldRead) (v seriesView, lo, hi int, err error) {
	v = t.db.view(k)
	a, e := unixNanos(after), unixNanos(to)
	// The sum wraps at the int64 limits, as bucketStart does, so it is
	// exact unless the bucket's end lies past them.
	m := max(a, e)
	r.horizon = noHorizon
	if end := bucketStart(m, t.res) + int64(t.res) - 1; end >= m {
		r.horizon = end
	}
	lo, err = t.db.searchView(v, r, func(ns int64) bool {
		s := bucketStart(ns, t.res)
		return s > a || (s == a && seq == 0)
	})
	if err == nil {
		hi, err = t.db.searchView(v, r, func(ns int64) bool { return bucketStart(ns, t.res) > e })
	}
	return v, lo, hi, err
}

// CountAfter is DB.CountAfter over the tier's buckets: it counts the
// bucket starts among the window's points without folding them.
func (t Tier) CountAfter(k SeriesKey, after time.Time, seq int, to time.Time) (int, error) {
	var r coldRead
	defer r.release()
	v, lo, hi, err := t.bounds(k, after, seq, to, &r)
	if err != nil || lo >= hi {
		return 0, err
	}
	n, cur := 0, int64(0)
	err = t.db.iterateView(v, &r, lo, hi, func(pts []sample) error {
		for _, p := range pts {
			if bs := bucketStart(p.ns, t.res); n == 0 || bs != cur {
				n, cur = n+1, bs
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return n, nil
}

// QueryAfter is DB.QueryAfter over the tier's buckets: each bucket is one
// point at its start carrying the tier's aggregate.
func (t Tier) QueryAfter(k SeriesKey, after time.Time, seq int, to time.Time, max int) ([]Point, error) {
	var r coldRead
	defer r.release()
	v, lo, hi, err := t.bounds(k, after, seq, to, &r)
	if err != nil || lo >= hi {
		return nil, err
	}
	bs, err := t.db.foldBuckets(v, &r, t.res, lo, hi, max)
	if err != nil || len(bs) == 0 {
		return nil, err
	}
	out := make([]Point, len(bs))
	for i := range bs {
		out[i] = sample{ns: bs[i].start, v: bs[i].v[t.agg]}.point()
	}
	return out, nil
}

// Query returns the tier's points within [from, to], oldest first.
func (t Tier) Query(k SeriesKey, from, to time.Time) ([]Point, error) {
	return t.QueryAfter(k, from, 0, to, -1)
}

// errFoldFull stops foldBuckets' walk once it holds max buckets.
var errFoldFull = errors.New("tsdb: fold holds max buckets")

// foldBuckets folds the view's points [lo, hi) into res buckets for read
// r, oldest first, stopping after max of them (negative: all).
func (db *DB) foldBuckets(v seriesView, r *coldRead, res time.Duration, lo, hi, max int) ([]bucket, error) {
	var (
		out  []bucket
		cur  bucket
		sum  float64
		n    int64
		open bool
	)
	flush := func() {
		if open {
			cur.v[AggMean] = sum / float64(n)
			out = append(out, cur)
		}
	}
	err := db.iterateView(v, r, lo, hi, func(pts []sample) error {
		for _, p := range pts {
			bs := bucketStart(p.ns, res)
			if !open || bs != cur.start {
				flush()
				if len(out) == max {
					open = false
					return errFoldFull
				}
				cur = bucket{start: bs, v: [AggLast + 1]float64{p.v, p.v, 0, p.v}}
				sum, n, open = p.v, 1, true
				continue
			}
			if p.v < cur.v[AggMin] {
				cur.v[AggMin] = p.v
			}
			if p.v > cur.v[AggMax] {
				cur.v[AggMax] = p.v
			}
			sum += p.v
			cur.v[AggLast] = p.v
			n++
		}
		return nil
	})
	if err != nil && err != errFoldFull {
		return nil, err
	}
	flush()
	return out, nil
}
