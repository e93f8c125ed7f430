package archive

// Query-time resolution selection.
//
// `resolution=` on /api/v1/query picks what a page reads: `raw` reads the
// raw series as before, `1h`/`1d` read 1h or 1d buckets that the tsdb
// folds from the raw points at read time (see internal/tsdb/rollup.go), so
// every store serves them, and `auto` picks from the window span so
// long-horizon dashboards get buckets without asking. The aggregate
// defaults to mean; `agg=` selects min/max/last.
//
// Resolution and aggregate are normalized to their effective values
// ("raw", "1h", "1d"; the aggregate to mean at raw, which ignores it)
// before the cache key and cursor scope are built: an `auto` request
// whose window resolves to 1h shares cache entries — and cursor tokens —
// with the equivalent explicit request, and `agg=max` at raw shares them
// with the bare raw request, instead of fragmenting both.
//
// Responses are keyed by the raw series key regardless of resolution,
// which is also the key a tier is read by, so clients correlate bucket
// pages against raw ones by the same key.

import (
	"time"

	"repro/internal/tsdb"
)

// Auto-pick thresholds: windows of at least autoDaily span read the 1d
// tier, at least autoHourly the 1h tier, anything shorter raw. Unbounded
// windows normalize to a span of millennia and land on 1d.
const (
	autoHourly = 48 * time.Hour
	autoDaily  = 60 * 24 * time.Hour
)

// pointSource is what a page reads points from: the raw store
// (*tsdb.DB) or one of its rollup tiers (tsdb.Tier), both addressed by
// raw series key and keyset position.
type pointSource interface {
	CountAfter(k tsdb.SeriesKey, after time.Time, seq int, to time.Time) (int, error)
	QueryAfter(k tsdb.SeriesKey, after time.Time, seq int, to time.Time, max int) ([]tsdb.Point, error)
}

// readPlan is a resolved read target.
type readPlan struct {
	src pointSource
	// res is the effective resolution ("raw", "1h", "1d") after auto
	// resolution; the page carries it to the X-Resolution header.
	res string
}

// resolveRead validates req's Resolution/Agg and resolves auto against
// the window, returning the read plan rooted at db (the store captured
// at the query's entry — the plan must not outlive a swap into a
// different store). It normalizes req.Resolution and req.Agg in place so
// cache keys and cursor scopes are built from the effective values.
// Unknown values fail naming the parameter.
func resolveRead(db *tsdb.DB, req *QueryRequest, from, to time.Time) (readPlan, error) {
	agg := tsdb.AggMean
	if req.Agg != "" {
		a, ok := tsdb.ParseAgg(req.Agg)
		if !ok {
			return readPlan{}, badParam("agg", "archive: agg must be one of min, max, mean, last, got %q", req.Agg)
		}
		agg = a
	}

	res := req.Resolution
	switch res {
	case "", "raw":
		res = "raw"
	case "auto":
		switch span := to.Sub(from); {
		case span >= autoDaily:
			res = "1d"
		case span >= autoHourly:
			res = "1h"
		default:
			res = "raw"
		}
	case "1h", "1d":
	default:
		return readPlan{}, badParam("resolution", "archive: resolution must be one of raw, 1h, 1d, auto, got %q", req.Resolution)
	}
	req.Resolution = res
	if res == "raw" {
		req.Agg = tsdb.AggMean.String()
		return readPlan{src: db, res: res}, nil
	}
	req.Agg = agg.String()
	d, _ := tsdb.ParseResolution(res)
	tier, _ := db.Tier(d, agg)
	return readPlan{src: tier, res: res}, nil
}
