package archive

// Pagination over the query result's point stream.
//
// A query's unpaginated result is a deterministic sequence: series in
// canonical key order (Keys sorts them), points within each series in
// ascending time (the store's append order). Pagination windows that
// flattened stream — a page with offset O and limit L contains points
// [O, O+L) of it, regrouped under their series keys — so concatenating
// pages 0, L, 2L, ... reproduces the unpaginated response exactly, and a
// series whose points straddle a page boundary appears in both pages
// with disjoint point ranges.
//
// The page is located without materializing the window: a first fan-out
// counts in-window points per series (two binary searches each, no
// copying), the page boundaries are mapped onto per-series sub-ranges,
// and a second fan-out copies only the points the page contains. A huge
// window queried with limit=1000 therefore allocates ~1000 points, not
// the window.
//
// Pages are consistent with each other on a quiescent store. Writes
// between two page requests can grow series inside the window (the
// archive is append-only, so points never move or disappear); offsets
// past the growth point then shift, exactly as they would for any
// offset-paginated API over live data.

import (
	"fmt"
	"time"

	"repro/internal/tsdb"
)

// QueryPage is one page of a query's point stream.
type QueryPage struct {
	// Series holds the page's points grouped by series, canonical key
	// order, ascending time within each series — the same order as the
	// unpaginated response, restricted to the page window.
	Series []SeriesResult `json:"series"`
	// TotalPoints is the full (unpaginated) result's point count.
	TotalPoints int `json:"totalPoints"`
	// Offset and Limit echo the request (limit 0 = to the end).
	Offset int `json:"offset"`
	Limit  int `json:"limit"`
	// NextOffset is the offset of the page after this one, or -1 when
	// this page exhausts the stream.
	NextOffset int `json:"nextOffset"`
}

// pageSpan maps one slice of the page window onto a series: take n
// in-window points of keys[key] after skipping the first skip.
type pageSpan struct {
	key  int
	skip int
	n    int
}

// QueryPaged returns the page of the query's point stream selected by
// req.Offset and req.Limit (limit 0 = everything from the offset on).
// The page's cache entry is keyed on the page window as well as the
// filter, so distinct pages never collide.
func (s *Service) QueryPaged(req QueryRequest) (*QueryPage, error) {
	if req.Limit < 0 || req.Offset < 0 {
		return nil, fmt.Errorf("archive: negative limit or offset")
	}
	from, to, err := s.checkWindow(req)
	if err != nil {
		return nil, err
	}
	// The offset path ignores a cursor; zero it so a stray token can't
	// fragment the cache (the HTTP layer rejects the combination).
	req.Cursor = ""
	db, epoch := s.storeRef()
	plan, err := resolveRead(db, &req, from, to)
	if err != nil {
		return nil, err
	}
	ck := cacheKey("page", req)
	if e := s.cache.get(ck, epoch, db.KeyGeneration(), db.ShardGenerations()); e != nil {
		return e.val.(*QueryPage), nil
	}
	// Concurrent identical cold page requests collapse onto one
	// computation (see singleflight.go).
	v, _, err := s.flight.do(ck, func() (any, *cacheEntry, error) { return s.pageCold(db, epoch, req, plan, ck, from, to) })
	if err != nil {
		return nil, err
	}
	return v.(*QueryPage), nil
}

// pageCold is the leader's computation for a QueryPaged cache miss.
func (s *Service) pageCold(db *tsdb.DB, epoch uint64, req QueryRequest, plan readPlan, ck string, from, to time.Time) (any, *cacheEntry, error) {
	keyGen, genVec := db.KeyGeneration(), db.ShardGenerations()
	keys, err := matchedKeys(db, req)
	if err != nil {
		return nil, nil, err
	}
	// Pass 1: count in-window points per series (no copying).
	counts := make([]int, len(keys))
	errs := make([]error, len(keys))
	s.fanOut(len(keys), func(i int) {
		counts[i], errs[i] = plan.db.CountRange(plan.key(keys[i]), from, to)
	})
	if err := firstErr(errs); err != nil {
		return nil, nil, err
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	// Map the page window [lo, hi) of the flattened stream onto
	// per-series spans. Compare the limit against the remainder rather
	// than lo+limit against total: lo+limit can overflow for huge limits
	// and a wrapped-negative hi would return an empty page.
	lo, hi := req.Offset, total
	if req.Limit > 0 && req.Limit < total-lo {
		hi = lo + req.Limit
	}
	var spans []pageSpan
	cum := 0
	for i, c := range counts {
		if sLo, sHi := max(lo, cum), min(hi, cum+c); sLo < sHi {
			spans = append(spans, pageSpan{key: i, skip: sLo - cum, n: sHi - sLo})
		}
		cum += c
	}
	// Pass 2: copy only the page's points.
	slots := make([][]tsdb.Point, len(spans))
	spanErrs := make([]error, len(spans))
	s.fanOut(len(spans), func(j int) {
		sp := spans[j]
		slots[j], spanErrs[j] = plan.db.QueryRange(plan.key(keys[sp.key]), from, to, sp.skip, sp.n)
	})
	if err := firstErr(spanErrs); err != nil {
		return nil, nil, err
	}
	page := &QueryPage{
		Series:      make([]SeriesResult, 0, len(spans)),
		TotalPoints: total,
		Offset:      req.Offset,
		Limit:       req.Limit,
		NextOffset:  -1,
	}
	points := 0
	for j, sp := range spans {
		if len(slots[j]) == 0 {
			continue
		}
		points += len(slots[j])
		page.Series = append(page.Series, SeriesResult{Key: keys[sp.key], Points: slots[j]})
	}
	if hi < total {
		page.NextOffset = hi
	}
	if points <= maxCachedPoints {
		dep, gens := depGenerations(db, keys, genVec)
		s.cache.put(ck, epoch, keyGen, dep, gens, page)
	}
	// No entry: offset pages are always streamed.
	return page, nil, nil
}
