package archive

// Tests for keyset-cursor pagination. The two-sided harness the cursor
// design demands: a differential side (concatenated cursor pages equal
// the unpaginated response and a reference read straight off the store,
// on a quiescent store) and a stability side (a writer appending between
// every page request — the cursor walk delivers every walk-start point
// exactly once, with no duplicates).

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/tsdb"
)

var cursorT0 = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

// cursorStoreKey returns the i-th key of the hand-built cursor test
// store; the zero-padded type makes canonical order match i order.
func cursorStoreKey(i int) tsdb.SeriesKey {
	return tsdb.SeriesKey{
		Dataset: tsdb.DatasetPlacementScore,
		Type:    fmt.Sprintf("t%02d.large", i),
		Region:  "us-east-1",
		AZ:      "us-east-1a",
	}
}

// buildCursorStore hand-builds an archive of nSeries series with nPoints
// points each at a 1-minute cadence, so tests control exactly where
// concurrent appends land in the flattened stream.
func buildCursorStore(t testing.TB, nSeries, nPoints int) (*Service, *tsdb.DB) {
	t.Helper()
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < nSeries; s++ {
		k := cursorStoreKey(s)
		for i := 0; i < nPoints; i++ {
			if err := db.Append(k, cursorT0.Add(time.Duration(i)*time.Minute), float64(s*1000+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
	return NewService(db, catalog.Compact(1)), db
}

// cursorWalk pages through the stream via NextCursor, returning the
// concatenated flattened points. between, when non-nil, runs after every
// page request (the live-appends hook).
func cursorWalk(t testing.TB, s *Service, req QueryRequest, limit int, between func(page int)) []flatPoint {
	t.Helper()
	var got []flatPoint
	req.Limit = limit
	req.Cursor = ""
	for page := 0; ; page++ {
		if page > 100000 {
			t.Fatal("cursor walk did not terminate")
		}
		cp, err := s.QueryCursor(req)
		if err != nil {
			t.Fatalf("cursor page %d: %v", page, err)
		}
		pts := flatten(cp.Series)
		if limit > 0 && len(pts) > limit {
			t.Fatalf("cursor page %d holds %d points, limit %d", page, len(pts), limit)
		}
		got = append(got, pts...)
		if between != nil {
			between(page)
		}
		if cp.NextCursor == "" {
			return got
		}
		req.Cursor = cp.NextCursor
	}
}

// flatPoint is one point of a result rendered as the flattened
// deterministic point stream: series in canonical key order, points in
// time order within each.
type flatPoint struct {
	key string
	p   tsdb.Point
}

func flatten(series []SeriesResult) []flatPoint {
	var out []flatPoint
	for _, sr := range series {
		k := sr.Key.String()
		for _, p := range sr.Points {
			out = append(out, flatPoint{key: k, p: p})
		}
	}
	return out
}

// naiveStream is the reference the service's pages are held against: the
// filter's whole point stream read straight off the store, series by
// series, with no service code on the way.
func naiveStream(t testing.TB, db *tsdb.DB, f tsdb.KeyFilter) []flatPoint {
	t.Helper()
	var out []flatPoint
	for _, k := range db.Keys(f) {
		pts, err := db.Query(k, time.Time{}, time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range pts {
			out = append(out, flatPoint{key: k.String(), p: p})
		}
	}
	return out
}

// naivePages slices the reference stream into the pages a walk at limit
// must deliver.
func naivePages(stream []flatPoint, limit int) [][]flatPoint {
	var pages [][]flatPoint
	for len(stream) > limit {
		pages = append(pages, stream[:limit])
		stream = stream[limit:]
	}
	return append(pages, stream)
}

// countOccurrences maps each flattened point to how often it appears.
func countOccurrences(pts []flatPoint) map[flatPoint]int {
	m := make(map[flatPoint]int, len(pts))
	for _, p := range pts {
		m[p]++
	}
	return m
}

// TestQueryCursorConcatenationEqualsUnpaginated is the differential
// side: on a quiescent store, concatenated cursor pages reproduce the
// unpaginated response exactly, for page sizes from degenerate to
// oversized, and agree page by page with the reference stream sliced at
// the limit.
func TestQueryCursorConcatenationEqualsUnpaginated(t *testing.T) {
	s, _ := buildArchive(t)
	req := QueryRequest{Dataset: tsdb.DatasetPlacementScore}
	full, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	want := flatten(full)
	if len(want) < 50 {
		t.Fatalf("archive too small for a pagination test: %d points", len(want))
	}
	naive := naiveStream(t, s.DB(), tsdb.KeyFilter{Dataset: req.Dataset})
	if len(naive) != len(want) {
		t.Fatalf("unpaginated query returned %d points, the store holds %d", len(want), len(naive))
	}
	for i := range want {
		if want[i] != naive[i] {
			t.Fatalf("unpaginated point %d = %+v, the store holds %+v", i, want[i], naive[i])
		}
	}
	for _, limit := range []int{1, 7, 64, len(want) + 10} {
		got := cursorWalk(t, s, req, limit, nil)
		if len(got) != len(want) {
			t.Fatalf("limit %d: concatenated %d points, want %d", limit, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("limit %d: point %d differs: got %+v want %+v", limit, i, got[i], want[i])
			}
		}
		// Page by page against the reference: every page but the last is
		// full, and a walk takes exactly as many pages as the stream needs.
		preq := req
		preq.Limit = limit
		for pi, wantPage := range naivePages(naive, limit) {
			cp, err := s.QueryCursor(preq)
			if err != nil {
				t.Fatalf("limit %d page %d: %v", limit, pi, err)
			}
			gotPage := flatten(cp.Series)
			if len(gotPage) != len(wantPage) {
				t.Fatalf("limit %d page %d: %d points, the reference page holds %d", limit, pi, len(gotPage), len(wantPage))
			}
			for i := range wantPage {
				if gotPage[i] != wantPage[i] {
					t.Fatalf("limit %d page %d point %d = %+v, reference %+v", limit, pi, i, gotPage[i], wantPage[i])
				}
			}
			if last := (pi+1)*limit >= len(naive); last != (cp.NextCursor == "") {
				t.Fatalf("limit %d page %d: NextCursor %q, last page %v", limit, pi, cp.NextCursor, last)
			}
			preq.Cursor = cp.NextCursor
		}
	}
	// Limit 0 = everything after the cursor in one page.
	got := cursorWalk(t, s, req, 0, nil)
	if len(got) != len(want) {
		t.Fatalf("limit 0: %d points, want %d", len(got), len(want))
	}
}

// TestCursorStableUnderLiveAppends is the headline stability test with a
// deterministic interleave: between every page request the "collector"
// appends to the lowest-sorting series, which the walk has already
// passed after the first few pages. The cursor walk must deliver every
// point that existed at walk start exactly once with no duplicates at
// all — counting positions from the stream's start would re-read the
// points those appends shift.
func TestCursorStableUnderLiveAppends(t *testing.T) {
	const (
		nSeries = 6
		nPoints = 30
		limit   = 10
		growth  = 3
	)
	appendBurst := func(db *tsdb.DB, round int) {
		k := cursorStoreKey(0)
		for j := 0; j < growth; j++ {
			at := cursorT0.Add(time.Duration(nPoints+round*growth+j) * time.Minute)
			if err := db.Append(k, at, float64(9000+round*growth+j)); err != nil {
				t.Fatal(err)
			}
		}
	}
	req := QueryRequest{Dataset: tsdb.DatasetPlacementScore}

	// Cursor walk under appends.
	s, db := buildCursorStore(t, nSeries, nPoints)
	full, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	start := flatten(full)
	got := cursorWalk(t, s, req, limit, func(round int) { appendBurst(db, round) })
	occ := countOccurrences(got)
	for _, p := range start {
		if occ[p] != 1 {
			t.Fatalf("cursor walk delivered walk-start point %+v %d times, want exactly 1", p, occ[p])
		}
	}
	for p, n := range occ {
		if n != 1 {
			t.Fatalf("cursor walk duplicated point %+v (%d times)", p, n)
		}
	}
	// The walk preserves the flattened (key, time) order across pages.
	for i := 1; i < len(got); i++ {
		if got[i].key < got[i-1].key ||
			(got[i].key == got[i-1].key && got[i].p.At.Before(got[i-1].p.At)) {
			t.Fatalf("cursor walk out of order at %d: %+v after %+v", i, got[i], got[i-1])
		}
	}
}

// TestCursorWalkConcurrentWriter drives the cursor walk against a truly
// concurrent writer (run under -race in CI): batches land in existing
// and brand-new series while pages stream out. Every point that existed
// when the walk started must appear exactly once, and nothing may appear
// twice.
func TestCursorWalkConcurrentWriter(t *testing.T) {
	const (
		nSeries = 8
		nPoints = 200
		limit   = 50
		rounds  = 300
	)
	s, db := buildCursorStore(t, nSeries, nPoints)
	req := QueryRequest{Dataset: tsdb.DatasetPlacementScore}
	full, err := s.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	start := flatten(full)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			batch := make([]tsdb.Entry, 0, nSeries+1)
			at := cursorT0.Add(time.Duration(nPoints+r) * time.Minute)
			for sIdx := 0; sIdx < nSeries; sIdx++ {
				batch = append(batch, tsdb.Entry{Key: cursorStoreKey(sIdx), At: at, Value: float64(r)})
			}
			// A brand-new series every few rounds: a new series moves the
			// store generation under the walk.
			if r%10 == 0 {
				k := cursorStoreKey(nSeries + r/10)
				batch = append(batch, tsdb.Entry{Key: k, At: at, Value: float64(r)})
			}
			if _, err := db.AppendBatch(batch); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()
	got := cursorWalk(t, s, req, limit, nil)
	wg.Wait()

	occ := countOccurrences(got)
	for _, p := range start {
		if occ[p] != 1 {
			t.Fatalf("concurrent walk delivered walk-start point %+v %d times, want exactly 1", p, occ[p])
		}
	}
	for p, n := range occ {
		if n != 1 {
			t.Fatalf("concurrent walk duplicated point %+v (%d times)", p, n)
		}
	}
}

// TestCursorWalkEqualTimestampRuns: archives written by pre-resume-fix
// builds contain equal-timestamp points within a series, and the store
// accepts them by design. A page boundary falling inside such a run must
// resume at the run's remainder — the token's sequence component — not
// silently skip it. Walked at every page size that can split the runs.
func TestCursorWalkEqualTimestampRuns(t *testing.T) {
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	// Two series, each with runs of equal timestamps: values make every
	// point distinct so exact-once is checkable per point.
	for s := 0; s < 2; s++ {
		k := cursorStoreKey(s)
		v := 0
		for i := 0; i < 5; i++ {
			at := cursorT0.Add(time.Duration(i) * time.Minute)
			for r := 0; r < 3; r++ { // run of 3 per timestamp
				if err := db.Append(k, at, float64(s*1000+v)); err != nil {
					t.Fatal(err)
				}
				v++
			}
		}
	}
	svc := NewService(db, catalog.Compact(1))
	req := QueryRequest{Dataset: tsdb.DatasetPlacementScore}
	full, err := svc.Query(req)
	if err != nil {
		t.Fatal(err)
	}
	want := flatten(full)
	if len(want) != 30 {
		t.Fatalf("store holds %d points, want 30", len(want))
	}
	for limit := 1; limit <= len(want)+1; limit++ {
		got := cursorWalk(t, svc, req, limit, nil)
		if len(got) != len(want) {
			t.Fatalf("limit %d: walked %d points, want %d — a boundary inside an equal-timestamp run dropped or duplicated points", limit, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("limit %d: point %d = %+v, want %+v", limit, i, got[i], want[i])
			}
		}
	}
}

// TestCursorTokenValidation: tokens are opaque but not trusted —
// malformed encodings and tokens minted for a different filter or
// window are rejected with ErrBadCursor, never silently reinterpreted.
func TestCursorTokenValidation(t *testing.T) {
	s, _ := buildCursorStore(t, 3, 10)
	req := QueryRequest{Dataset: tsdb.DatasetPlacementScore, Limit: 5}
	p0, err := s.QueryCursor(req)
	if err != nil {
		t.Fatal(err)
	}
	if p0.NextCursor == "" {
		t.Fatal("first page exhausted a 30-point stream at limit 5")
	}

	// The genuine token resumes; the same token against a different
	// filter or window must not.
	resume := req
	resume.Cursor = p0.NextCursor
	if _, err := s.QueryCursor(resume); err != nil {
		t.Fatalf("genuine token rejected: %v", err)
	}
	foreignFilter := resume
	foreignFilter.Type = cursorStoreKey(1).Type
	if _, err := s.QueryCursor(foreignFilter); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("token accepted against a different filter: %v", err)
	}
	foreignWindow := resume
	foreignWindow.From = cursorT0.Add(time.Minute)
	if _, err := s.QueryCursor(foreignWindow); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("token accepted against a different window: %v", err)
	}

	// A tampered token that keeps the right scope hash but rewrites the
	// timestamp to before the window must not leak pre-window points.
	winReq := QueryRequest{Dataset: req.Dataset, From: cursorT0.Add(2 * time.Minute), Limit: 5}
	tampered := winReq
	tampered.Cursor = encodeCursor(cursorScope(winReq), cursorStoreKey(0).String(), cursorT0, 0)
	if _, err := s.QueryCursor(tampered); !errors.Is(err, ErrBadCursor) {
		t.Fatalf("tampered out-of-window timestamp accepted: %v", err)
	}

	// Malformed encodings.
	for name, tok := range map[string]string{
		"not base64":    "!!!not-base64!!!",
		"too short":     base64.RawURLEncoding.EncodeToString([]byte{cursorVersion, 1, 2}),
		"bad key":       encodeCursor(cursorScope(QueryRequest{Dataset: req.Dataset}), "notakey", cursorT0, 0),
		"wrong version": base64.RawURLEncoding.EncodeToString(append([]byte{99}, make([]byte, 30)...)),
	} {
		bad := req
		bad.Cursor = tok
		if _, err := s.QueryCursor(bad); !errors.Is(err, ErrBadCursor) {
			t.Errorf("%s: err = %v, want ErrBadCursor", name, err)
		}
	}
}

// TestQueryCursorCached: a repeated cursor page is served from the
// generation-guarded cache, distinct cursors never collide, and a stored
// point invalidates.
func TestQueryCursorCached(t *testing.T) {
	s, db := buildCursorStore(t, 4, 20)
	req := QueryRequest{Dataset: tsdb.DatasetPlacementScore, Limit: 7}
	p0, err := s.QueryCursor(req)
	if err != nil {
		t.Fatal(err)
	}
	req1 := req
	req1.Cursor = p0.NextCursor
	p1, err := s.QueryCursor(req1)
	if err != nil {
		t.Fatal(err)
	}
	f0, f1 := flatten(p0.Series), flatten(p1.Series)
	if len(f0) == 0 || len(f1) == 0 || f0[0] == f1[0] {
		t.Fatalf("pages collide: %+v vs %+v", f0, f1)
	}
	hits := metric(t, s.reg, "spotlake_cache_hits_total")
	again, err := s.QueryCursor(req1)
	if err != nil {
		t.Fatal(err)
	}
	if after := metric(t, s.reg, "spotlake_cache_hits_total"); after != hits+1 {
		t.Fatalf("repeated cursor page missed the cache: %v -> %v hits", hits, after)
	}
	if len(flatten(again.Series)) != len(f1) {
		t.Fatal("cached cursor page differs from the original")
	}
	// A write to a shard the page depends on invalidates it.
	if err := db.Append(cursorStoreKey(1), cursorT0.Add(24*time.Hour), 5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.QueryCursor(req1); err != nil {
		t.Fatal(err)
	}
	if metric(t, s.reg, "spotlake_cache_invalidations_total") == 0 {
		t.Fatalf("write did not invalidate the cursor page: %v", s.reg.Sections()["cache"])
	}
}

// TestQueryCursorHTTP walks the pages through the HTTP layer: an empty
// cursor parameter starts the walk, X-Next-Cursor/Link drive it, the
// concatenation matches the unpaginated body, and stale/foreign/mixed
// parameters are rejected with 400 and a usable message.
func TestQueryCursorHTTP(t *testing.T) {
	s, _ := buildArchive(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	getJSON := func(url string) (*http.Response, []SeriesResult) {
		t.Helper()
		resp, err := http.Get(srv.URL + url)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out []SeriesResult
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil && resp.StatusCode == http.StatusOK {
			t.Fatalf("%s: body not a series array: %v", url, err)
		}
		return resp, out
	}

	resp, full := getJSON("/api/v1/query?dataset=sps")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unpaginated query: %d", resp.StatusCode)
	}
	want := flatten(full)

	const limit = 23
	var got []flatPoint
	url := "/api/v1/query?dataset=sps&limit=" + strconv.Itoa(limit) + "&cursor="
	for pages := 0; ; pages++ {
		if pages > 10000 {
			t.Fatal("HTTP cursor walk did not terminate")
		}
		resp, series := getJSON(url)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cursor page %d: status %d", pages, resp.StatusCode)
		}
		got = append(got, flatten(series)...)
		next := resp.Header.Get("X-Next-Cursor")
		if next == "" {
			break
		}
		link := resp.Header.Get("Link")
		if link == "" || !strings.Contains(link, `rel="next"`) {
			t.Fatalf("page %d: next cursor without a Link header (%q)", pages, link)
		}
		// Follow the ready-made Link URL rather than building our own,
		// proving it round-trips the token unescaped-safely.
		url = strings.TrimSuffix(strings.TrimPrefix(strings.Split(link, ">")[0], "<"), ">")
	}
	if len(got) != len(want) {
		t.Fatalf("HTTP cursor pages concatenate to %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("HTTP cursor point %d differs: got %+v want %+v", i, got[i], want[i])
		}
	}

	// Mixed and malformed cursor parameters.
	for _, u := range []string{
		"/api/v1/query?dataset=sps&cursor=&offset=5",
		"/api/v1/query?dataset=sps&cursor=%21%21%21",
		"/api/v1/query?dataset=sps&cursor=" + encodeCursor(12345, "a|b|c|d", cursorT0, 0),
	} {
		resp, err := http.Get(srv.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", u, resp.StatusCode)
		}
		if !strings.Contains(strings.ToLower(string(body)), "cursor") {
			t.Errorf("%s: error body %q does not mention the cursor", u, body)
		}
	}
}

// TestQueryPagedConcurrentAppendRace pins a page's two passes (count,
// then copy) against a concurrent writer: the passes race its appends,
// and a page must still be exactly the points its position names — the
// store is append-only, so the first pages of a walk never change
// however much lands behind them. Run under -race in CI.
func TestQueryPagedConcurrentAppendRace(t *testing.T) {
	const (
		nSeries = 8
		nPoints = 100
		rounds  = 300
	)
	s, db := buildCursorStore(t, nSeries, nPoints)
	req := QueryRequest{Dataset: tsdb.DatasetPlacementScore}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for r := 0; r < rounds; r++ {
			batch := make([]tsdb.Entry, 0, nSeries)
			at := cursorT0.Add(time.Duration(nPoints+r) * time.Minute)
			for i := 0; i < nSeries; i++ {
				batch = append(batch, tsdb.Entry{Key: cursorStoreKey(i), At: at, Value: float64(10_000 + r)})
			}
			if _, err := db.AppendBatch(batch); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
		}
	}()

	for i := 0; i < 400; i++ {
		preq := req
		preq.Limit = 1 + i%17
		// Two pages from the head of the stream: series 0's first points,
		// whose values buildCursorStore set to their index.
		for page := 0; page < 2; page++ {
			cp, err := s.QueryCursor(preq)
			if err != nil {
				t.Fatalf("iteration %d page %d: %v", i, page, err)
			}
			got := flatten(cp.Series)
			if len(got) != preq.Limit {
				t.Fatalf("iteration %d page %d: %d points, limit %d", i, page, len(got), preq.Limit)
			}
			for j, p := range got {
				if want := float64(page*preq.Limit + j); p.key != cursorStoreKey(0).String() || p.p.Value != want {
					t.Fatalf("iteration %d page %d point %d = %+v, want series 0 value %v", i, page, j, p, want)
				}
			}
			if cp.NextCursor == "" {
				t.Fatalf("iteration %d page %d: no next page with %d series still ahead", i, page, nSeries-1)
			}
			preq.Cursor = cp.NextCursor
		}
	}
	wg.Wait()
}

// TestQueryPagedCacheKeyedByPage asserts pages of the same filter never
// collide in the result cache — not two positions at one limit, not two
// limits at one position — and that a repeated page request is served
// from it.
func TestQueryPagedCacheKeyedByPage(t *testing.T) {
	s, _ := buildArchive(t)
	req := QueryRequest{Dataset: tsdb.DatasetPlacementScore, Limit: 5}
	p0, err := s.QueryCursor(req)
	if err != nil {
		t.Fatal(err)
	}
	req1 := req
	req1.Cursor = p0.NextCursor
	p1, err := s.QueryCursor(req1)
	if err != nil {
		t.Fatal(err)
	}
	f0, f1 := flatten(p0.Series), flatten(p1.Series)
	if len(f0) == 0 || len(f1) == 0 {
		t.Fatal("empty pages")
	}
	if f0[0] == f1[0] {
		t.Fatalf("page 0 and page 1 start with the same point %+v: cache key ignores the page position", f0[0])
	}
	wider := req
	wider.Limit = 6
	p6, err := s.QueryCursor(wider)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(flatten(p6.Series)); n != 6 {
		t.Fatalf("limit 6 from the start returned %d points: cache key ignores the limit", n)
	}
	hits := metric(t, s.reg, "spotlake_cache_hits_total")
	again, err := s.QueryCursor(req)
	if err != nil {
		t.Fatal(err)
	}
	if after := metric(t, s.reg, "spotlake_cache_hits_total"); after != hits+1 {
		t.Fatalf("repeated page request missed the cache: %v -> %v hits", hits, after)
	}
	if len(flatten(again.Series)) != len(f0) {
		t.Fatal("cached page differs from the original")
	}
}

// TestQueryPagedHTTP: `limit=N` with no cursor parameter is the first
// page of a walk — the bytes and headers of `limit=N&cursor=` — and
// following its Link delivers the unpaginated body's points exactly
// once; a repeated page is written from its entry's stored bytes; only
// the unpaginated response reports X-Total-Points; malformed page
// parameters are rejected.
func TestQueryPagedHTTP(t *testing.T) {
	s, _ := buildArchive(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	full := fetchWire(t, srv.URL+"/api/v1/query?dataset=sps", true)
	var fullSeries []SeriesResult
	if err := json.Unmarshal(full.plain, &fullSeries); err != nil {
		t.Fatal(err)
	}
	want := flatten(fullSeries)
	if tp, _ := strconv.Atoi(full.header.Get("X-Total-Points")); tp != len(want) || tp == 0 {
		t.Fatalf("unpaginated X-Total-Points %q, want %d", full.header.Get("X-Total-Points"), len(want))
	}
	if full.header.Get("X-Next-Cursor") != "" || full.header.Get("Link") != "" {
		t.Fatal("the unpaginated response advertises a next page")
	}

	const limit = 23
	first := "/api/v1/query?dataset=sps&limit=" + strconv.Itoa(limit)
	alone := fetchWire(t, srv.URL+first, true)
	explicit := fetchWire(t, srv.URL+first+"&cursor=", true)
	if !bytes.Equal(alone.wire, explicit.wire) {
		t.Error("limit alone and limit with an empty cursor sent different bytes")
	}
	for _, h := range []string{"X-Next-Cursor", "X-Resolution", "Content-Type"} {
		if a, e := alone.header.Get(h), explicit.header.Get(h); a != e || a == "" {
			t.Errorf("%s: %q with limit alone, %q with an empty cursor", h, a, e)
		}
	}
	if tp := alone.header.Get("X-Total-Points"); tp != "" {
		t.Errorf("a page reports X-Total-Points %q", tp)
	}

	// The explicit form was a hit on the entry the first request made; the
	// repeat of the bare form is written from the bytes that hit stored.
	bodyHits := func() float64 {
		t.Helper()
		v, ok := counterValues(scrapeExposition(t, srv.URL))["spotlake_cache_body_hits_total"]
		if !ok {
			t.Fatal("no spotlake_cache_body_hits_total in the exposition")
		}
		return v
	}
	before := bodyHits()
	repeat := fetchWire(t, srv.URL+first, true)
	if repeat.length != int64(len(repeat.wire)) || !bytes.Equal(repeat.wire, alone.wire) {
		t.Errorf("repeated page: Content-Length %d for %d wire bytes (first response sent %d)", repeat.length, len(repeat.wire), len(alone.wire))
	}
	if got := bodyHits(); got != before+1 {
		t.Errorf("spotlake_cache_body_hits_total went %v -> %v over one repeated page, want +1", before, got)
	}

	// Walk from the bare limit by following Link.
	occ := map[flatPoint]int{}
	var got []flatPoint
	url := first
	for pages := 0; ; pages++ {
		if pages > 10000 {
			t.Fatal("walk did not terminate")
		}
		page := fetchWire(t, srv.URL+url, true)
		var series []SeriesResult
		if err := json.Unmarshal(page.plain, &series); err != nil {
			t.Fatalf("page %d: body not a series array: %v", pages, err)
		}
		pts := flatten(series)
		if len(pts) > limit {
			t.Fatalf("page %d holds %d points, limit %d", pages, len(pts), limit)
		}
		for _, p := range pts {
			occ[p]++
		}
		got = append(got, pts...)
		if page.header.Get("X-Next-Cursor") == "" {
			if page.header.Get("Link") != "" {
				t.Fatalf("page %d: a Link without a next cursor", pages)
			}
			break
		}
		link := page.header.Get("Link")
		if !strings.HasSuffix(link, `>; rel="next"`) {
			t.Fatalf("page %d: next cursor without a Link header (%q)", pages, link)
		}
		url = strings.TrimSuffix(strings.TrimPrefix(link, "<"), `>; rel="next"`)
	}
	if len(got) != len(want) {
		t.Fatalf("pages concatenate to %d points, want %d", len(got), len(want))
	}
	for i, p := range want {
		if got[i] != p {
			t.Fatalf("point %d differs: got %+v want %+v", i, got[i], p)
		}
		if occ[p] != 1 {
			t.Fatalf("point %+v delivered %d times", p, occ[p])
		}
	}

	// Malformed page parameters are rejected.
	for _, u := range []string{
		"/api/v1/query?dataset=sps&limit=-1",
		"/api/v1/query?dataset=sps&limit=x",
		"/api/v1/query?dataset=sps&limit=1.5",
	} {
		resp, err := http.Get(srv.URL + u)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", u, resp.StatusCode)
		}
	}
}
