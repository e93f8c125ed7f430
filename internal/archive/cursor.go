package archive

// The one query computation: a keyset-cursor page of the result's point
// stream.
//
// A query's result is a deterministic sequence: series in canonical key
// order (Keys sorts them), points within each series in ascending time
// (the store's append order). A page is a run of that flattened stream,
// regrouped under its series keys, so concatenated pages reproduce the
// unpaginated response exactly and a series whose points straddle a page
// boundary appears in both pages with disjoint point ranges. The
// unpaginated response is the page with no cursor and no limit.
//
// A cursor names a fixed position in the stream — the canonical key and
// timestamp of the last point already delivered — and the next page
// resumes strictly after it. Counting from the stream's start instead (an
// offset) would shift under a collector tick that appends points before
// the client's position, and the next page would re-serve or skip data.
// Because the archive is append-only and per-series time-ordered, a
// position never moves: concatenated cursor pages contain every point that
// existed when the walk started exactly once, no matter how many appends
// land between page requests. This is the keyset/token pattern of the
// paper backend's own pagination (Timestream-style next tokens) adapted
// to the flattened (series, time) order the archive serves.
//
// The page is located without materializing the window: a count pass
// sizes the series after the cursor (two binary searches each, no
// copying) until the page is full, and a fan-out copies only the points
// the page contains. A huge window queried with limit=1000 therefore
// allocates ~1000 points, not the window.
//
// The token is opaque and URL-safe: a base64url encoding of a version
// byte, a 64-bit scope hash of the request's filter and window, the
// last-delivered timestamp, a sequence count, and the canonical series
// key. The sequence count says how many points at exactly that
// timestamp have been delivered: the store accepts equal-timestamp
// appends (and pre-resume-fix archives contain them), so a bare
// timestamp cannot address a page boundary inside such a run — without
// the count, the run's undelivered remainder would be silently skipped
// on resume. The scope hash pins a token to the exact query that minted
// it — replaying a cursor against a different filter or window would
// silently skip or duplicate data, so it is rejected instead (tokens
// "expire" when the query changes). Clients must treat the token as a
// black box.

import (
	"encoding/base64"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"time"

	"repro/internal/tsdb"
)

// ErrBadCursor is wrapped by every cursor-token rejection: malformed
// encodings and tokens minted by a different filter or window. The HTTP
// layer maps it to a 400 with the token-specific message.
var ErrBadCursor = errors.New("archive: invalid cursor")

const cursorVersion = 1

// cursorScope hashes the request fields a cursor token must match: the
// series filter and the time window (FNV-1a 64, with '|' separators so
// adjacent fields cannot alias). Limit is deliberately excluded — a
// client may change page sizes mid-walk without losing its position.
func cursorScope(req QueryRequest) uint64 {
	h := fnv.New64a()
	var b [8]byte
	mix := func(s string) {
		_, _ = h.Write([]byte(s))
		_, _ = h.Write([]byte{'|'})
	}
	mixInt := func(v int64) {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		_, _ = h.Write(b[:])
	}
	mix(req.Dataset)
	mix(req.Type)
	mix(req.Region)
	mix(req.AZ)
	mixInt(req.From.UnixNano())
	mixInt(req.To.UnixNano())
	// Resolution and aggregate are scoped after normalization
	// (resolveRead): a token minted at one tier addresses that tier's
	// point stream and must not resume a walk at another — the streams
	// differ in both density and values. `auto` normalizes to the tier it
	// picked, so auto-minted tokens interoperate with the equivalent
	// explicit request, and the aggregate to mean at raw, which ignores
	// it, so `agg=` cannot split one raw stream into several scopes.
	mix(req.Resolution)
	mix(req.Agg)
	return h.Sum64()
}

// encodeCursor mints the token for a position: the page ended with the
// seq-th point at time at of series key, under the given request scope.
func encodeCursor(scope uint64, key string, at time.Time, seq uint32) string {
	buf := make([]byte, 1+8+8+4, 1+8+8+4+len(key))
	buf[0] = cursorVersion
	binary.LittleEndian.PutUint64(buf[1:9], scope)
	binary.LittleEndian.PutUint64(buf[9:17], uint64(at.UnixNano()))
	binary.LittleEndian.PutUint32(buf[17:21], seq)
	buf = append(buf, key...)
	return base64.RawURLEncoding.EncodeToString(buf)
}

// decodeCursor validates and unpacks a token against the scope of the
// request presenting it. Every failure wraps ErrBadCursor.
func decodeCursor(token string, scope uint64) (key string, at time.Time, seq int, err error) {
	raw, err := base64.RawURLEncoding.DecodeString(token)
	if err != nil || len(raw) < 1+8+8+4 {
		return "", time.Time{}, 0, fmt.Errorf("%w: malformed token", ErrBadCursor)
	}
	if raw[0] != cursorVersion {
		return "", time.Time{}, 0, fmt.Errorf("%w: unknown token version %d", ErrBadCursor, raw[0])
	}
	if got := binary.LittleEndian.Uint64(raw[1:9]); got != scope {
		return "", time.Time{}, 0, fmt.Errorf("%w: token was issued for a different filter or window (cursors expire when the query changes)", ErrBadCursor)
	}
	key = string(raw[21:])
	if _, err := tsdb.ParseSeriesKey(key); err != nil {
		return "", time.Time{}, 0, fmt.Errorf("%w: malformed series key", ErrBadCursor)
	}
	at = time.Unix(0, int64(binary.LittleEndian.Uint64(raw[9:17]))).UTC()
	seq = int(binary.LittleEndian.Uint32(raw[17:21]))
	return key, at, seq, nil
}

// CursorPage is one page of a query's point stream located by cursor.
type CursorPage struct {
	// Series holds the page's points grouped by series, canonical key
	// order, ascending time within each series — the same order as the
	// unpaginated response, restricted to the page.
	Series []SeriesResult `json:"series"`
	// NextCursor resumes the walk after this page's last point; empty
	// when the page exhausted the stream as counted at request time.
	NextCursor string `json:"nextCursor"`
	// Limit echoes the request (0 = everything from the cursor on).
	Limit int `json:"limit"`
	// Resolution is the tier the points were read from ("raw", "1h",
	// "1d") — what an `auto` request resolved to against the store that
	// answered; the HTTP layer echoes it as X-Resolution.
	Resolution string `json:"resolution"`
}

// pageSpan maps one slice of the page onto a series: the first n points
// of rest[key] after its start position (negative n = all of them).
type pageSpan struct {
	key int
	n   int
}

// QueryCursor returns the page of the query's point stream that starts
// after req.Cursor's position (or at the stream's start for an empty
// cursor), holding at most req.Limit points (0 = all remaining). The
// page is cached under the cursor token and limit with the store
// generation guard, so a repeated page request hits until a point is
// stored anywhere or the store is swapped. The result is stable under
// live appends: the resume position is a fixed (key, timestamp) pair, so
// concurrent collection can only add points after it, never shift it.
func (s *Service) QueryCursor(req QueryRequest) (*CursorPage, error) {
	page, _, err := s.queryCursor(req)
	return page, err
}

// queryCursor is QueryCursor plus the cache entry now holding the page
// (nil when the page was too large to cache).
func (s *Service) queryCursor(req QueryRequest) (*CursorPage, *cacheEntry, error) {
	if req.Limit < 0 {
		return nil, nil, badParam("limit", "archive: negative limit")
	}
	from, to, err := s.checkWindow(req)
	if err != nil {
		return nil, nil, err
	}
	db, epoch := s.storeRef()
	plan, err := resolveRead(db, &req, from, to)
	if err != nil {
		return nil, nil, err
	}
	var curKey string
	var curAt time.Time
	var curSeq int
	if req.Cursor != "" {
		if curKey, curAt, curSeq, err = decodeCursor(req.Cursor, cursorScope(req)); err != nil {
			return nil, nil, err
		}
		// Genuine tokens are minted from in-window points, so a position
		// outside [from, to] is tampering (the scope hash is integrity
		// against accidents, not a MAC): reject it, because the seek
		// primitives resume from the position's timestamp and would
		// otherwise serve the cursor series' pre-window points.
		if curAt.Before(from) || curAt.After(to) {
			return nil, nil, fmt.Errorf("%w: token position lies outside the query window", ErrBadCursor)
		}
	}
	// Concurrent identical cold page requests (many clients replaying the
	// same walk position) collapse onto one computation.
	v, e, err := s.cached(db, epoch, cacheKey("page", req), req, func(keys []tsdb.SeriesKey) (any, int, error) {
		return s.readPage(plan, req, keys, from, to, curKey, curAt, curSeq)
	})
	if err != nil {
		return nil, nil, err
	}
	return v.(*CursorPage), e, nil
}

// readPage computes the page of req (normalized by resolveRead) over
// keys, the sorted series its filter matched, and reports the page's
// point count. (curKey, curAt, curSeq) is req.Cursor decoded.
func (s *Service) readPage(plan readPlan, req QueryRequest, keys []tsdb.SeriesKey, from, to time.Time, curKey string, curAt time.Time, curSeq int) (*CursorPage, int, error) {
	// Seek: binary-search the sorted key list for the cursor's series.
	// Series before it are already fully delivered and are never counted
	// or locked again — a deep page does O(log series) work to skip the
	// prefix it has walked.
	resuming := req.Cursor != ""
	start := 0
	if resuming {
		start = sort.Search(len(keys), func(i int) bool { return keys[i].String() >= curKey })
	}
	rest := keys[start:]
	// Only the first remaining series can be the cursor's own (keys are
	// sorted unique). It is read from the cursor's position, every later
	// series from the window's start.
	cursorOwn := resuming && len(rest) > 0 && rest[0].String() == curKey
	startOf := func(i int) (time.Time, int) {
		if i == 0 && cursorOwn {
			return curAt, curSeq
		}
		return from, 0
	}
	// Pass 1: map the page onto per-series prefixes (the remainder always
	// starts at the cursor, so no span skips within its series). With no
	// limit the page is every remaining series read whole, and nothing
	// needs counting. Otherwise count the remaining in-window points per
	// series, in key order, stopping as soon as the page is provably full
	// (limit points plus at least one more to decide NextCursor). No total
	// is reported — it would be stale the moment it was computed — so a
	// page never pays to count the series still ahead of it, and each page
	// of a walk is O(series in the page), not O(series remaining).
	var spans []pageSpan
	more := false
	if req.Limit == 0 {
		spans = make([]pageSpan, len(rest))
		for i := range spans {
			spans[i] = pageSpan{key: i, n: -1}
		}
	} else {
		left := req.Limit
		for i := range rest {
			at, seq := startOf(i)
			c, err := plan.src.CountAfter(rest[i], at, seq, to)
			if err != nil {
				return nil, 0, err
			}
			n := min(c, left)
			if n > 0 {
				spans = append(spans, pageSpan{key: i, n: n})
				left -= n
			}
			// A point the page has no room for is the "more points exist"
			// signal NextCursor needs; counting stops once it is found.
			if n < c {
				more = true
				break
			}
		}
	}
	// Pass 2: copy only the page's points. Appends racing this pass can
	// only grow series beyond the counted prefix, so each span still
	// resolves to exactly the points pass 1 counted.
	slots := make([][]tsdb.Point, len(spans))
	errs := make([]error, len(spans))
	s.fanOut(len(spans), func(j int) {
		sp := spans[j]
		at, seq := startOf(sp.key)
		slots[j], errs[j] = plan.src.QueryAfter(rest[sp.key], at, seq, to, sp.n)
	})
	if err := firstErr(errs); err != nil {
		return nil, 0, err
	}
	page := &CursorPage{
		Series:     make([]SeriesResult, 0, len(spans)),
		Limit:      req.Limit,
		Resolution: plan.res,
	}
	points := 0
	var lastSlice []tsdb.Point
	lastSpan := -1
	for j, sp := range spans {
		if len(slots[j]) == 0 {
			continue
		}
		points += len(slots[j])
		page.Series = append(page.Series, SeriesResult{Key: rest[sp.key], Points: slots[j]})
		lastSlice, lastSpan = slots[j], sp.key
	}
	if more && points > 0 {
		// The next position is (lastAt, n): n counts the points at
		// exactly lastAt already delivered, so a boundary inside an
		// equal-timestamp run resumes at the run's remainder instead of
		// skipping it. n is the trailing equal-timestamp run of this
		// page's last slice — plus the incoming cursor's own count when
		// this page never advanced past the position it resumed at
		// (same series, same timestamp, whole slice inside the run).
		lastAt := lastSlice[len(lastSlice)-1].At
		n := 0
		for i := len(lastSlice) - 1; i >= 0 && lastSlice[i].At.Equal(lastAt); i-- {
			n++
		}
		if n == len(lastSlice) && lastSpan == 0 && cursorOwn && curAt.Equal(lastAt) {
			n += curSeq
		}
		page.NextCursor = encodeCursor(cursorScope(req), rest[lastSpan].String(), lastAt, uint32(n))
	}
	return page, points, nil
}
