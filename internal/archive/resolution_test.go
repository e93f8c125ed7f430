package archive

// Resolution selection, rollup serving, retention-expired cursors, and
// the cold-read → 500 mapping, all of which need a disk-backed store
// (the rollup tiers only exist when the store seals cold blocks).

import (
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/simclock"
	"repro/internal/tsdb"
)

func diskOpts() tsdb.Options {
	return tsdb.Options{Shards: 4, RotateBytes: 1 << 16, HotTailPoints: 4, BlockPoints: 64, BlockCacheBytes: 1 << 14}
}

// diskArchive builds a Service over a sealing disk store (rollup tiers
// on) holding `days` of 10-minute price points on one series, sealed by
// one checkpoint.
func diskArchive(t *testing.T, dir string, opts tsdb.Options, days int) (*Service, *tsdb.DB, tsdb.SeriesKey) {
	t.Helper()
	db, err := tsdb.OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	k := tsdb.SeriesKey{Dataset: tsdb.DatasetPrice, Type: "m5.large", Region: "us-east-1", AZ: "us-east-1a"}
	n := days * 144
	entries := make([]tsdb.Entry, n)
	for i := range entries {
		entries[i] = tsdb.Entry{
			Key:   k,
			At:    simclock.Epoch.Add(time.Duration(i) * 10 * time.Minute),
			Value: float64((i*7)%37) + float64(i%3)/4,
		}
	}
	if got, err := db.AppendBatch(entries); err != nil || got != n {
		t.Fatalf("stored %d, err %v", got, err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	return NewService(db, catalog.Compact(2)), db, k
}

// servedResolution is the tier the page answering req was read from.
func servedResolution(s *Service, req QueryRequest) (string, error) {
	page, err := s.QueryCursor(req)
	if err != nil {
		return "", err
	}
	return page.Resolution, nil
}

func TestResolutionValidation(t *testing.T) {
	s, _, _ := diskArchive(t, t.TempDir(), diskOpts(), 3)
	if _, err := s.Query(QueryRequest{Dataset: tsdb.DatasetPrice, Resolution: "5m"}); err == nil || !strings.Contains(err.Error(), "resolution must be one of") {
		t.Fatalf("unknown resolution: err = %v, want message naming the parameter", err)
	}
	if _, err := s.Query(QueryRequest{Dataset: tsdb.DatasetPrice, Resolution: "1h", Agg: "median"}); err == nil || !strings.Contains(err.Error(), "agg must be one of") {
		t.Fatalf("unknown agg: err = %v, want message naming the parameter", err)
	}

	// A memory-only store has no rollup tiers: explicit tiers are an
	// error, auto quietly degrades to raw.
	mem, _ := buildArchive(t)
	if _, err := mem.Query(QueryRequest{Dataset: tsdb.DatasetPlacementScore, Resolution: "1h"}); err == nil || !strings.Contains(err.Error(), "no rollup tiers") {
		t.Fatalf("explicit 1h on memory store: err = %v, want rollup-tier error", err)
	}
	if res, err := servedResolution(mem, QueryRequest{Dataset: tsdb.DatasetPlacementScore, Resolution: "auto"}); err != nil || res != "raw" {
		t.Fatalf("auto on memory store = (%q, %v), want raw", res, err)
	}
}

func TestResolutionAutoRule(t *testing.T) {
	s, _, _ := diskArchive(t, t.TempDir(), diskOpts(), 3)
	e := simclock.Epoch
	cases := []struct {
		to   time.Time
		want string
	}{
		{e.Add(24 * time.Hour), "raw"},
		{e.Add(48 * time.Hour), "1h"},
		{e.Add(60 * 24 * time.Hour), "1d"},
		{time.Time{}, "1d"}, // unbounded window spans millennia
	}
	for _, c := range cases {
		res, err := servedResolution(s, QueryRequest{Dataset: tsdb.DatasetPrice, From: e, To: c.to, Resolution: "auto"})
		if err != nil || res != c.want {
			t.Errorf("auto with to=%v = (%q, %v), want %q", c.to, res, err, c.want)
		}
	}
	// Empty resolution defaults to raw regardless of span.
	if res, err := servedResolution(s, QueryRequest{Dataset: tsdb.DatasetPrice}); err != nil || res != "raw" {
		t.Errorf("default resolution = (%q, %v), want raw", res, err)
	}
}

// TestRollupQueryValues: rollup tiers serve real aggregates, keyed by the
// raw series key.
func TestRollupQueryValues(t *testing.T) {
	s, _, k := diskArchive(t, t.TempDir(), diskOpts(), 5)
	rawRes, err := s.Query(QueryRequest{Dataset: tsdb.DatasetPrice})
	if err != nil || len(rawRes) != 1 {
		t.Fatalf("raw query: %d series, err %v", len(rawRes), err)
	}
	raw := rawRes[0].Points

	for _, agg := range []string{"min", "mean"} {
		res, err := s.Query(QueryRequest{Dataset: tsdb.DatasetPrice, Resolution: "1h", Agg: agg})
		if err != nil || len(res) != 1 {
			t.Fatalf("1h/%s query: %d series, err %v", agg, len(res), err)
		}
		if res[0].Key != k {
			t.Fatalf("rollup result keyed by %v, want the raw key %v", res[0].Key, k)
		}
		pts := res[0].Points
		if len(pts) < 3*24 {
			t.Fatalf("1h/%s: only %d buckets for 5 days of data", agg, len(pts))
		}
		for _, p := range pts {
			bs, be := p.At, p.At.Add(time.Hour)
			var sum float64
			minV, n := 0.0, 0
			for _, rp := range raw {
				if rp.At.Before(bs) || !rp.At.Before(be) {
					continue
				}
				if n == 0 || rp.Value < minV {
					minV = rp.Value
				}
				sum += rp.Value
				n++
			}
			if n == 0 {
				t.Fatalf("1h/%s bucket %v has no raw points", agg, bs)
			}
			want := minV
			if agg == "mean" {
				want = sum / float64(n)
			}
			if p.Value != want {
				t.Fatalf("1h/%s bucket %v = %v, want %v", agg, bs, p.Value, want)
			}
		}
	}
}

func TestResolutionHTTP(t *testing.T) {
	s, _, _ := diskArchive(t, t.TempDir(), diskOpts(), 3)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, string(body)
	}

	resp, _ := get("/api/v1/query?dataset=price&resolution=1h")
	if resp.StatusCode != 200 || resp.Header.Get("X-Resolution") != "1h" {
		t.Fatalf("explicit 1h: status %d, X-Resolution %q", resp.StatusCode, resp.Header.Get("X-Resolution"))
	}
	// Unbounded auto window lands on the 1d tier.
	resp, _ = get("/api/v1/query?dataset=price&resolution=auto")
	if resp.StatusCode != 200 || resp.Header.Get("X-Resolution") != "1d" {
		t.Fatalf("auto: status %d, X-Resolution %q", resp.StatusCode, resp.Header.Get("X-Resolution"))
	}
	resp, body := get("/api/v1/query?dataset=price&resolution=bogus")
	if resp.StatusCode != 400 || !strings.Contains(body, "resolution") {
		t.Fatalf("unknown resolution: status %d, body %q", resp.StatusCode, body)
	}
	resp, body = get("/api/v1/query?dataset=price&resolution=1h&agg=p99")
	if resp.StatusCode != 400 || !strings.Contains(body, "agg") {
		t.Fatalf("unknown agg: status %d, body %q", resp.StatusCode, body)
	}

	// Retention state is part of /api/v1/meta.
	resp, body = get("/api/v1/meta")
	if resp.StatusCode != 200 || !strings.Contains(body, "rollupTiers") {
		t.Fatalf("meta: status %d, body %q", resp.StatusCode, body)
	}
}

// TestResolutionHeaderNamesTheStoreThatAnswered: a follower's SwapDB
// between two `auto` requests — a bootstrap store without rollup tiers,
// then a replica with them — changes the tier that serves, and each
// response's X-Resolution names the tier its own body was read from.
func TestResolutionHeaderNamesTheStoreThatAnswered(t *testing.T) {
	_, disk, k := diskArchive(t, t.TempDir(), diskOpts(), 3)
	mem, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := mem.Append(k, simclock.Epoch.Add(time.Duration(i)*time.Minute), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	s := NewService(mem, catalog.Compact(2))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	end := time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)
	tier, _ := disk.Tier(tsdb.Res1d, tsdb.AggMean)
	daily, err := tier.Query(k, time.Time{}, end)
	if err != nil || len(daily) == 0 || len(daily) == 5 {
		t.Fatalf("the replica's 1d tier holds %d points (err %v): the two stores' answers cannot be told apart", len(daily), err)
	}
	for _, step := range []struct {
		store   *tsdb.DB
		res     string
		wantLen int
	}{
		{mem, "raw", 5},
		{disk, "1d", len(daily)},
	} {
		s.SwapDB(step.store)
		resp, err := http.Get(srv.URL + "/api/v1/query?dataset=price&resolution=auto")
		if err != nil {
			t.Fatal(err)
		}
		var series []SeriesResult
		err = json.NewDecoder(resp.Body).Decode(&series)
		resp.Body.Close()
		if err != nil || resp.StatusCode != 200 || len(series) != 1 {
			t.Fatalf("auto on the %s store: status %d, %d series, err %v", step.res, resp.StatusCode, len(series), err)
		}
		if got := resp.Header.Get("X-Resolution"); got != step.res || len(series[0].Points) != step.wantLen {
			t.Errorf("X-Resolution %q over a body of %d points, want %q over %d", got, len(series[0].Points), step.res, step.wantLen)
		}
	}
}

// TestQueryIsTheUnlimitedPage: Query and the cursor page with no cursor
// and no limit are one computation under one cache entry — equal results
// (held against a read straight off the store) over a window that
// straddles the cold/hot boundary, and whichever is called second hits
// the entry the first installed.
func TestQueryIsTheUnlimitedPage(t *testing.T) {
	_, db, k := diskArchive(t, t.TempDir(), diskOpts(), 3)
	hot, cold := int(db.HotPointCount()), int(db.ColdPointCount())
	if hot == 0 || cold < 30 || hot+cold != 3*144 {
		t.Fatalf("the store holds %d hot and %d cold points: no boundary to straddle", hot, cold)
	}
	window := hot + 30
	from := simclock.Epoch.Add(time.Duration(3*144-window) * 10 * time.Minute)
	want, err := db.Query(k, from, time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC))
	if err != nil || len(want) != window {
		t.Fatalf("reference read: %d points, err %v", len(want), err)
	}
	req := QueryRequest{Dataset: tsdb.DatasetPrice, From: from}
	viaQuery := func(s *Service) ([]SeriesResult, error) { return s.Query(req) }
	viaPage := func(s *Service) ([]SeriesResult, error) {
		page, err := s.QueryCursor(req)
		if err != nil {
			return nil, err
		}
		return page.Series, nil
	}
	for name, calls := range map[string][2]func(*Service) ([]SeriesResult, error){
		"Query then page": {viaQuery, viaPage},
		"page then Query": {viaPage, viaQuery},
	} {
		s := NewService(db, catalog.Compact(2))
		first, err := calls[0](s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st := s.CacheStats(); st.Misses != 1 || st.Hits != 0 || st.Entries != 1 {
			t.Fatalf("%s: after the first call %+v, want one miss and one entry", name, st)
		}
		second, err := calls[1](s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if st := s.CacheStats(); st.Misses != 1 || st.Hits != 1 || st.Entries != 1 {
			t.Fatalf("%s: after the second call %+v, want a hit on the first call's entry", name, st)
		}
		for _, got := range [][]SeriesResult{first, second} {
			if len(got) != 1 || got[0].Key != k || !reflect.DeepEqual(got[0].Points, want) {
				t.Fatalf("%s: result differs from the store's %d points: %+v", name, len(want), got)
			}
		}
	}
}

// TestCursorExpiresWhenRawRetained: a raw-tier cursor keeps working
// across live appends, but expires with a 400 once retention drops the
// history it points into — resuming would otherwise silently skip from
// the cut to the first surviving point.
func TestCursorExpiresWhenRawRetained(t *testing.T) {
	opts := diskOpts()
	opts.RetainRaw = map[string]time.Duration{tsdb.DatasetPrice: 24 * time.Hour}
	s, db, k := diskArchive(t, t.TempDir(), opts, 3)

	// Start the walk above the committed cut: below it raw existence is
	// only block-granular luck, and tokens there are already expired.
	cut1, ok := db.RetentionCut(tsdb.DatasetPrice)
	if !ok {
		t.Fatal("no retention cut after the build checkpoint")
	}
	req := QueryRequest{Dataset: tsdb.DatasetPrice, From: cut1.Add(2 * time.Hour), Limit: 4}
	page, err := s.QueryCursor(req)
	if err != nil || page.NextCursor == "" {
		t.Fatalf("page 1: err %v, cursor %q", err, page.NextCursor)
	}
	token := page.NextCursor

	// Live appends do not move the cursor (PR 5's guarantee holds).
	more := make([]tsdb.Entry, 5*144)
	for i := range more {
		more[i] = tsdb.Entry{Key: k, At: simclock.Epoch.Add(time.Duration(3*144+i) * 10 * time.Minute), Value: 1}
	}
	if n, err := db.AppendBatch(more); err != nil || n != len(more) {
		t.Fatalf("stored %d, err %v", n, err)
	}
	req.Cursor = token
	if _, err := s.QueryCursor(req); err != nil {
		t.Fatalf("cursor after append: %v", err)
	}

	// The append pushed the horizon far forward; the next checkpoint's
	// retention pass drops the raw history under the token.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if cut, ok := db.RetentionCut(tsdb.DatasetPrice); !ok || cut.IsZero() {
		t.Fatal("no retention cut after checkpoint")
	}
	_, err = s.QueryCursor(req)
	if !errors.Is(err, ErrBadCursor) || !strings.Contains(err.Error(), "retention horizon") {
		t.Fatalf("cursor into retained-away raw: err = %v, want ErrBadCursor naming retention", err)
	}

	// HTTP: the expired token is the client's 400, not a 500.
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/v1/query?dataset=price&cursor=" + token +
		"&from=" + req.From.Format(time.RFC3339))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 400 || !strings.Contains(string(body), "retention horizon") {
		t.Fatalf("HTTP expired cursor: status %d, body %q", resp.StatusCode, body)
	}

	// Rollup tiers still cover the dropped window: the suggested recovery
	// (re-query at 1h) works.
	if _, err := s.Query(QueryRequest{Dataset: tsdb.DatasetPrice, Resolution: "1h"}); err != nil {
		t.Fatalf("1h query after retention: %v", err)
	}
}

// TestColdReadHTTP500: a cold block that fails its CRC surfaces as a 500
// from /api/v1/query — never a silently truncated 200.
func TestColdReadHTTP500(t *testing.T) {
	dir := t.TempDir()
	opts := diskOpts()
	_, db, _ := diskArchive(t, dir, opts, 2)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip a byte in the first data block; the index CRC stays intact so
	// reopening succeeds and only the read detects the damage.
	path := filepath.Join(dir, "blocks-000001.blk")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len("SLBLOCKS")+2] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	db, err = tsdb.OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	srv := httptest.NewServer(NewService(db, catalog.Compact(2)).Handler())
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/api/v1/query?dataset=price")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 500 || !strings.Contains(string(body), "cold block read failed") {
		t.Fatalf("cold-read query: status %d, body %q, want 500 naming the cold read", resp.StatusCode, body)
	}
}
