package archive

// Resolution selection, rollup serving and the cold-read → 500 mapping,
// mostly over a disk-backed store whose buckets straddle sealed history
// and the hot tail.

import (
	"encoding/json"
	"fmt"
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
	return tsdb.Options{BlockCacheBytes: 1 << 14}
}

// sealDays is the fewest days of diskArchive's one series whose
// checkpoint seals: 6 × 144 = 864 points, more than the 256-point hot
// tail plus one 512-point block.
const sealDays = 6

// diskArchive builds a Service over a sealing disk store holding `days`
// of 10-minute price points on one series, sealed by one checkpoint.
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

	// A memory-only store folds buckets like any other: explicit tiers
	// and auto serve them.
	mem, _ := buildArchive(t)
	if res, err := mem.Query(QueryRequest{Dataset: tsdb.DatasetPlacementScore, Resolution: "1h"}); err != nil || len(res) == 0 {
		t.Fatalf("explicit 1h on memory store: %d series, err %v", len(res), err)
	}
	if res, err := servedResolution(mem, QueryRequest{Dataset: tsdb.DatasetPlacementScore, Resolution: "auto"}); err != nil || res != "1d" {
		t.Fatalf("auto on memory store = (%q, %v), want 1d", res, err)
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

// naiveMeans folds time-ordered points into res buckets the obvious
// way: one bucket per res-aligned interval holding a point, the mean of
// its points summed in time order.
func naiveMeans(pts []tsdb.Point, res time.Duration) []tsdb.Point {
	var out []tsdb.Point
	for i := 0; i < len(pts); {
		start := pts[i].At.Truncate(res)
		sum, j := 0.0, i
		for ; j < len(pts) && pts[j].At.Truncate(res).Equal(start); j++ {
			sum += pts[j].Value
		}
		out = append(out, tsdb.Point{At: start.UTC(), Value: sum / float64(j-i)})
		i = j
	}
	return out
}

// TestRollupQueryValues: rollup tiers serve real aggregates of every
// stored point, sealed and hot, keyed by the raw series key.
func TestRollupQueryValues(t *testing.T) {
	s, db, k := diskArchive(t, t.TempDir(), diskOpts(), sealDays)
	if db.ColdPointCount() == 0 || db.HotPointCount() == 0 {
		t.Fatalf("the store holds %d cold and %d hot points; want both tiers", db.ColdPointCount(), db.HotPointCount())
	}
	rawRes, err := s.Query(QueryRequest{Dataset: tsdb.DatasetPrice})
	if err != nil || len(rawRes) != 1 {
		t.Fatalf("raw query: %d series, err %v", len(rawRes), err)
	}
	raw := rawRes[0].Points

	for _, agg := range []string{"min", "max", "mean", "last"} {
		res, err := s.Query(QueryRequest{Dataset: tsdb.DatasetPrice, Resolution: "1h", Agg: agg})
		if err != nil || len(res) != 1 {
			t.Fatalf("1h/%s query: %d series, err %v", agg, len(res), err)
		}
		if res[0].Key != k {
			t.Fatalf("rollup result keyed by %v, want the raw key %v", res[0].Key, k)
		}
		pts := res[0].Points
		if len(pts) != sealDays*24 {
			t.Fatalf("1h/%s: %d buckets for %d days of data, want %d", agg, len(pts), sealDays, sealDays*24)
		}
		for _, p := range pts {
			bs, be := p.At, p.At.Add(time.Hour)
			var sum, minV, maxV, last float64
			n := 0
			for _, rp := range raw {
				if rp.At.Before(bs) || !rp.At.Before(be) {
					continue
				}
				if n == 0 || rp.Value < minV {
					minV = rp.Value
				}
				if n == 0 || rp.Value > maxV {
					maxV = rp.Value
				}
				sum += rp.Value
				last = rp.Value
				n++
			}
			if n == 0 {
				t.Fatalf("1h/%s bucket %v has no raw points", agg, bs)
			}
			want := map[string]float64{"min": minV, "max": maxV, "mean": sum / float64(n), "last": last}[agg]
			if p.Value != want {
				t.Fatalf("1h/%s bucket %v = %v, want %v", agg, bs, p.Value, want)
			}
		}
	}
}

// TestAutoServesChangeOnlyArchive is the collector's shape: a durable
// store of change-only series, about 20 points each over 30 days, far
// too few for any series to seal. `auto` must answer with the same
// series as raw, each bucket the naive fold of its raw points, over both
// an unbounded window (1d) and a 30-day one (1h).
func TestAutoServesChangeOnlyArchive(t *testing.T) {
	db, err := tsdb.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	const tick, ticks = 10 * time.Minute, 30 * 144
	for j := 0; j < 50; j++ {
		k := tsdb.SeriesKey{Dataset: tsdb.DatasetPlacementScore, Type: fmt.Sprintf("m%d.large", j), Region: "us-east-1"}
		for i, at := 0, (j*37)%200; at < ticks; i, at = i+1, at+150+(i*j*13)%120 {
			if err := db.Append(k, simclock.Epoch.Add(time.Duration(at)*tick), float64(1+(i*7+j)%10)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n := db.PointCount(); db.ColdPointCount() != 0 || n < 50*15 || n > 50*25 {
		t.Fatalf("the store holds %d points, %d of them sealed; want about 20 a series, none sealed", n, db.ColdPointCount())
	}
	s := NewService(db, catalog.Compact(2))
	raw, err := s.Query(QueryRequest{Dataset: tsdb.DatasetPlacementScore})
	if err != nil || len(raw) != 50 {
		t.Fatalf("raw: %d series, err %v", len(raw), err)
	}
	for _, c := range []struct {
		to  time.Time
		res string
		d   time.Duration
	}{
		{time.Time{}, "1d", tsdb.Res1d},
		{simclock.Epoch.Add(ticks * tick), "1h", tsdb.Res1h},
	} {
		req := QueryRequest{Dataset: tsdb.DatasetPlacementScore, From: simclock.Epoch, To: c.to, Resolution: "auto"}
		page, err := s.QueryCursor(req)
		if err != nil || page.Resolution != c.res {
			t.Fatalf("auto to %v: resolution %q, err %v; want %s", c.to, page.Resolution, err, c.res)
		}
		if len(page.Series) != len(raw) {
			t.Fatalf("auto at %s: %d series, raw %d", c.res, len(page.Series), len(raw))
		}
		for i, sr := range page.Series {
			if sr.Key != raw[i].Key {
				t.Fatalf("auto at %s: series %d is %v, raw has %v", c.res, i, sr.Key, raw[i].Key)
			}
			if want := naiveMeans(raw[i].Points, c.d); !reflect.DeepEqual(sr.Points, want) {
				t.Fatalf("auto at %s, %v: buckets %v, want %v", c.res, sr.Key, sr.Points, want)
			}
		}
	}
}

// TestRawIgnoresAgg: agg= means nothing at raw, so a raw request that
// names one shares the bare request's cache entry and cursor scope, and
// a token minted by either spelling resumes the other.
func TestRawIgnoresAgg(t *testing.T) {
	s, _, _ := diskArchive(t, t.TempDir(), diskOpts(), 3)
	bare := QueryRequest{Dataset: tsdb.DatasetPrice, Limit: 50}
	named := bare
	named.Resolution, named.Agg = "raw", "max"
	p1, err := s.QueryCursor(bare)
	if err != nil || p1.NextCursor == "" {
		t.Fatalf("bare page: cursor %q, err %v", p1.NextCursor, err)
	}
	p2, err := s.QueryCursor(named)
	if err != nil {
		t.Fatal(err)
	}
	if cache := func(name string) float64 { return metric(t, s.reg, "spotlake_cache_"+name) }; cache("misses_total") != 1 || cache("hits_total") != 1 || cache("entries") != 1 {
		t.Fatalf("after both spellings %v, want one entry hit once", s.reg.Sections()["cache"])
	}
	if !reflect.DeepEqual(p1, p2) {
		t.Fatal("agg=max at raw served a different page")
	}
	bare.Cursor, named.Cursor = p2.NextCursor, p1.NextCursor
	r1, err := s.QueryCursor(bare)
	if err != nil {
		t.Fatalf("bare request resuming the named token: %v", err)
	}
	r2, err := s.QueryCursor(named)
	if err != nil {
		t.Fatalf("named request resuming the bare token: %v", err)
	}
	if len(r1.Series) == 0 || !reflect.DeepEqual(r1, r2) {
		t.Fatalf("resumed pages differ or are empty: %+v vs %+v", r1, r2)
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
}

// TestResolutionHeaderNamesTheStoreThatAnswered: a follower's SwapDB
// between two `auto` requests — a bootstrap store holding five minutes
// of points, then a replica holding three days — changes the store that
// serves, and each response carries its own store's 1d buckets under
// X-Resolution: 1d.
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

	for _, step := range []struct {
		store   *tsdb.DB
		wantLen int
	}{
		{mem, 1},
		{disk, 3},
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
			t.Fatalf("auto: status %d, %d series, err %v", resp.StatusCode, len(series), err)
		}
		if got := resp.Header.Get("X-Resolution"); got != "1d" || len(series[0].Points) != step.wantLen {
			t.Errorf("X-Resolution %q over a body of %d points, want 1d over %d", got, len(series[0].Points), step.wantLen)
		}
	}
}

// TestQueryIsTheUnlimitedPage: Query and the cursor page with no cursor
// and no limit are one computation under one cache entry — equal results
// (held against a read straight off the store) over a window that
// straddles the cold/hot boundary, and whichever is called second hits
// the entry the first installed.
func TestQueryIsTheUnlimitedPage(t *testing.T) {
	_, db, k := diskArchive(t, t.TempDir(), diskOpts(), sealDays)
	hot, cold := int(db.HotPointCount()), int(db.ColdPointCount())
	if hot == 0 || cold < 30 || hot+cold != sealDays*144 {
		t.Fatalf("the store holds %d hot and %d cold points: no boundary to straddle", hot, cold)
	}
	window := hot + 30
	from := simclock.Epoch.Add(time.Duration(sealDays*144-window) * 10 * time.Minute)
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
		cache := func(name string) float64 { return metric(t, s.reg, "spotlake_cache_"+name) }
		if cache("misses_total") != 1 || cache("hits_total") != 0 || cache("entries") != 1 {
			t.Fatalf("%s: after the first call %v, want one miss and one entry", name, s.reg.Sections()["cache"])
		}
		second, err := calls[1](s)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if cache("misses_total") != 1 || cache("hits_total") != 1 || cache("entries") != 1 {
			t.Fatalf("%s: after the second call %v, want a hit on the first call's entry", name, s.reg.Sections()["cache"])
		}
		for _, got := range [][]SeriesResult{first, second} {
			if len(got) != 1 || got[0].Key != k || !reflect.DeepEqual(got[0].Points, want) {
				t.Fatalf("%s: result differs from the store's %d points: %+v", name, len(want), got)
			}
		}
	}
}

// TestColdReadHTTP500: a cold block that fails its CRC surfaces as a 500
// from /api/v1/query — never a silently truncated 200.
func TestColdReadHTTP500(t *testing.T) {
	dir := t.TempDir()
	opts := diskOpts()
	_, db, _ := diskArchive(t, dir, opts, sealDays)
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
