package archive

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cloudsim"
	"repro/internal/collector"
	"repro/internal/simclock"
	"repro/internal/tsdb"
)

func noerr2[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

func replStoreOpts() tsdb.Options {
	return tsdb.Options{BlockCacheBytes: 1 << 16}
}

// deepHistory is a price series that no collector run writes: 1000
// points on a 10-minute grid ending before the simulation's epoch, more
// than the 256 + 512 a series needs to seal a block, so a checkpoint
// leaves it on both sides of the hot/cold boundary.
func deepHistory() []tsdb.Entry {
	k := tsdb.SeriesKey{Dataset: tsdb.DatasetPrice, Type: "x1.deep", Region: "us-east-1", AZ: "us-east-1a"}
	entries := make([]tsdb.Entry, 1000)
	for i := range entries {
		at := simclock.Epoch.Add(-time.Duration(len(entries)-i) * 10 * time.Minute)
		entries[i] = tsdb.Entry{Key: k, At: at, Value: float64(i%7) / 4}
	}
	return entries
}

// durablePrimary builds a checkpointed durable archive in dir with real
// collected contents (all three datasets) on top of deepHistory, whose
// older points the checkpoint seals, returning the serving Service and
// the collector for appending more later.
func durablePrimary(t *testing.T, dir string) (*Service, *catalog.Catalog, *collector.Collector, *tsdb.DB) {
	t.Helper()
	cat := catalog.Compact(2)
	clk := simclock.NewAtEpoch()
	cloud := cloudsim.New(cat, clk, 99, cloudsim.DefaultParams())
	db, err := tsdb.OpenWithOptions(dir, replStoreOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AppendBatch(deepHistory()); err != nil {
		t.Fatal(err)
	}
	col, err := collector.New(cloud, db, collector.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Run(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.ColdPointCount() == 0 {
		t.Fatal("the primary's checkpoint sealed nothing")
	}
	return NewService(db, cat), cat, col, db
}

// newFollower wires a follower Service + Puller against primaryURL. The
// follower starts on an empty memory store (first pull swaps in the
// replica) and retires replaced stores almost immediately — the tests
// here never hold a request across a swap.
func newFollower(t *testing.T, primaryURL string, cat *catalog.Catalog, maxStaleness time.Duration) (*Service, *Puller) {
	t.Helper()
	fdb, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	fsvc := NewService(fdb, cat)
	fsvc.SetFollower(primaryURL, maxStaleness)
	p, err := NewPuller(fsvc, PullerConfig{
		PrimaryURL:   primaryURL,
		Dir:          t.TempDir(),
		Grace:        time.Millisecond,
		StoreOptions: replStoreOpts(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		p.Stop()
		fsvc.DB().Close()
	})
	return fsvc, p
}

// assertConverged is the serving-layer differential: the follower must
// answer every read path identically to the primary — full queries per
// dataset at raw and rollup resolutions, latest values, cursor walks,
// and the meta schema section.
func assertConverged(t *testing.T, primary, follower *Service) {
	t.Helper()
	samePoints := func(what string, a, b []SeriesResult) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d series vs %d", what, len(a), len(b))
		}
		for i := range a {
			if a[i].Key != b[i].Key {
				t.Fatalf("%s: series %d key %v vs %v", what, i, a[i].Key, b[i].Key)
			}
			if len(a[i].Points) != len(b[i].Points) {
				t.Fatalf("%s %v: %d points vs %d", what, a[i].Key, len(a[i].Points), len(b[i].Points))
			}
			for j := range a[i].Points {
				pa, pb := a[i].Points[j], b[i].Points[j]
				if !pa.At.Equal(pb.At) || pa.Value != pb.Value {
					t.Fatalf("%s %v point %d: (%v,%v) vs (%v,%v)", what, a[i].Key, j, pa.At, pa.Value, pb.At, pb.Value)
				}
			}
		}
	}
	for _, ds := range []string{tsdb.DatasetPlacementScore, tsdb.DatasetPrice, tsdb.DatasetInterruptFree} {
		for _, res := range []string{"raw", "1h"} {
			req := QueryRequest{Dataset: ds, Resolution: res}
			pq, perr := primary.Query(req)
			fq, ferr := follower.Query(req)
			if perr != nil || ferr != nil {
				t.Fatalf("query %s/%s: primary err %v, follower err %v", ds, res, perr, ferr)
			}
			samePoints(ds+"/"+res, pq, fq)
		}
		pl := noerr2(primary.Latest(QueryRequest{Dataset: ds}))
		fl := noerr2(follower.Latest(QueryRequest{Dataset: ds}))
		if !reflect.DeepEqual(jsonRound(t, pl), jsonRound(t, fl)) {
			t.Fatalf("latest %s diverged", ds)
		}
	}
	// Cursor walk: the same token sequence must yield the same pages.
	preq := QueryRequest{Dataset: tsdb.DatasetPlacementScore, Limit: 50, Cursor: ""}
	freq := preq
	for n := 0; ; n++ {
		pp := noerr2(primary.QueryCursor(preq))
		fp := noerr2(follower.QueryCursor(freq))
		samePoints(fmt.Sprintf("cursor page %d", n), pp.Series, fp.Series)
		if pp.NextCursor != fp.NextCursor {
			t.Fatalf("cursor page %d: next tokens diverge", n)
		}
		if pp.NextCursor == "" {
			break
		}
		preq.Cursor, freq.Cursor = pp.NextCursor, fp.NextCursor
	}
	pm, fm := metaBody(t, primary), metaBody(t, follower)
	if !reflect.DeepEqual(jsonRound(t, pm["schema"]), jsonRound(t, fm["schema"])) {
		t.Fatalf("meta schema diverged: %+v vs %+v", pm["schema"], fm["schema"])
	}
	if frole, prole := metaAt(t, fm, "replication.role"), metaAt(t, pm, "replication.role"); frole != "follower" || prole != "primary" {
		t.Fatalf("roles: primary=%q follower=%q", prole, frole)
	}
	if applied, seq := metaAt(t, fm, "replication.appliedCheckpointSeq"), metaAt(t, pm, "replication.checkpointSeq"); applied != seq {
		t.Fatalf("follower applied checkpoint %v, primary at %v", applied, seq)
	}
}

// jsonRound normalizes a value through JSON so time.Time monotonic
// readings and map ordering don't produce false diffs.
func jsonRound(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestFollowerConvergence: after each primary checkpoint one pull makes
// the follower reference-equal to the primary on every read path,
// including the rollup tiers, across repeated rounds of new data.
func TestFollowerConvergence(t *testing.T) {
	psvc, cat, col, db := durablePrimary(t, t.TempDir())
	defer db.Close()
	srv := httptest.NewServer(psvc.Handler())
	defer srv.Close()

	fsvc, puller := newFollower(t, srv.URL, cat, 0)
	if err := puller.SyncOnce(); err != nil {
		t.Fatalf("initial sync: %v", err)
	}
	assertConverged(t, psvc, fsvc)

	for round := 0; round < 2; round++ {
		if err := col.Run(2 * time.Hour); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := puller.SyncOnce(); err != nil {
			t.Fatalf("round %d sync: %v", round, err)
		}
		assertConverged(t, psvc, fsvc)
	}
	applied := func() float64 { return metric(t, fsvc.reg, "spotlake_replication_applied_total") }
	if a, failures := applied(), metric(t, fsvc.reg, "spotlake_replication_failures_total"); a < 3 || failures != 0 {
		t.Fatalf("puller applied %v deltas with %v failures", a, failures)
	}
	// A pull with nothing new applies nothing but refreshes the clock.
	before := applied()
	if err := puller.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if after := applied(); after != before {
		t.Fatalf("no-op sync applied a delta (%v -> %v)", before, after)
	}
}

// walkPage fetches one cursor page over HTTP and returns its series
// plus the next cursor token.
func walkPage(t *testing.T, base string, q url.Values) ([]SeriesResult, string) {
	t.Helper()
	resp, err := http.Get(base + "/api/v1/query?" + q.Encode())
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 2048))
		t.Fatalf("walk page: %s: %s", resp.Status, body)
	}
	var series []SeriesResult
	if err := json.NewDecoder(resp.Body).Decode(&series); err != nil {
		t.Fatal(err)
	}
	return series, resp.Header.Get("X-Next-Cursor")
}

// TestFailoverExactlyOnce: a cursor walk that fails over between the
// primary and a follower on every page — both directions, repeatedly —
// under a concurrent writer delivers every point that existed at walk
// start exactly once, with no duplicates anywhere in the walk.
func TestFailoverExactlyOnce(t *testing.T) {
	psvc, cat, col, db := durablePrimary(t, t.TempDir())
	defer db.Close()
	psrv := httptest.NewServer(psvc.Handler())
	defer psrv.Close()

	fsvc, puller := newFollower(t, psrv.URL, cat, 0)
	if err := puller.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	fsrv := httptest.NewServer(fsvc.Handler())
	defer fsrv.Close()

	// The exactly-once set: every point present when the walk starts.
	// The follower just synced the same committed state, so both ends
	// hold all of them for the whole walk.
	walkReq := QueryRequest{Dataset: tsdb.DatasetPlacementScore}
	start := noerr2(psvc.Query(walkReq))
	type pt struct {
		key tsdb.SeriesKey
		at  int64
	}
	want := make(map[pt]bool)
	for _, sr := range start {
		for _, p := range sr.Points {
			want[pt{sr.Key, p.At.UnixNano()}] = false
		}
	}
	if len(want) < 100 {
		t.Fatalf("walk-start set implausibly small: %d points", len(want))
	}

	// Live writer: keep collecting and checkpointing while the walk
	// fails over, so pages race real appends, rotations, checkpoints,
	// and replica applies.
	writerDone := make(chan struct{})
	writerStop := make(chan struct{})
	go func() {
		defer close(writerDone)
		for i := 0; i < 20; i++ {
			select {
			case <-writerStop:
				return
			default:
			}
			if err := col.Run(15 * time.Minute); err != nil {
				t.Errorf("writer: %v", err)
				return
			}
			if i%4 == 3 {
				if err := db.Checkpoint(); err != nil {
					t.Errorf("writer checkpoint: %v", err)
					return
				}
			}
		}
	}()

	seen := make(map[pt]int)
	q := url.Values{"dataset": {tsdb.DatasetPlacementScore}, "limit": {"40"}, "cursor": {""}}
	servers := []string{psrv.URL, fsrv.URL}
	for page := 0; ; page++ {
		if page > 10000 {
			t.Fatal("walk did not terminate")
		}
		// Fail over every page: primary, follower, primary, ... and pull
		// a fresh delta onto the follower every few pages so the walk
		// also crosses store swaps on the replica.
		base := servers[page%2]
		if page%5 == 4 {
			if err := puller.SyncOnce(); err != nil {
				t.Fatalf("mid-walk sync: %v", err)
			}
		}
		series, next := walkPage(t, base, q)
		for _, sr := range series {
			for _, p := range sr.Points {
				seen[pt{sr.Key, p.At.UnixNano()}]++
			}
		}
		if next == "" {
			break
		}
		q.Set("cursor", next)
		if page == 6 {
			close(writerStop)
			<-writerDone
		}
	}
	select {
	case <-writerStop:
	default:
		close(writerStop)
	}
	<-writerDone

	for p, n := range seen {
		if n != 1 {
			t.Fatalf("point %v/%d delivered %d times", p.key, p.at, n)
		}
	}
	missing := 0
	for p := range want {
		if seen[p] == 0 {
			missing++
		}
	}
	if missing > 0 {
		t.Fatalf("%d of %d walk-start points never delivered", missing, len(want))
	}
}

// TestFollowerStalenessGate: a follower past -max-staleness answers 503
// with the stale_replica envelope and a Retry-After hint on reads,
// keeps /api/v1/meta reachable, and recovers as soon as a sync lands.
func TestFollowerStalenessGate(t *testing.T) {
	psvc, cat, _, db := durablePrimary(t, t.TempDir())
	defer db.Close()
	psrv := httptest.NewServer(psvc.Handler())
	defer psrv.Close()

	fsvc, puller := newFollower(t, psrv.URL, cat, 50*time.Millisecond)
	fsrv := httptest.NewServer(fsvc.Handler())
	defer fsrv.Close()

	// Never synced: stale by definition.
	resp := noerr2(http.Get(fsrv.URL + "/api/v1/query?dataset=sps"))
	var env apiError
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != ErrCodeStaleReplica {
		t.Fatalf("unsynced follower: %d %q, want 503 %q", resp.StatusCode, env.Error.Code, ErrCodeStaleReplica)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("stale 503 missing Retry-After")
	}
	// Meta stays reachable and reports the staleness.
	mresp := noerr2(http.Get(fsrv.URL + "/api/v1/meta"))
	var meta map[string]any
	if err := json.NewDecoder(mresp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("meta on stale follower: %d", mresp.StatusCode)
	}
	if metaAt(t, meta, "replication.role") != "follower" || metaAt(t, meta, "replication.stale") != 1.0 {
		t.Fatalf("meta replication section: %+v", meta["replication"])
	}

	if err := puller.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	resp2 := noerr2(http.Get(fsrv.URL + "/api/v1/query?dataset=sps"))
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("synced follower read: %d, want 200", resp2.StatusCode)
	}

	// Let the bound lapse again: the gate re-engages.
	time.Sleep(80 * time.Millisecond)
	resp3 := noerr2(http.Get(fsrv.URL + "/api/v1/query?dataset=sps"))
	io.Copy(io.Discard, resp3.Body)
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("lapsed follower read: %d, want 503", resp3.StatusCode)
	}
}

// TestSecondsBehindCountsFromSetup: a follower that has never synced
// reports the seconds since it was set up, growing, not the 0 of one
// that synced this instant; a sync restarts the count from when it
// confirmed the replica current.
func TestSecondsBehindCountsFromSetup(t *testing.T) {
	psvc, cat, _, db := durablePrimary(t, t.TempDir())
	defer db.Close()
	psrv := httptest.NewServer(psvc.Handler())
	defer psrv.Close()
	fsvc, puller := newFollower(t, psrv.URL, cat, 0)
	behind := func() float64 { return metric(t, fsvc.reg, "spotlake_replication_seconds_behind") }

	first := behind()
	if first <= 0 {
		t.Fatalf("never-synced follower reads %v seconds behind, want > 0", first)
	}
	time.Sleep(2 * time.Millisecond)
	if later := behind(); later <= first {
		t.Fatalf("never-synced follower read %v, then %v: the count did not grow", first, later)
	}

	start := time.Now()
	if err := puller.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if got, bound := behind(), time.Since(start).Seconds(); got >= bound {
		t.Fatalf("right after a sync the follower reads %v seconds behind, not under the %v since the sync began", got, bound)
	}
}

// TestReplicationEpochGuard: a file request pinned to a position the
// primary has moved past answers 409 epoch_mismatch, and the follower
// side of the pair refuses to serve replication at all.
func TestReplicationEpochGuard(t *testing.T) {
	psvc, cat, col, db := durablePrimary(t, t.TempDir())
	defer db.Close()
	psrv := httptest.NewServer(psvc.Handler())
	defer psrv.Close()

	// Capture a listing, then move the primary's position.
	lresp := noerr2(http.Get(psrv.URL + "/api/v1/replication/manifest"))
	var listing replListing
	if err := json.NewDecoder(lresp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	lresp.Body.Close()
	if lresp.StatusCode != http.StatusOK || len(listing.Artifacts) == 0 {
		t.Fatalf("listing: %d with %d artifacts", lresp.StatusCode, len(listing.Artifacts))
	}
	if err := col.Run(time.Hour); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	u := fmt.Sprintf("%s/api/v1/replication/file/%s?checkpointSeq=%d",
		psrv.URL, listing.Artifacts[0].Name, listing.CheckpointSeq)
	resp := noerr2(http.Get(u))
	var env apiError
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict || env.Error.Code != ErrCodeEpochMismatch {
		t.Fatalf("stale pin: %d %q, want 409 %q", resp.StatusCode, env.Error.Code, ErrCodeEpochMismatch)
	}

	// The follower refuses to act as a replication source.
	fsvc, puller := newFollower(t, psrv.URL, cat, 0)
	if err := puller.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	fsrv := httptest.NewServer(fsvc.Handler())
	defer fsrv.Close()
	for _, path := range []string{
		"/api/v1/replication/manifest",
		"/api/v1/replication/file/blocks-000001.blk?checkpointSeq=1",
	} {
		resp := noerr2(http.Get(fsrv.URL + path))
		var env apiError
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden || env.Error.Code != ErrCodeNotPrimary {
			t.Fatalf("%s on follower: %d %q, want 403 %q", path, resp.StatusCode, env.Error.Code, ErrCodeNotPrimary)
		}
	}
}

// TestErrorEnvelope is the contract test for satellite 1: every
// endpoint's non-2xx response body is the unified envelope with a
// stable machine-readable code (and param where one applies).
func TestErrorEnvelope(t *testing.T) {
	psvc, cat, _, db := durablePrimary(t, t.TempDir())
	defer db.Close()
	psrv := httptest.NewServer(psvc.Handler())
	defer psrv.Close()

	fsvc, _ := newFollower(t, psrv.URL, cat, time.Millisecond)
	fsrv := httptest.NewServer(fsvc.Handler())
	defer fsrv.Close()

	// A synced follower: its reads pass the staleness gate.
	ssvc, spuller := newFollower(t, psrv.URL, cat, time.Hour)
	if err := spuller.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	ssrv := httptest.NewServer(ssvc.Handler())
	defer ssrv.Close()

	// A rate-limited twin of the primary for the 429 case.
	rlsvc := NewService(db, cat)
	rlsvc.SetAdmission(NewAdmission(AdmissionConfig{RatePerSec: 1, Burst: 1}))
	rlsrv := httptest.NewServer(rlsvc.Handler())
	defer rlsrv.Close()
	// Drain the single-token bucket so the table request is the one
	// over the limit.
	for i := 0; i < 3; i++ {
		r := noerr2(http.Get(rlsrv.URL + "/api/v1/datasets"))
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}

	cases := []struct {
		name       string
		method     string
		base       string
		path       string
		status     int
		code       string
		param      string
		retryAfter bool
	}{
		{name: "bad from", base: psrv.URL, path: "/api/v1/query?from=yesterday", status: 400, code: ErrCodeBadParam, param: "from"},
		{name: "bad limit", base: psrv.URL, path: "/api/v1/query?limit=many", status: 400, code: ErrCodeBadParam, param: "limit"},
		{name: "unknown dataset", base: psrv.URL, path: "/api/v1/query?dataset=bogus", status: 400, code: ErrCodeBadParam, param: "dataset"},
		{name: "bad resolution", base: psrv.URL, path: "/api/v1/query?resolution=5m", status: 400, code: ErrCodeBadParam, param: "resolution"},
		{name: "bad agg", base: psrv.URL, path: "/api/v1/query?resolution=1h&agg=median", status: 400, code: ErrCodeBadParam, param: "agg"},
		{name: "bad cursor token", base: psrv.URL, path: "/api/v1/query?cursor=%21%21not-a-token", status: 400, code: ErrCodeBadCursor, param: "cursor"},
		{name: "window ends before it starts", base: psrv.URL, path: "/api/v1/query?from=2022-01-02T00:00:00Z&to=2022-01-01T00:00:00Z", status: 400, code: ErrCodeBadRequest},
		{name: "offset zero", base: psrv.URL, path: "/api/v1/query?offset=0", status: 400, code: ErrCodeOffsetDeprecated, param: "offset"},
		{name: "offset", base: psrv.URL, path: "/api/v1/query?dataset=sps&limit=10&offset=3", status: 400, code: ErrCodeOffsetDeprecated, param: "offset"},
		{name: "cursor plus offset", base: psrv.URL, path: "/api/v1/query?cursor=&offset=3", status: 400, code: ErrCodeOffsetDeprecated, param: "offset"},
		{name: "offset not a number", base: psrv.URL, path: "/api/v1/query?offset=x", status: 400, code: ErrCodeOffsetDeprecated, param: "offset"},
		{name: "offset zero on follower", base: ssrv.URL, path: "/api/v1/query?offset=0", status: 400, code: ErrCodeOffsetDeprecated, param: "offset"},
		{name: "offset on follower", base: ssrv.URL, path: "/api/v1/query?dataset=sps&limit=10&offset=3", status: 400, code: ErrCodeOffsetDeprecated, param: "offset"},
		{name: "cursor plus offset on follower", base: ssrv.URL, path: "/api/v1/query?cursor=&offset=3", status: 400, code: ErrCodeOffsetDeprecated, param: "offset"},
		{name: "offset not a number on follower", base: ssrv.URL, path: "/api/v1/query?offset=x", status: 400, code: ErrCodeOffsetDeprecated, param: "offset"},
		{name: "latest bad dataset", base: psrv.URL, path: "/api/v1/latest?dataset=bogus", status: 400, code: ErrCodeBadParam, param: "dataset"},
		{name: "unknown path", base: psrv.URL, path: "/api/v1/nope", status: 404, code: ErrCodeNotFound},
		{name: "write rejected", method: "POST", base: psrv.URL, path: "/api/v1/query", status: 405, code: ErrCodeMethodNotAllowed},
		{name: "write rejected on follower", method: "DELETE", base: fsrv.URL, path: "/api/v1/meta", status: 405, code: ErrCodeMethodNotAllowed},
		{name: "repl bad name", base: psrv.URL, path: "/api/v1/replication/file/..%2FMANIFEST?checkpointSeq=1", status: 400, code: ErrCodeBadParam, param: "name"},
		{name: "repl missing pin", base: psrv.URL, path: "/api/v1/replication/file/blocks-000001.blk", status: 400, code: ErrCodeBadParam, param: "checkpointSeq"},
		{name: "repl stale pin", base: psrv.URL, path: "/api/v1/replication/file/blocks-000001.blk?checkpointSeq=9999", status: 409, code: ErrCodeEpochMismatch},
		{name: "repl on follower", base: fsrv.URL, path: "/api/v1/replication/manifest", status: 403, code: ErrCodeNotPrimary},
		{name: "stale follower read", base: fsrv.URL, path: "/api/v1/latest?dataset=sps", status: 503, code: ErrCodeStaleReplica, retryAfter: true},
		{name: "rate limited", base: rlsrv.URL, path: "/api/v1/datasets", status: 429, code: ErrCodeRateLimited, retryAfter: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			method := tc.method
			if method == "" {
				method = "GET"
			}
			req := noerr2(http.NewRequest(method, tc.base+tc.path, nil))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.status {
				body, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
				t.Fatalf("status %d, want %d (%s)", resp.StatusCode, tc.status, body)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type %q, want application/json", ct)
			}
			var env apiError
			if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
				t.Fatalf("body is not the error envelope: %v", err)
			}
			if env.Error.Code != tc.code {
				t.Errorf("code %q, want %q", env.Error.Code, tc.code)
			}
			if env.Error.Message == "" {
				t.Error("empty message")
			}
			if env.Error.Param != tc.param {
				t.Errorf("param %q, want %q", env.Error.Param, tc.param)
			}
			if tc.retryAfter && resp.Header.Get("Retry-After") == "" {
				t.Error("missing Retry-After")
			}
			if tc.status == 405 && resp.Header.Get("Allow") == "" {
				t.Error("405 without Allow header")
			}
			noSunsetHeaders(t, resp)
		})
	}

	// The over-capacity shed uses the same envelope; drive it directly
	// through the admission wrapper with a parked handler.
	t.Run("over capacity", func(t *testing.T) {
		adm := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 0})
		release := make(chan struct{})
		var once sync.Once
		defer once.Do(func() { close(release) })
		started := make(chan struct{}, 1)
		srv := httptest.NewServer(withAdmission(adm, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			started <- struct{}{}
			<-release
		})))
		defer srv.Close()
		go func() {
			resp, err := http.Get(srv.URL)
			if err == nil {
				resp.Body.Close()
			}
		}()
		<-started
		resp := noerr2(http.Get(srv.URL))
		defer resp.Body.Close()
		var env apiError
		if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != ErrCodeOverCapacity {
			t.Fatalf("shed: %d %q, want 503 %q", resp.StatusCode, env.Error.Code, ErrCodeOverCapacity)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("shed response missing Retry-After")
		}
		once.Do(func() { close(release) })
	})
}

// noSunsetHeaders: offset pagination is gone, and with it the headers
// that announced its removal.
func noSunsetHeaders(t *testing.T, resp *http.Response) {
	t.Helper()
	for _, h := range []string{"Deprecation", "Sunset", "X-Next-Offset"} {
		if v := resp.Header.Get(h); v != "" {
			t.Errorf("%s: response carries %s: %q", resp.Request.URL, h, v)
		}
	}
}

// TestNoSunsetHeadersOnReads: none of the successful read shapes carries
// a Deprecation, Sunset or X-Next-Offset header, on primary or follower
// (TestErrorEnvelope checks the same of every error).
func TestNoSunsetHeadersOnReads(t *testing.T) {
	psvc, cat, _, db := durablePrimary(t, t.TempDir())
	defer db.Close()
	psrv := httptest.NewServer(psvc.Handler())
	defer psrv.Close()
	fsvc, puller := newFollower(t, psrv.URL, cat, time.Hour)
	if err := puller.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	fsrv := httptest.NewServer(fsvc.Handler())
	defer fsrv.Close()

	for _, base := range []string{psrv.URL, fsrv.URL} {
		for _, path := range []string{
			"/api/v1/query?dataset=sps",
			"/api/v1/query?dataset=sps&limit=10",
			"/api/v1/query?dataset=sps&limit=10&cursor=",
			"/api/v1/query?dataset=sps&cursor=",
			"/api/v1/latest?dataset=sps",
			"/api/v1/meta",
			"/",
		} {
			resp := noerr2(http.Get(base + path))
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s: status %d", path, resp.StatusCode)
			}
			noSunsetHeaders(t, resp)
		}
	}
}
