package archive

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/tsdb"
)

// benchDB builds a store with many series so query fan-out has real work.
func benchDB(b *testing.B, shards int) *tsdb.DB {
	b.Helper()
	db, err := tsdb.OpenSharded("", shards)
	if err != nil {
		b.Fatal(err)
	}
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	for s := 0; s < 400; s++ {
		k := tsdb.SeriesKey{
			Dataset: tsdb.DatasetPlacementScore,
			Type:    fmt.Sprintf("t%d.xlarge", s%50),
			Region:  fmt.Sprintf("r%d", s%8),
			AZ:      fmt.Sprintf("r%da", s%8),
		}
		if s >= 200 {
			k.Dataset = tsdb.DatasetPrice
		}
		for i := 0; i < 500; i++ {
			if err := db.Append(k, base.Add(time.Duration(i)*time.Minute), float64(i%5)); err != nil {
				b.Fatal(err)
			}
		}
	}
	return db
}

// BenchmarkQueryFanOut measures a broad archive query (every sps series)
// across worker-pool sizes and shard counts. Identical repeated queries
// are excluded from caching here by alternating the window each iteration.
func BenchmarkQueryFanOut(b *testing.B) {
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, cfg := range []struct{ shards, workers int }{
		{1, 1},
		{tsdb.DefaultShardCount(), 1},
		{tsdb.DefaultShardCount(), 4},
		{tsdb.DefaultShardCount(), 16},
	} {
		name := fmt.Sprintf("shards=%d/workers=%d", cfg.shards, cfg.workers)
		b.Run(name, func(b *testing.B) {
			svc := NewService(benchDB(b, cfg.shards), catalog.Compact(1))
			svc.SetWorkers(cfg.workers)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// A unique window per iteration so the result cache never hits.
				from := base.Add(time.Duration(i) * time.Millisecond)
				res, err := svc.Query(QueryRequest{Dataset: tsdb.DatasetPlacementScore, From: from})
				if err != nil {
					b.Fatal(err)
				}
				if len(res) == 0 {
					b.Fatal("no results")
				}
			}
		})
	}
}

// BenchmarkQueryCached measures the same repeated query answered by the
// generation-guarded LRU cache (paper: the archive is read-heavy and many
// users ask for the same popular series).
func BenchmarkQueryCached(b *testing.B) {
	svc := NewService(benchDB(b, tsdb.DefaultShardCount()), catalog.Compact(1))
	req := QueryRequest{Dataset: tsdb.DatasetPlacementScore}
	if _, err := svc.Query(req); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := svc.Query(req)
		if err != nil {
			b.Fatal(err)
		}
		if len(res) == 0 {
			b.Fatal("no results")
		}
	}
	b.StopTimer()
	if st := svc.CacheStats(); st.Hits == 0 {
		b.Fatal("cache never hit")
	}
}

// BenchmarkQueryCursor measures locating a deep page — the walk is 95%
// done — via a keyset cursor: it binary-searches the sorted key list once
// and touches only the series still ahead of it. Tokens vary per
// iteration so the result cache never hits and the located page itself
// is identical work.
func BenchmarkQueryCursor(b *testing.B) {
	db := benchDB(b, tsdb.DefaultShardCount())
	svc := NewService(db, catalog.Compact(1))
	req := QueryRequest{Dataset: tsdb.DatasetPlacementScore, Limit: 100}
	keys := db.Keys(tsdb.KeyFilter{Dataset: tsdb.DatasetPlacementScore})
	if len(keys) != 200 {
		b.Fatalf("bench store has %d sps series, want 200", len(keys))
	}
	// 200 series x 500 points; position the walk inside series 190, i.e.
	// 95% through the flattened stream.
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	curKey := keys[190].String()
	curAt := base.Add(250 * time.Minute)
	// A token's scope covers the resolution and aggregate as resolveRead
	// normalises them, so mint it from the normalised request.
	norm := req
	if _, err := resolveRead(db, &norm, norm.From, norm.To); err != nil {
		b.Fatal(err)
	}
	scope := cursorScope(norm)

	b.Run("cursor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			creq := req
			// A nanosecond skew per iteration mints a distinct token at
			// the same logical position, defeating the result cache
			// without moving the page.
			creq.Cursor = encodeCursor(scope, curKey, curAt.Add(time.Duration(i%1000)), 0)
			page, err := svc.QueryCursor(creq)
			if err != nil {
				b.Fatal(err)
			}
			if len(page.Series) == 0 {
				b.Fatal("empty page")
			}
		}
	})
}

// BenchmarkHandlerCacheHit measures the hit stage end to end inside the
// process: one gzip-accepting request for a cached query through
// Handler() — mux, gzip layer, request parsing, cache lookup and the
// write of the entry's stored body (200 series x 500 points).
func BenchmarkHandlerCacheHit(b *testing.B) {
	svc := NewService(benchDB(b, tsdb.DefaultShardCount()), catalog.Compact(1))
	h := svc.Handler()
	req := httptest.NewRequest("GET", "/api/v1/query?dataset="+tsdb.DatasetPlacementScore, nil)
	req.Header.Set("Accept-Encoding", "gzip")
	w := &discardResponseWriter{h: make(http.Header)}
	h.ServeHTTP(w, req) // the miss: computes the result and encodes the body
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		clear(w.h)
		h.ServeHTTP(w, req)
	}
	b.StopTimer()
	if st := svc.CacheStats(); w.status != http.StatusOK || st.BodyHits != uint64(b.N) {
		b.Fatalf("status %d, %d of %d requests served from stored bytes", w.status, st.BodyHits, b.N)
	}
}

// discardResponseWriter drops the body, so the benchmark measures the
// handler and not a recorder's buffer growth.
type discardResponseWriter struct {
	h      http.Header
	status int
}

func (w *discardResponseWriter) Header() http.Header         { return w.h }
func (w *discardResponseWriter) WriteHeader(status int)      { w.status = status }
func (w *discardResponseWriter) Write(b []byte) (int, error) { return len(b), nil }

// BenchmarkLatestFanOut measures the current-values endpoint across the
// whole archive, the dashboard's hot path.
func BenchmarkLatestFanOut(b *testing.B) {
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	db := benchDB(b, tsdb.DefaultShardCount())
	svc := NewService(db, catalog.Compact(1))
	k := tsdb.SeriesKey{Dataset: tsdb.DatasetPrice, Type: "tick", Region: "r0", AZ: "r0a"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One write per iteration keeps the generation moving, so this
		// measures the uncached fan-out path.
		if err := db.Append(k, base.Add(time.Duration(500+i)*time.Minute), float64(i)); err != nil {
			b.Fatal(err)
		}
		if _, err := svc.Latest(QueryRequest{}); err != nil {
			b.Fatal(err)
		}
	}
}
