package archive

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/tsdb"
)

// benchDB builds a store with many series so query fan-out has real work.
func benchDB(b *testing.B) *tsdb.DB {
	b.Helper()
	db, err := tsdb.Open("")
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
// across worker-pool sizes. Identical repeated queries
// are excluded from caching here by alternating the window each iteration.
func BenchmarkQueryFanOut(b *testing.B) {
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			svc := NewService(benchDB(b), catalog.Compact(1))
			svc.SetWorkers(workers)
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
	svc := NewService(benchDB(b), catalog.Compact(1))
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
	if metric(b, svc.reg, "spotlake_cache_hits_total") == 0 {
		b.Fatal("cache never hit")
	}
}

// BenchmarkQueryCursor measures locating a deep page — the walk is 95%
// done — via a keyset cursor: it binary-searches the sorted key list once
// and touches only the series still ahead of it. Tokens vary per
// iteration so the result cache never hits and the located page itself
// is identical work.
func BenchmarkQueryCursor(b *testing.B) {
	db := benchDB(b)
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
	svc := NewService(benchDB(b), catalog.Compact(1))
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
	if bodyHits := metric(b, svc.reg, "spotlake_cache_body_hits_total"); w.status != http.StatusOK || bodyHits != float64(b.N) {
		b.Fatalf("status %d, %v of %d requests served from stored bytes", w.status, bodyHits, b.N)
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
	db := benchDB(b)
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

// benchPage is one export page as the benchmark's archive serves it: 6
// series holding 5000 change-only points between them — on a 10-minute
// grid, a point only where the 1–10 value moved, one tick in four.
func benchPage() []SeriesResult {
	base := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	const points, perSeries = 5000, 900
	var page []SeriesResult
	rnd := uint32(1)
	for n := 0; n < points; {
		sr := SeriesResult{Key: tsdb.SeriesKey{
			Dataset: tsdb.DatasetPlacementScore, Type: fmt.Sprintf("m5.%dxlarge", 1+len(page)), Region: "us-east-1", AZ: "use1-az1"}}
		for tick, v := 0, 5; len(sr.Points) < perSeries && n < points; tick++ {
			rnd = rnd*1664525 + 1013904223
			if tick > 0 && rnd>>30 != 0 {
				continue
			}
			v = 1 + (v+int(rnd>>20)%9)%10
			sr.Points = append(sr.Points, tsdb.Point{At: base.Add(time.Duration(tick) * 10 * time.Minute), Value: float64(v)})
			n++
		}
		page = append(page, sr)
	}
	return page
}

// benchSlice is a region-wide slice of the same archive: 160 series (40
// types in 4 zones) of 3 change-only points each, so mostly key text.
func benchSlice() []SeriesResult {
	base := time.Date(2022, 1, 9, 0, 0, 0, 0, time.UTC)
	families := []string{"m5", "c5", "r5", "t3", "m6i", "c6i", "r6g", "i3", "g4dn", "x2gd"}
	sizes := []string{"large", "xlarge", "2xlarge", "8xlarge"}
	slice := make([]SeriesResult, 160)
	rnd := uint32(7)
	for i := range slice {
		slice[i].Key = tsdb.SeriesKey{Dataset: tsdb.DatasetPlacementScore,
			Type: families[i/16] + "." + sizes[i/4%4], Region: "us-east-1", AZ: fmt.Sprintf("use1-az%d", 1+i%4)}
		for tick := 0; len(slice[i].Points) < 3; tick++ {
			if rnd = rnd*1664525 + 1013904223; rnd>>30 == 0 {
				slice[i].Points = append(slice[i].Points, tsdb.Point{At: base.Add(time.Duration(tick) * 10 * time.Minute), Value: float64(1 + rnd>>20%10)})
			}
		}
	}
	return slice
}

// BenchmarkEncodePage measures the first serve of an export page stage
// by stage: the body encoder alone, the encoding/json code it replaced
// (the tests' reference), the encoder feeding the pooled gzip writer as a
// streamed response does, and gzip alone at four levels over the page's
// JSON and over a slice's — the table gzipLevel's comment quotes.
func BenchmarkEncodePage(b *testing.B) {
	page := benchPage()
	run := func(name string, points int, wireBytes func() int, op func() error) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := op(); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(points), "ns/point")
			b.ReportMetric(float64(wireBytes())/float64(points), "wire-B/point")
		})
	}
	render := func(series []SeriesResult) (plain *bytes.Buffer, points int) {
		plain = new(bytes.Buffer)
		if err := writeSeriesJSON(plain, series, nil); err != nil {
			b.Fatal(err)
		}
		for _, sr := range series {
			points += len(sr.Points)
		}
		return plain, points
	}
	plain, points := render(page)
	var wire countingDiscard
	run("encode", points, plain.Len, func() error { return writeSeriesJSON(io.Discard, page, nil) })
	run("encoding-json", points, plain.Len, func() error { return refSeriesJSON(io.Discard, page) })
	run("encode+gzip", points, wire.last, func() error {
		gz := gzipPool.Get().(*gzip.Writer)
		defer gzipPool.Put(gz)
		gz.Reset(wire.reset())
		if err := writeSeriesJSON(gz, page, nil); err != nil {
			return err
		}
		return gz.Close()
	})
	slicePlain, slicePoints := render(benchSlice())
	for _, level := range []int{1, 2, 4, 6} {
		gz, err := gzip.NewWriterLevel(nil, level)
		if err != nil {
			b.Fatal(err)
		}
		compress := func(plain *bytes.Buffer) func() error {
			return func() error {
				gz.Reset(wire.reset())
				if _, err := gz.Write(plain.Bytes()); err != nil {
					return err
				}
				return gz.Close()
			}
		}
		run(fmt.Sprintf("gzip/level=%d", level), points, wire.last, compress(plain))
		run(fmt.Sprintf("gzip-slice/level=%d", level), slicePoints, wire.last, compress(slicePlain))
	}
}

// countingDiscard drops what is written to it and remembers how much
// that was since the last reset.
type countingDiscard struct{ n int }

func (c *countingDiscard) Write(b []byte) (int, error) { c.n += len(b); return len(b), nil }
func (c *countingDiscard) reset() io.Writer            { c.n = 0; return c }
func (c *countingDiscard) last() int                   { return c.n }

// BenchmarkEncodeLatest measures the body encoder over a dashboard's
// latest answer, 160 entries.
func BenchmarkEncodeLatest(b *testing.B) {
	entries := make([]LatestEntry, 160)
	for i := range entries {
		entries[i] = LatestEntry{
			Key:   tsdb.SeriesKey{Dataset: tsdb.DatasetPlacementScore, Type: fmt.Sprintf("m5.%dxlarge", i%20), Region: fmt.Sprintf("region-%d", i/20), AZ: "az1"},
			At:    time.Date(2022, 1, 25, 0, 10*(i%6), 0, 0, time.UTC),
			Value: float64(1 + i%10),
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := writeLatestJSON(io.Discard, entries, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(entries)), "ns/entry")
}
