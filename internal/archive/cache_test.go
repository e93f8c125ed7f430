package archive

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/tsdb"
)

var cacheT0 = time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)

// TestCacheInvalidation: a cached raw query, latest answer and cursor
// page are hits until a point is stored anywhere in the store — on their
// own series, on a series they do not read, or on a new series — and
// stay hits across writes that store nothing: an IfChanged batch whose
// values all equal their series' last, and a rejected out-of-order
// append. Whatever it serves equals what an uncached service computes.
func TestCacheInvalidation(t *testing.T) {
	kA := tsdb.SeriesKey{Dataset: tsdb.DatasetPlacementScore, Type: "m5.xlarge", Region: "us-east-1", AZ: "az0"}
	kB := kA
	kB.AZ = "az1"
	reqA := QueryRequest{Dataset: kA.Dataset, Type: kA.Type, Region: kA.Region, AZ: kA.AZ}
	reads := []struct {
		name string
		read func(s *Service) (any, error)
	}{
		{"query", func(s *Service) (any, error) { return s.Query(reqA) }},
		{"latest", func(s *Service) (any, error) { return s.Latest(reqA) }},
		{"cursor page", func(s *Service) (any, error) {
			req := reqA
			req.Limit = 1
			return s.QueryCursor(req)
		}},
	}
	writes := []struct {
		name       string
		write      func(db *tsdb.DB) error
		invalidate bool
	}{
		{"a point on the read series", func(db *tsdb.DB) error {
			return db.Append(kA, cacheT0.Add(time.Minute), 3)
		}, true},
		{"a point on another series", func(db *tsdb.DB) error {
			return db.Append(kB, cacheT0.Add(time.Minute), 4)
		}, true},
		{"a new series", func(db *tsdb.DB) error {
			kNew := kA
			kNew.Type = "c5.large"
			return db.Append(kNew, cacheT0, 9)
		}, true},
		{"an IfChanged batch that stores nothing", func(db *tsdb.DB) error {
			n, err := db.AppendBatchIfChanged([]tsdb.Entry{
				{Key: kA, At: cacheT0.Add(time.Minute), Value: 1},
				{Key: kB, At: cacheT0.Add(time.Minute), Value: 2},
			})
			if n != 0 {
				return fmt.Errorf("stored %d points, want 0", n)
			}
			return err
		}, false},
		{"a rejected out-of-order append", func(db *tsdb.DB) error {
			if err := db.Append(kA, cacheT0.Add(-time.Minute), 5); err == nil {
				return errors.New("an out-of-order append was accepted")
			}
			return nil
		}, false},
	}
	for _, r := range reads {
		for _, w := range writes {
			t.Run(r.name+"/"+w.name, func(t *testing.T) {
				db, err := tsdb.Open("")
				if err != nil {
					t.Fatal(err)
				}
				if _, err := db.AppendBatch([]tsdb.Entry{{Key: kA, At: cacheT0, Value: 1}, {Key: kB, At: cacheT0, Value: 2}}); err != nil {
					t.Fatal(err)
				}
				svc := NewService(db, catalog.Compact(1))
				for i := 0; i < 2; i++ {
					if _, err := r.read(svc); err != nil {
						t.Fatal(err)
					}
				}
				cache := func(name string) float64 { return metric(t, svc.reg, "spotlake_cache_"+name) }
				hits, inval := cache("hits_total"), cache("invalidations_total")
				if hits != 1 || cache("misses_total") != 1 {
					t.Fatalf("an identical repeat did not hit: %v", svc.reg.Sections()["cache"])
				}
				if err := w.write(db); err != nil {
					t.Fatal(err)
				}
				got, err := r.read(svc)
				if err != nil {
					t.Fatal(err)
				}
				if inval := cache("invalidations_total") - inval; w.invalidate && (inval != 1 || cache("hits_total") != hits) {
					t.Errorf("the entry was not invalidated: %v", svc.reg.Sections()["cache"])
				} else if !w.invalidate && (inval != 0 || cache("hits_total") != hits+1) {
					t.Errorf("the entry did not survive: %v", svc.reg.Sections()["cache"])
				}
				want, err := r.read(NewService(db, catalog.Compact(1)))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("served %+v, an uncached service computes %+v", got, want)
				}
			})
		}
	}
}

// TestPerShardCacheInvalidation: a point stored on any shard of the
// store invalidates a cached raw query and cursor page, whichever shard
// holds the series they read. See everyShardInvalidates.
func TestPerShardCacheInvalidation(t *testing.T) {
	t.Run("query", func(t *testing.T) {
		everyShardInvalidates(t, func(s *Service, req QueryRequest) (any, error) { return s.Query(req) })
	})
	t.Run("cursor page", func(t *testing.T) {
		everyShardInvalidates(t, func(s *Service, req QueryRequest) (any, error) {
			req.Limit = 1
			return s.QueryCursor(req)
		})
	})
}

// TestLatestPerShardCache is TestPerShardCacheInvalidation on the latest
// path.
func TestLatestPerShardCache(t *testing.T) {
	everyShardInvalidates(t, func(s *Service, req QueryRequest) (any, error) { return s.Latest(req) })
}

// everyShardInvalidates appends one point to each of 64 series of an
// 8-shard store in turn, the read series last, and checks that each one
// invalidates the cached answer of read, that the recomputed answer equals
// an uncached service's, and that an identical repeat hits again. Shard
// placement is seeded per open, so the 64 series spread over all eight
// shards with near certainty rather than by construction.
func everyShardInvalidates(t *testing.T, read func(s *Service, req QueryRequest) (any, error)) {
	t.Helper()
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]tsdb.SeriesKey, 64)
	seed := make([]tsdb.Entry, len(keys))
	for i := range keys {
		keys[i] = tsdb.SeriesKey{Dataset: tsdb.DatasetPlacementScore, Type: "m5.xlarge", Region: "us-east-1", AZ: fmt.Sprintf("az%d", (i+1)%len(keys))}
		seed[i] = tsdb.Entry{Key: keys[i], At: cacheT0, Value: float64(i)}
	}
	if _, err := db.AppendBatch(seed); err != nil {
		t.Fatal(err)
	}
	kA := keys[len(keys)-1]
	req := QueryRequest{Dataset: kA.Dataset, Type: kA.Type, Region: kA.Region, AZ: kA.AZ}
	svc := NewService(db, catalog.Compact(1))
	for i := 0; i < 2; i++ {
		if _, err := read(svc, req); err != nil {
			t.Fatal(err)
		}
	}
	cache := func(name string) float64 { return metric(t, svc.reg, "spotlake_cache_"+name) }
	if cache("hits_total") != 1 || cache("misses_total") != 1 {
		t.Fatalf("an identical repeat did not hit: %v", svc.reg.Sections()["cache"])
	}
	for i, k := range keys {
		hits, inval := cache("hits_total"), cache("invalidations_total")
		if err := db.Append(k, cacheT0.Add(time.Minute), float64(100+i)); err != nil {
			t.Fatal(err)
		}
		got, err := read(svc, req)
		if err != nil {
			t.Fatal(err)
		}
		if cache("invalidations_total") != inval+1 || cache("hits_total") != hits {
			t.Fatalf("a point on %v did not invalidate: %v", k, svc.reg.Sections()["cache"])
		}
		want, err := read(NewService(db, catalog.Compact(1)), req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("after a point on %v served %+v, an uncached service computes %+v", k, got, want)
		}
		if _, err := read(svc, req); err != nil {
			t.Fatal(err)
		}
		if cache("hits_total") != hits+1 {
			t.Fatalf("the recomputed entry did not hit: %v", svc.reg.Sections()["cache"])
		}
	}
}

// TestReadSeesAcknowledgedAppends: on a primary, a /api/v1/query or
// /api/v1/latest request sent after an append was acknowledged includes
// that append. Readers send the same two requests side by side, so
// identical misses overlap, while a writer appends one tick to every
// series per AppendBatch and publishes the acknowledged tick count after
// each return; a response must hold every tick published before its
// request was sent.
func TestReadSeesAcknowledgedAppends(t *testing.T) {
	const series, ticks, readers = 8, 200, 8
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	batch := make([]tsdb.Entry, series)
	appendTick := func(tick int) error {
		for i := range batch {
			batch[i] = tsdb.Entry{
				Key:   tsdb.SeriesKey{Dataset: tsdb.DatasetPlacementScore, Type: "m5.xlarge", Region: "us-east-1", AZ: fmt.Sprintf("az%d", i)},
				At:    cacheT0.Add(time.Duration(tick) * time.Minute),
				Value: float64(tick),
			}
		}
		_, err := db.AppendBatch(batch)
		return err
	}
	if err := appendTick(0); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewService(db, catalog.Compact(1)).Handler())
	defer srv.Close()

	var acked atomic.Int64 // ticks whose AppendBatch has returned
	acked.Store(1)
	// check sends one request and returns what its body lacks of the
	// ticks acknowledged before it was sent.
	check := func(path string, latest bool) error {
		want := int(acked.Load())
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		lastAcked := cacheT0.Add(time.Duration(want-1) * time.Minute)
		if latest {
			var got []LatestEntry
			if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
				return err
			}
			if len(got) != series {
				return fmt.Errorf("%s: %d series, want %d", path, len(got), series)
			}
			for _, e := range got {
				if e.At.Before(lastAcked) {
					return fmt.Errorf("%s: %v latest at %v, but tick %v was acknowledged before the request", path, e.Key, e.At, lastAcked)
				}
			}
			return nil
		}
		var got []SeriesResult
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
			return err
		}
		if len(got) != series {
			return fmt.Errorf("%s: %d series, want %d", path, len(got), series)
		}
		for _, r := range got {
			if len(r.Points) < want {
				return fmt.Errorf("%s: %v has %d points, but %d ticks were acknowledged before the request", path, r.Key, len(r.Points), want)
			}
		}
		return nil
	}

	stop := make(chan struct{})
	// progress carries one token per answered request; sized to the
	// readers so a reader's non-blocking send rarely finds it full.
	progress := make(chan struct{}, readers)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				path, latest := "/api/v1/query?dataset=sps", false
				if i%2 == 1 {
					path, latest = "/api/v1/latest?dataset=sps", true
				}
				if err := check(path, latest); err != nil {
					t.Error(err)
					failed.Store(true)
				}
				select {
				case progress <- struct{}{}:
				default:
				}
			}
		}(r)
	}
	// Each tick waits for a round of answers, so every tick overlaps
	// reads, and most reads miss on a generation a tick just moved.
	for tick := 1; tick < ticks && !failed.Load(); tick++ {
		if err := appendTick(tick); err != nil {
			t.Error(err)
			break
		}
		acked.Store(int64(tick + 1))
		for n := 0; n < readers; n++ {
			<-progress
		}
	}
	close(stop)
	wg.Wait()
}

// TestMetaExposesCacheStats checks the /api/v1/meta response carries the
// cache counters, and that they are the registry's spotlake_cache_*
// counters under the meta naming rule.
func TestMetaExposesCacheStats(t *testing.T) {
	s, _ := buildArchive(t)
	req := QueryRequest{Dataset: tsdb.DatasetPrice}
	if _, err := s.Query(req); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(req); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/v1/meta")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var m struct {
		Cache struct {
			Hits   float64 `json:"hits"`
			Misses float64 `json:"misses"`
		} `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Cache.Hits == 0 || m.Cache.Misses == 0 {
		t.Errorf("meta cache stats empty: %+v", m.Cache)
	}
	if h := metric(t, s.reg, "spotlake_cache_hits_total"); m.Cache.Hits != h {
		t.Errorf("meta cache.hits = %v, spotlake_cache_hits_total = %v", m.Cache.Hits, h)
	}
	if ms := metric(t, s.reg, "spotlake_cache_misses_total"); m.Cache.Misses != ms {
		t.Errorf("meta cache.misses = %v, spotlake_cache_misses_total = %v", m.Cache.Misses, ms)
	}
}

// TestGzipResponses checks that the API compresses for accepting clients
// and stays uncompressed otherwise, with identical decoded bodies.
func TestGzipResponses(t *testing.T) {
	s, cat := buildArchive(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	path := srv.URL + "/api/v1/query?dataset=sps&type=" + cat.Types()[0].Name

	plainReq, _ := http.NewRequest("GET", path, nil)
	plainReq.Header.Set("Accept-Encoding", "identity")
	plain, err := http.DefaultTransport.RoundTrip(plainReq)
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Body.Close()
	if ce := plain.Header.Get("Content-Encoding"); ce != "" {
		t.Fatalf("identity client got Content-Encoding %q", ce)
	}
	plainBody, err := io.ReadAll(plain.Body)
	if err != nil {
		t.Fatal(err)
	}

	gzReq, _ := http.NewRequest("GET", path, nil)
	gzReq.Header.Set("Accept-Encoding", "gzip")
	gz, err := http.DefaultTransport.RoundTrip(gzReq)
	if err != nil {
		t.Fatal(err)
	}
	defer gz.Body.Close()
	if ce := gz.Header.Get("Content-Encoding"); ce != "gzip" {
		t.Fatalf("gzip client got Content-Encoding %q", ce)
	}
	if vary := gz.Header.Get("Vary"); !strings.Contains(vary, "Accept-Encoding") {
		t.Errorf("Vary = %q, want Accept-Encoding", vary)
	}
	zr, err := gzip.NewReader(gz.Body)
	if err != nil {
		t.Fatal(err)
	}
	gzBody, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if string(gzBody) != string(plainBody) {
		t.Fatalf("gzip body (%d bytes decoded) differs from plain body (%d bytes)", len(gzBody), len(plainBody))
	}
	if cl := gz.ContentLength; cl > 0 && cl >= int64(len(plainBody)) {
		t.Errorf("compressed length %d not smaller than plain %d", cl, len(plainBody))
	}

	// An explicit refusal (q=0) must not be compressed despite the
	// header containing the substring "gzip".
	refuseReq, _ := http.NewRequest("GET", path, nil)
	refuseReq.Header.Set("Accept-Encoding", "gzip;q=0")
	refuse, err := http.DefaultTransport.RoundTrip(refuseReq)
	if err != nil {
		t.Fatal(err)
	}
	defer refuse.Body.Close()
	if ce := refuse.Header.Get("Content-Encoding"); ce != "" {
		t.Errorf("gzip;q=0 client got Content-Encoding %q", ce)
	}
}

func TestAcceptsGzip(t *testing.T) {
	cases := map[string]bool{
		"":                       false,
		"gzip":                   true,
		"gzip, deflate, br":      true,
		"deflate":                false,
		"*":                      true,
		"gzip;q=0":               false,
		"gzip;q=0.0":             false,
		"gzip; q=0":              false,
		"gzip;q=0.5":             true,
		"gzip;q=1.0":             true,
		"deflate, gzip;q=0":      false,
		"identity;q=1, gzip;q=0": false,
		"gzip;q=0.000;level=1":   false,
		"gzip;level=1":           true,
		"gzip;q=0, *":            false,
		"gzip;q=0, *;q=1":        false,
		"*;q=0":                  false,
		"deflate, *":             true,
		"*, gzip;q=0":            false,
		// Malformed or creatively-spelled q-values: every spelling of
		// zero refuses (RFC 9110 §12.4.2), and garbage that never names
		// a positive weight refuses too.
		"gzip;q=.0":    false,
		"gzip;q=.000":  false,
		"gzip;q=0.":    false,
		"gzip;q=.":     false,
		"gzip;q=":      false,
		"gzip;q=x":     false,
		"gzip;q=+0":    false,
		"gzip;q=-1":    false,
		"gzip;q=nan":   false,
		"gzip;q=-inf":  false,
		"gzip;q=.5":    true,
		"gzip;q=0.001": true,
		"*;q=.0":       false,
		"*;q=.0, gzip": true,
		"gzip;q=.0, *": false,
	}
	for header, want := range cases {
		if got := acceptsGzip(header); got != want {
			t.Errorf("acceptsGzip(%q) = %v, want %v", header, got, want)
		}
	}
}
