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
				db, err := tsdb.OpenSharded("", 8)
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
				before := svc.CacheStats()
				if before.Hits != 1 || before.Misses != 1 {
					t.Fatalf("an identical repeat did not hit: %+v", before)
				}
				if err := w.write(db); err != nil {
					t.Fatal(err)
				}
				got, err := r.read(svc)
				if err != nil {
					t.Fatal(err)
				}
				st := svc.CacheStats()
				if inval := st.Invalidations - before.Invalidations; w.invalidate && (inval != 1 || st.Hits != before.Hits) {
					t.Errorf("the entry was not invalidated: %+v", st)
				} else if !w.invalidate && (inval != 0 || st.Hits != before.Hits+1) {
					t.Errorf("the entry did not survive: %+v", st)
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
	db, err := tsdb.OpenSharded("", 8)
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
	if st := svc.CacheStats(); st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("an identical repeat did not hit: %+v", st)
	}
	for i, k := range keys {
		before := svc.CacheStats()
		if err := db.Append(k, cacheT0.Add(time.Minute), float64(100+i)); err != nil {
			t.Fatal(err)
		}
		got, err := read(svc, req)
		if err != nil {
			t.Fatal(err)
		}
		if st := svc.CacheStats(); st.Invalidations != before.Invalidations+1 || st.Hits != before.Hits {
			t.Fatalf("a point on %v did not invalidate: %+v", k, st)
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
		if st := svc.CacheStats(); st.Hits != before.Hits+1 {
			t.Fatalf("the recomputed entry did not hit: %+v", st)
		}
	}
}

// TestMetaExposesCacheStats checks the /api/v1/meta response carries the
// cache counters.
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
		Cache CacheStats `json:"cache"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	if m.Cache.Hits == 0 || m.Cache.Misses == 0 {
		t.Errorf("meta cache stats empty: %+v", m.Cache)
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
