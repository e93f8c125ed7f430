package archive

// Tests for the stored response bodies on result-cache entries: a hit
// must hand the client exactly the bytes a miss (and today's streaming
// encoder) would, the bytes must never outlive the value they were
// encoded from, and one entry is encoded once however many requests
// arrive for it together.

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/tsdb"
)

// wireResponse is one response as it crossed the wire: the body before
// any decoding, and that body inflated when it came gzip'd.
type wireResponse struct {
	header http.Header
	length int64 // the response's Content-Length, -1 when chunked
	wire   []byte
	plain  []byte
}

// fetchWire GETs url asking for gzip or identity and reads the wire
// bytes itself (the transport must not decompress behind the test).
func fetchWire(t *testing.T, url string, gz bool) wireResponse {
	t.Helper()
	req, err := http.NewRequest("GET", url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept-Encoding", "identity")
	if gz {
		req.Header.Set("Accept-Encoding", "gzip")
	}
	resp, err := http.DefaultTransport.RoundTrip(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	wire, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	r := wireResponse{header: resp.Header, length: resp.ContentLength, wire: wire, plain: wire}
	if gotGz := resp.Header.Get("Content-Encoding") == "gzip"; gotGz != gz {
		t.Fatalf("GET %s (gzip asked: %v): Content-Encoding %q", url, gz, resp.Header.Get("Content-Encoding"))
	}
	if gz {
		zr, err := gzip.NewReader(bytes.NewReader(wire))
		if err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
		if r.plain, err = io.ReadAll(zr); err != nil {
			t.Fatalf("GET %s: inflating: %v", url, err)
		}
	}
	return r
}

// renderSeries is the series body as the exported methods' values encode
// — and as encoding/json would have encoded them.
func renderSeries(t *testing.T, series []SeriesResult) []byte {
	t.Helper()
	var buf, ref bytes.Buffer
	if err := writeSeriesJSON(&buf, series, nil); err != nil {
		t.Fatal(err)
	}
	if err := refSeriesJSON(&ref, series); err != nil || !bytes.Equal(buf.Bytes(), ref.Bytes()) {
		t.Fatalf("the body encoder and encoding/json (%v) disagree on this archive's series", err)
	}
	return buf.Bytes()
}

// bodyShape is one of the three cached response shapes: its request, and
// the body the exported method's value renders to.
type bodyShape struct {
	name   string
	path   string
	render func(t *testing.T, s *Service) []byte
}

func bodyShapes(filter string, req QueryRequest) []bodyShape {
	return []bodyShape{
		{"Query", "/api/v1/query?" + filter, func(t *testing.T, s *Service) []byte {
			res, err := s.Query(req)
			if err != nil {
				t.Fatal(err)
			}
			return renderSeries(t, res)
		}},
		{"QueryCursor", "/api/v1/query?" + filter + "&limit=7&cursor=", func(t *testing.T, s *Service) []byte {
			creq := req
			creq.Limit = 7
			page, err := s.QueryCursor(creq)
			if err != nil {
				t.Fatal(err)
			}
			return renderSeries(t, page.Series)
		}},
		{"Latest", "/api/v1/latest?" + filter, func(t *testing.T, s *Service) []byte {
			res, err := s.Latest(req)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := json.NewEncoder(&buf).Encode(res); err != nil {
				t.Fatal(err)
			}
			return buf.Bytes()
		}},
	}
}

// TestStoredBodyIdenticalToStream: for each cached shape, the inflated
// body of a miss, of the hit that follows, of an identity client's
// streamed response, and the rendering of the exported method's value
// are the same bytes under the same headers; the gzip'd ones carry a
// Content-Length, and only the hit counts as served from stored bytes.
func TestStoredBodyIdenticalToStream(t *testing.T) {
	for _, shape := range bodyShapes("dataset=sps", QueryRequest{Dataset: tsdb.DatasetPlacementScore}) {
		t.Run(shape.name, func(t *testing.T) {
			s, _ := buildArchive(t)
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()

			cache := func(name string) float64 { return metric(t, s.reg, "spotlake_cache_"+name) }
			miss := fetchWire(t, srv.URL+shape.path, true)
			if cache("misses_total") != 1 || cache("body_hits_total") != 0 || cache("entries") != 1 || cache("body_bytes") != float64(len(miss.wire)) {
				t.Fatalf("after the miss: %v, want 1 miss, 1 entry holding the %d bytes sent, no body hit", s.reg.Sections()["cache"], len(miss.wire))
			}
			hit := fetchWire(t, srv.URL+shape.path, true)
			if cache("hits_total") != 1 || cache("body_hits_total") != 1 {
				t.Fatalf("after the hit: %v, want 1 hit served from stored bytes", s.reg.Sections()["cache"])
			}
			identity := fetchWire(t, srv.URL+shape.path, false)
			if cache("hits_total") != 2 || cache("body_hits_total") != 1 {
				t.Fatalf("after the identity hit: %v, want a second hit that was streamed", s.reg.Sections()["cache"])
			}
			want := shape.render(t, s)

			if len(want) < 100 {
				t.Fatalf("body is only %d bytes: the archive matched nothing", len(want))
			}
			if !bytes.Equal(hit.wire, miss.wire) {
				t.Error("the hit's wire bytes differ from the miss's")
			}
			for name, got := range map[string]wireResponse{"miss": miss, "hit": hit, "identity": identity} {
				if !bytes.Equal(got.plain, want) {
					t.Errorf("%s body differs from the exported method's value:\n got %.200q\nwant %.200q", name, got.plain, want)
				}
				for _, h := range []string{"Content-Type", "X-Total-Points", "X-Next-Cursor", "Link", "X-Resolution", "Vary"} {
					if g, w := got.header.Get(h), miss.header.Get(h); g != w {
						t.Errorf("%s: %s = %q, the miss had %q", name, h, g, w)
					}
				}
			}
			for name, got := range map[string]wireResponse{"miss": miss, "hit": hit} {
				if got.length != int64(len(got.wire)) {
					t.Errorf("%s: Content-Length %d for %d wire bytes", name, got.length, len(got.wire))
				}
			}
			if shape.name == "QueryCursor" && miss.header.Get("X-Next-Cursor") == "" {
				t.Error("the cursor page has no next page: the shape's headers went untested")
			}
		})
	}
}

// TestStoredBodyNeverStale: an append to a shard the entry depends on, a
// new series matching its filter, and a store swap each make the next
// gzip'd response carry the new data — the bytes stored before are gone
// with their entry.
func TestStoredBodyNeverStale(t *testing.T) {
	k := tsdb.SeriesKey{Dataset: tsdb.DatasetPlacementScore, Type: "m5.xlarge", Region: "us-east-1", AZ: "az0"}
	req := QueryRequest{Dataset: k.Dataset, Type: k.Type}
	for _, shape := range bodyShapes("dataset=sps&type=m5.xlarge", req) {
		t.Run(shape.name, func(t *testing.T) {
			db, err := tsdb.OpenSharded("", 8)
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Append(k, cacheT0, 1); err != nil {
				t.Fatal(err)
			}
			s := NewService(db, catalog.Compact(1))
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()

			// Each step primes the entry's stored body with two requests,
			// changes the data, and demands the change in the next body.
			prev := fetchWire(t, srv.URL+shape.path, true).plain
			step := func(what string, change func()) {
				t.Helper()
				fetchWire(t, srv.URL+shape.path, true)
				if primed := fetchWire(t, srv.URL+shape.path, true); !bytes.Equal(primed.plain, prev) {
					t.Fatalf("before %s: the body changed with no write", what)
				}
				hits := metric(t, s.reg, "spotlake_cache_body_hits_total")
				change()
				got := fetchWire(t, srv.URL+shape.path, true)
				if want := shape.render(t, s); !bytes.Equal(got.plain, want) {
					t.Fatalf("after %s: body %q, want %q", what, got.plain, want)
				}
				if bytes.Equal(got.plain, prev) {
					t.Fatalf("after %s: the response still carries the old body %q", what, prev)
				}
				if metric(t, s.reg, "spotlake_cache_body_hits_total") != hits {
					t.Fatalf("after %s: the response was served from stored bytes", what)
				}
				prev = got.plain
			}
			step("an append to the read series", func() {
				if err := db.Append(k, cacheT0.Add(time.Minute), 2); err != nil {
					t.Fatal(err)
				}
			})
			step("a new matching series", func() {
				k2 := k
				k2.AZ = "az1"
				if err := db.Append(k2, cacheT0, 3); err != nil {
					t.Fatal(err)
				}
			})
			step("SwapDB", func() {
				db2, err := tsdb.OpenSharded("", 8)
				if err != nil {
					t.Fatal(err)
				}
				if err := db2.Append(k, cacheT0, 9); err != nil {
					t.Fatal(err)
				}
				s.SwapDB(db2)
				if entries, bodyBytes := metric(t, s.reg, "spotlake_cache_entries"), metric(t, s.reg, "spotlake_cache_body_bytes"); entries != 0 || bodyBytes != 0 {
					t.Fatalf("SwapDB left %v entries holding %v body bytes", entries, bodyBytes)
				}
			})
		})
	}
}

// TestStoredBodyEncodedOncePerEntry: 32 first requests for one key, held
// together until all have joined the leader's flight, cost one store
// read and one encode, and every client receives the same bytes.
func TestStoredBodyEncodedOncePerEntry(t *testing.T) {
	const clients = 32
	s, _ := buildArchive(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	ck := cacheKey("page", QueryRequest{Dataset: tsdb.DatasetPlacementScore, Resolution: "raw", Agg: "mean"})
	s.flight.leaderBarrier = func(key string) {
		deadline := time.Now().Add(10 * time.Second)
		for key == ck && s.flight.waiters(ck) < clients-1 {
			if time.Now().After(deadline) {
				t.Error("followers never joined the flight")
				return
			}
			runtime.Gosched()
		}
	}

	bodies := make([]wireResponse, clients)
	var wg sync.WaitGroup
	for i := range bodies {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			bodies[i] = fetchWire(t, srv.URL+"/api/v1/query?dataset=sps", true)
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	cache := func(name string) float64 { return metric(t, s.reg, "spotlake_cache_"+name) }
	if reads, coalesced := cache("misses_total")-cache("coalesced_total"), cache("coalesced_total"); reads != 1 || coalesced != clients-1 {
		t.Errorf("%v store reads, %v coalesced, want 1 and %d", reads, coalesced, clients-1)
	}
	if bodyHits := cache("body_hits_total"); bodyHits != clients-1 {
		t.Errorf("%v of %d responses were served without encoding, want all but one", bodyHits, clients)
	}
	for i := range bodies {
		if !bytes.Equal(bodies[i].wire, bodies[0].wire) {
			t.Fatalf("client %d received different bytes than client 0", i)
		}
	}
	if entries, bodyBytes := cache("entries"), cache("body_bytes"); entries != 1 || bodyBytes != float64(len(bodies[0].wire)) {
		t.Errorf("cache holds %v entries and %v body bytes, want 1 and %d", entries, bodyBytes, len(bodies[0].wire))
	}
}

// TestStoredBodyEncodeFailure: a value the encoder cannot render (one an
// older build stored; appends refuse them now) leaves no body on its
// entry, and every gzip'd request for it is aborted, not answered.
func TestStoredBodyEncodeFailure(t *testing.T) {
	s, _ := buildArchive(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	url := srv.URL + "/api/v1/query?dataset=sps"
	fetchWire(t, url, false) // streamed: installs the entry, stores no body
	e := s.cache.ll.Front().Value.(*cacheEntry)
	series := e.val.(*CursorPage).Series
	series[0].Points[0].Value = math.NaN()

	for i := 0; i < 2; i++ {
		req, _ := http.NewRequest("GET", url, nil)
		req.Header.Set("Accept-Encoding", "gzip")
		if resp, err := http.DefaultTransport.RoundTrip(req); err == nil {
			resp.Body.Close()
			t.Fatalf("request %d for an unencodable value was answered with status %d", i, resp.StatusCode)
		}
	}
	if body, built, err := e.gzipBody(nil); body != nil || built || err == nil {
		t.Errorf("after a failed encode the entry reports body %d bytes, built %v, err %v", len(body), built, err)
	}
	if metric(t, s.reg, "spotlake_cache_body_bytes") != 0 || metric(t, s.reg, "spotlake_cache_body_hits_total") != 0 {
		t.Errorf("a failed encode left %v", s.reg.Sections()["cache"])
	}
}

// TestOversizedResultStillStreams: a result over maxCachedPoints is not
// cached, so a gzip client's response is compressed as it streams — no
// Content-Length, nothing stored — with the body an identity client gets.
func TestOversizedResultStillStreams(t *testing.T) {
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	const perSeries = 1000
	var batch []tsdb.Entry
	for sr := 0; sr*perSeries <= maxCachedPoints; sr++ {
		k := tsdb.SeriesKey{Dataset: tsdb.DatasetPlacementScore, Type: "m5.xlarge", Region: "us-east-1", AZ: fmt.Sprintf("az%03d", sr)}
		for i := 0; i < perSeries; i++ {
			batch = append(batch, tsdb.Entry{Key: k, At: cacheT0.Add(time.Duration(i) * time.Minute), Value: float64(i % 7)})
		}
	}
	if n, err := db.AppendBatch(batch); err != nil || n != len(batch) {
		t.Fatalf("AppendBatch stored %d of %d: %v", n, len(batch), err)
	}
	s := NewService(db, catalog.Compact(1))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	gz := fetchWire(t, srv.URL+"/api/v1/query?dataset=sps", true)
	identity := fetchWire(t, srv.URL+"/api/v1/query?dataset=sps", false)
	if gz.header.Get("X-Total-Points") != strconv.Itoa(len(batch)) {
		t.Fatalf("X-Total-Points = %s, want %d", gz.header.Get("X-Total-Points"), len(batch))
	}
	if gz.length != -1 {
		t.Errorf("oversized gzip response has Content-Length %d: it was not streamed", gz.length)
	}
	if !bytes.Equal(gz.plain, identity.plain) {
		t.Error("gzip and identity bodies of the oversized result differ")
	}
	if cache := func(name string) float64 { return metric(t, s.reg, "spotlake_cache_"+name) }; cache("entries") != 0 || cache("body_bytes") != 0 || cache("body_hits_total") != 0 || cache("hits_total") != 0 {
		t.Errorf("oversized result touched the cache: %v", s.reg.Sections()["cache"])
	}
}

// TestCachePutInstallsFreshEntry: a put over a live key replaces the
// entry — the old one keeps its value and body for whoever still holds
// it, the new one starts with no body — and eviction and purge drop the
// stored bytes with their entries.
func TestCachePutInstallsFreshEntry(t *testing.T) {
	c := newResultCache(2)
	encode := func(s string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, s); return err }
	}
	old := c.put("k", 0, 0, "old")
	oldBody, built, err := old.gzipBody(encode("old"))
	if err != nil || !built {
		t.Fatalf("first gzipBody: built %v, err %v", built, err)
	}
	fresh := c.put("k", 0, 1, "new")
	if fresh == old || old.val != "old" || old.gen != 0 {
		t.Fatal("put over a live key updated the old entry in place")
	}
	if got := c.get("k", 0, 1); got != fresh {
		t.Fatal("get does not return the entry put installed")
	}
	if n := c.bodyBytes(); n != 0 {
		t.Errorf("the replaced entry's %d body bytes are still counted", n)
	}
	freshBody, built, err := fresh.gzipBody(encode("new"))
	if err != nil || !built || bytes.Equal(freshBody, oldBody) {
		t.Fatalf("the fresh entry came with the old body (built %v, err %v)", built, err)
	}
	if again, built, _ := fresh.gzipBody(encode("never run")); built || !bytes.Equal(again, freshBody) {
		t.Error("a second gzipBody re-encoded")
	}
	if c.entries() != 1 || c.bodyBytes() != int64(len(freshBody)) {
		t.Errorf("cache holds %d entries, %d body bytes, want 1 and %d", c.entries(), c.bodyBytes(), len(freshBody))
	}

	c.put("k2", 0, 1, "x")
	c.put("k3", 0, 1, "y") // evicts k, the least recently used
	if c.entries() != 2 || c.bodyBytes() != 0 {
		t.Errorf("after eviction: %d entries, %d body bytes, want 2 and 0", c.entries(), c.bodyBytes())
	}
	c.purge()
	if c.entries() != 0 || c.bodyBytes() != 0 {
		t.Errorf("after purge: %d entries, %d body bytes", c.entries(), c.bodyBytes())
	}
}

// TestResponseBytesCounters: the registry's two response-bytes counters
// add up to what the clients were sent. A miss counts its JSON once and
// its stored body once, the hit the stored body again and no JSON (the
// encoder did not run), an identity client the JSON on both sides; a
// result too large to store counts its JSON and the compressed stream as
// it left, trailer included.
func TestResponseBytesCounters(t *testing.T) {
	counters := func(s *Service) (plain, wire int) {
		return int(s.respPlainBytes.Value()), int(s.respWireBytes.Value())
	}
	for _, shape := range bodyShapes("dataset=sps", QueryRequest{Dataset: tsdb.DatasetPlacementScore}) {
		t.Run(shape.name, func(t *testing.T) {
			s, _ := buildArchive(t)
			srv := httptest.NewServer(s.Handler())
			defer srv.Close()
			miss := fetchWire(t, srv.URL+shape.path, true)
			if plain, wire := counters(s); plain != len(miss.plain) || wire != len(miss.wire) {
				t.Fatalf("after the miss: plain %d, wire %d, want %d and %d", plain, wire, len(miss.plain), len(miss.wire))
			}
			fetchWire(t, srv.URL+shape.path, true)
			if plain, wire := counters(s); plain != len(miss.plain) || wire != 2*len(miss.wire) {
				t.Fatalf("after the hit: plain %d, wire %d, want %d and %d", plain, wire, len(miss.plain), 2*len(miss.wire))
			}
			fetchWire(t, srv.URL+shape.path, false)
			if plain, wire := counters(s); plain != 2*len(miss.plain) || wire != 2*len(miss.wire)+len(miss.plain) {
				t.Fatalf("after the identity response: plain %d, wire %d, want %d and %d",
					plain, wire, 2*len(miss.plain), 2*len(miss.wire)+len(miss.plain))
			}
			got := counterValues(scrapeExposition(t, srv.URL))
			if plain, wire := counters(s); got["spotlake_response_plain_bytes_total"] != float64(plain) || got["spotlake_response_wire_bytes_total"] != float64(wire) {
				t.Errorf("the exposition reports %v and %v, the service counted %d and %d",
					got["spotlake_response_plain_bytes_total"], got["spotlake_response_wire_bytes_total"], plain, wire)
			}
		})
	}

	t.Run("streamed gzip", func(t *testing.T) {
		db, err := tsdb.Open("")
		if err != nil {
			t.Fatal(err)
		}
		k := tsdb.SeriesKey{Dataset: tsdb.DatasetPlacementScore, Type: "m5.xlarge", Region: "us-east-1", AZ: "az0"}
		batch := make([]tsdb.Entry, maxCachedPoints+1)
		for i := range batch {
			batch[i] = tsdb.Entry{Key: k, At: cacheT0.Add(time.Duration(i) * time.Minute), Value: float64(i % 7)}
		}
		if n, err := db.AppendBatch(batch); err != nil || n != len(batch) {
			t.Fatalf("AppendBatch stored %d of %d: %v", n, len(batch), err)
		}
		s := NewService(db, catalog.Compact(1))
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		gz := fetchWire(t, srv.URL+"/api/v1/query?dataset=sps", true)
		if gz.length != -1 {
			t.Fatal("the oversized result was not streamed")
		}
		if plain, wire := counters(s); plain != len(gz.plain) || wire != len(gz.wire) {
			t.Errorf("plain %d, wire %d, want %d and %d", plain, wire, len(gz.plain), len(gz.wire))
		}
	})
}
