package archive

// Regression tests for the HTTP layer's streaming plumbing: the gzip
// writer must forward Flush (without breaking its lazy commit), the
// series streamer must push the body by bytes and abort the connection
// on the first write error, next-page Link headers must not alias the
// handler's parsed query, and malformed time parameters must name
// themselves in the error.

import (
	"bytes"
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

	"repro/internal/tsdb"
)

// The compile-time half of the Flusher bug: handlers discover the
// capability by type assertion, so losing the method loses streaming
// silently.
var _ http.Flusher = (*gzipResponseWriter)(nil)

// streamSeriesJSON streams series as the query handler does when it has
// no stored body to serve.
func streamSeriesJSON(w http.ResponseWriter, status int, series []SeriesResult) {
	streamJSON(w, status, func(w io.Writer, flush func()) error { return writeSeriesJSON(w, series, flush) })
}

func sampleSeries(n int) []SeriesResult {
	out := make([]SeriesResult, n)
	for i := range out {
		out[i] = SeriesResult{
			Key: tsdb.SeriesKey{Dataset: "sps", Type: fmt.Sprintf("m5.%dxlarge", i+1), Region: "us-east-1", AZ: "use1-az1"},
			Points: []tsdb.Point{
				{At: time.Date(2022, 1, 1, 0, 10*i, 0, 0, time.UTC), Value: float64(i)},
			},
		}
	}
	return out
}

// TestGzipFlushForwardsPartialBody: Flush before the first body byte is
// a no-op (lazy commit preserved); after a write it drains the gzip
// stream so the bytes already sent decode without the trailer, and
// forwards the flush downstream.
func TestGzipFlushForwardsPartialBody(t *testing.T) {
	rec := httptest.NewRecorder()
	gw := &gzipResponseWriter{ResponseWriter: rec}

	gw.Flush()
	if rec.Flushed {
		t.Error("Flush before any body byte reached the underlying writer")
	}
	if rec.Body.Len() != 0 || rec.Header().Get("Content-Encoding") != "" {
		t.Error("Flush before any body byte committed the response")
	}

	if _, err := io.WriteString(gw, "hello, stream"); err != nil {
		t.Fatal(err)
	}
	gw.Flush()
	if !rec.Flushed {
		t.Fatal("Flush after a body write was not forwarded to the underlying writer")
	}
	// A sync flush makes everything written so far decodable mid-stream —
	// this is what lets a client see page 1 while page 2 computes.
	zr, err := gzip.NewReader(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatal(err)
	}
	partial := make([]byte, len("hello, stream"))
	if _, err := io.ReadFull(zr, partial); err != nil {
		t.Fatalf("flushed bytes not decodable mid-stream: %v", err)
	}
	if string(partial) != "hello, stream" {
		t.Fatalf("decoded %q", partial)
	}

	if err := gw.finish(); err != nil {
		t.Fatal(err)
	}
	zr, err = gzip.NewReader(strings.NewReader(rec.Body.String()))
	if err != nil {
		t.Fatal(err)
	}
	full, err := io.ReadAll(zr)
	if err != nil || string(full) != "hello, stream" {
		t.Fatalf("final stream decoded to %q, %v", full, err)
	}
}

// flushRecorder records how much body had been written at each push to
// the client.
type flushRecorder struct {
	*httptest.ResponseRecorder
	flushedAt []int
}

func (f *flushRecorder) Flush() { f.flushedAt = append(f.flushedAt, f.Body.Len()) }

// TestStreamSeriesJSONFlushesByBytes: the streamer pushes to the client
// once streamFlushBytes have accumulated, not once a series — a large
// body's first flush arrives before its last series is written and no
// flush follows another by less than the threshold, a small body is not
// flushed mid-stream at all — and the streamed body is a valid JSON
// array equal to marshaling the slice at once.
func TestStreamSeriesJSONFlushesByBytes(t *testing.T) {
	small := sampleSeries(3)
	rec := &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	streamSeriesJSON(rec, http.StatusOK, small)
	if len(rec.flushedAt) != 0 {
		t.Errorf("a %d-byte body was flushed mid-stream at %v", rec.Body.Len(), rec.flushedAt)
	}
	var got any
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatalf("streamed body is not a JSON array: %v\n%s", err, rec.Body.String())
	}
	marshaled, err := json.Marshal(small)
	if err != nil {
		t.Fatal(err)
	}
	var want any
	if err := json.Unmarshal(marshaled, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("streamed body decoded to %v, want %v", got, want)
	}

	large := sampleSeries(4 * streamFlushBytes / 100) // each element is over 100 bytes
	rec = &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	streamSeriesJSON(rec, http.StatusOK, large)
	lastSeries := bytes.LastIndex(rec.Body.Bytes(), []byte(`{"key"`))
	if len(rec.flushedAt) < 4 || rec.flushedAt[0] >= lastSeries {
		t.Fatalf("a %d-byte body was flushed at %v: want the first flush before the last series (byte %d)",
			rec.Body.Len(), rec.flushedAt, lastSeries)
	}
	prev := 0
	for _, at := range rec.flushedAt {
		if at-prev < streamFlushBytes {
			t.Errorf("flush at byte %d follows the one at %d by less than %d", at, prev, streamFlushBytes)
		}
		prev = at
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil || len(got.([]any)) != len(large) {
		t.Fatalf("the large streamed body is not a JSON array of %d series: %v", len(large), err)
	}

	// The empty window stays a plain [] with no flush churn.
	rec = &flushRecorder{ResponseRecorder: httptest.NewRecorder()}
	streamSeriesJSON(rec, http.StatusOK, nil)
	if body := rec.Body.String(); body != "[]\n" || len(rec.flushedAt) != 0 {
		t.Errorf("empty stream body = %q, flushed at %v", body, rec.flushedAt)
	}
}

// failAfterWriter fails every Write past a budget of successful calls,
// modeling a client that disconnects mid-array.
type failAfterWriter struct {
	h      http.Header
	budget int
	calls  int
}

func (f *failAfterWriter) Header() http.Header { return f.h }
func (f *failAfterWriter) WriteHeader(int)     {}
func (f *failAfterWriter) Write(b []byte) (int, error) {
	f.calls++
	if f.calls > f.budget {
		return 0, errors.New("client gone")
	}
	return len(b), nil
}

// TestStreamSeriesJSONAbortsOnWriteError: the first failed write kills
// the connection via http.ErrAbortHandler — a truncated array must
// never be completed into something that parses — and nothing more is
// written after the failure. The encoder writes every streamFlushBytes,
// so the body is one long enough for a third write.
func TestStreamSeriesJSONAbortsOnWriteError(t *testing.T) {
	w := &failAfterWriter{h: make(http.Header), budget: 2}
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("write error did not abort the stream")
			}
			if err, ok := r.(error); !ok || !errors.Is(err, http.ErrAbortHandler) {
				t.Fatalf("panicked with %v, want http.ErrAbortHandler", r)
			}
		}()
		streamSeriesJSON(w, http.StatusOK, sampleSeries(4*streamFlushBytes/100))
	}()
	if w.calls != w.budget+1 {
		t.Errorf("writer saw %d calls, want exactly %d (budget + the failing one): the stream kept writing past the error", w.calls, w.budget+1)
	}
}

// TestStreamSeriesJSONAbortsUnderGzip: the same abort works through the
// compression layer, where the write error surfaces via the sticky
// gzip flush. The handler must panic ErrAbortHandler (skipping the
// terminal flush) instead of handing the client a well-formed truncated
// stream.
func TestStreamSeriesJSONAbortsUnderGzip(t *testing.T) {
	h := withGzip(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		streamSeriesJSON(w, http.StatusOK, sampleSeries(4))
	}))
	req := httptest.NewRequest("GET", "/api/v1/query?dataset=sps", nil)
	req.Header.Set("Accept-Encoding", "gzip")
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("gzip'd stream to a broken client completed normally")
		}
		if err, ok := r.(error); !ok || !errors.Is(err, http.ErrAbortHandler) {
			t.Fatalf("panicked with %v, want http.ErrAbortHandler", r)
		}
	}()
	h.ServeHTTP(&failingResponseWriter{h: make(http.Header)}, req)
}

// TestSetNextLinkClonesQuery: building the next-page Link must not
// mutate the request's parsed query — the handler still reads it after
// setting headers, and the old shared-map construction silently
// rewrote the current cursor under it.
func TestSetNextLinkClonesQuery(t *testing.T) {
	r := httptest.NewRequest("GET", "/api/v1/query?dataset=sps&limit=5&cursor=tok1", nil)
	rawBefore := r.URL.RawQuery
	q := r.URL.Query()
	rec := httptest.NewRecorder()

	setNextLink(rec, r.URL, q, "X-Next-Cursor", "cursor", "tok2")

	if got := q.Get("cursor"); got != "tok1" {
		t.Errorf("handler's query map mutated: cursor = %q, want tok1", got)
	}
	if r.URL.RawQuery != rawBefore {
		t.Errorf("request RawQuery mutated to %q", r.URL.RawQuery)
	}
	if got := rec.Header().Get("X-Next-Cursor"); got != "tok2" {
		t.Errorf("X-Next-Cursor = %q", got)
	}
	link := rec.Header().Get("Link")
	if !strings.Contains(link, "cursor=tok2") || !strings.Contains(link, "dataset=sps") ||
		!strings.Contains(link, "limit=5") || !strings.HasSuffix(link, `>; rel="next"`) {
		t.Errorf("Link = %q, want the full query with only cursor replaced", link)
	}
	if strings.Contains(link, "tok1") {
		t.Errorf("Link %q still carries the current page's cursor", link)
	}
}

// TestParseQueryRequestNamesBadTimeParam: a malformed from/to must say
// which parameter is bad — a bare time.Parse error leaves a client with
// several timestamp parameters guessing.
func TestParseQueryRequestNamesBadTimeParam(t *testing.T) {
	for _, tc := range []struct{ param, value string }{
		{"from", "yesterday"},
		{"to", "2022-13-99"},
	} {
		r := httptest.NewRequest("GET", "/api/v1/query?dataset=sps&"+tc.param+"="+tc.value, nil)
		_, err := parseQueryRequest(r.URL.Query())
		if err == nil {
			t.Fatalf("%s=%s parsed", tc.param, tc.value)
		}
		if !strings.Contains(err.Error(), tc.param+" must be an RFC 3339 timestamp") ||
			!strings.Contains(err.Error(), tc.value) {
			t.Errorf("%s error %q does not name the parameter and its value", tc.param, err)
		}
	}
	// And the handler surfaces it as a 400 with the same labeled message.
	s, _ := buildArchive(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/api/v1/query?dataset=sps&from=yesterday")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(body), "from must be an RFC 3339 timestamp") {
		t.Errorf("400 body %q does not label the bad parameter", body)
	}
}
