package archive

import (
	"compress/gzip"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/tsdb"
)

// indexHTML is the static front end — the piece served from object storage
// in the paper's deployment. It fetches dynamic content from the query API,
// mirroring the AJAX design of Figure 2.
const indexHTML = `<!DOCTYPE html>
<html lang="en">
<head><meta charset="utf-8"><title>SpotLake — Spot Instance Data Archive</title></head>
<body>
<h1>SpotLake</h1>
<p>Historical archive of spot placement scores, interruption ratios, savings,
and spot prices. Query the API:</p>
<ul>
<li><code>GET /api/v1/meta</code> — archive summary</li>
<li><code>GET /api/v1/query?dataset=sps&amp;type=m5.xlarge&amp;region=us-east-1</code> — historical series
(paginate with <code>&amp;limit=N</code> and follow the <code>X-Next-Cursor</code>
header or the <code>Link</code> it comes with — stable under live collection and
portable across replicas)</li>
<li><code>GET /api/v1/latest?dataset=if&amp;region=us-east-1</code> — current values</li>
<li><code>GET /api/v1/catalog/types</code>, <code>GET /api/v1/catalog/regions</code></li>
</ul>
<pre id="meta">loading…</pre>
<script>
fetch('/api/v1/meta').then(r => r.json())
  .then(m => { document.getElementById('meta').textContent = JSON.stringify(m, null, 2); })
  .catch(e => { document.getElementById('meta').textContent = String(e); });
</script>
</body>
</html>
`

// gzipPool recycles gzip writers across requests; compressing a large
// query window allocates a ~800KB state block that would otherwise churn
// the GC on every response.
var gzipPool = sync.Pool{New: func() any { return gzip.NewWriter(nil) }}

// gzipResponseWriter routes the body through a gzip writer that is
// attached lazily on the first Write: until a body byte exists, no
// Content-Encoding header is committed and no gzip frame is emitted, so
// a bodyless response (204, 304, a HEAD-style handler) stays genuinely
// empty instead of carrying a 20-byte compressed-nothing frame. The
// handler's WriteHeader is deferred for the same reason — the status is
// recorded and only sent downstream once the body/no-body question is
// settled.
//
// A handler that has already set Content-Encoding is writing an encoded
// body of its own (a cache entry's stored gzip bytes): its writes pass
// through untouched, Content-Length included, and no gzip writer is ever
// attached.
type gzipResponseWriter struct {
	http.ResponseWriter
	gz     *gzip.Writer
	raw    bool // the handler's body is already encoded; pass it through
	status int
}

func (w *gzipResponseWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
}

func (w *gzipResponseWriter) Write(b []byte) (int, error) {
	if w.gz == nil && !w.raw {
		if w.status == 0 {
			w.status = http.StatusOK
		}
		if w.Header().Get("Content-Encoding") != "" {
			w.raw = true
			w.ResponseWriter.WriteHeader(w.status)
		} else {
			w.Header().Set("Content-Encoding", "gzip")
			// Any pre-set length describes the uncompressed body.
			w.Header().Del("Content-Length")
			w.ResponseWriter.WriteHeader(w.status)
			gz := gzipPool.Get().(*gzip.Writer)
			gz.Reset(w.ResponseWriter)
			w.gz = gz
		}
	}
	if w.raw {
		return w.ResponseWriter.Write(b)
	}
	return w.gz.Write(b)
}

// Flush implements http.Flusher so streaming handlers can push partial
// responses through the compression layer. Before the first body byte
// it is a no-op — flushing nothing must not commit headers or emit an
// empty gzip frame, preserving the lazy-commit semantics for bodyless
// responses. Afterwards it drains the gzip stream (a sync flush, so the
// bytes emitted decode without waiting for the trailer) and then pushes
// the underlying writer.
func (w *gzipResponseWriter) Flush() {
	if w.gz == nil && !w.raw {
		return
	}
	if w.gz != nil {
		// A flush error is sticky in the gzip writer: the next Write
		// returns it, which is where streaming handlers abort.
		_ = w.gz.Flush()
	}
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// finish flushes the compressed stream after the handler returns. With
// no body written it forwards the bare status (if any); a passed-through
// body is already complete; otherwise it closes the gzip stream and
// reports the close error — which is the only place a failed terminal
// flush surfaces, since the handler already returned success.
func (w *gzipResponseWriter) finish() error {
	if w.gz == nil {
		if w.status != 0 && !w.raw {
			w.ResponseWriter.WriteHeader(w.status)
		}
		return nil
	}
	err := w.gz.Close()
	// Reset on the next Get clears any error state, so the writer is
	// reusable even after a failed close.
	gzipPool.Put(w.gz)
	w.gz = nil
	return err
}

// acceptsGzip parses an Accept-Encoding header: gzip is acceptable when
// a "gzip" member appears without a zero q-weight, or — with no explicit
// "gzip" member at all — when a non-refused "*" appears. An explicit
// "gzip" member always wins over "*" (RFC 9110: the most specific match
// governs).
func acceptsGzip(header string) bool {
	starOK := false
	for _, part := range strings.Split(header, ",") {
		coding, params, _ := strings.Cut(strings.TrimSpace(part), ";")
		c := strings.ToLower(strings.TrimSpace(coding))
		if c != "gzip" && c != "*" {
			continue
		}
		refused := false
		for _, p := range strings.Split(params, ";") {
			p = strings.ToLower(strings.ReplaceAll(p, " ", ""))
			if v, ok := strings.CutPrefix(p, "q="); ok {
				// RFC 9110 §12.4.2: a weight of zero refuses the coding.
				// Parse numerically so every spelling of zero (0, 0.0,
				// .0, 0.000) refuses, and treat an unparseable weight as
				// a refusal too — garbage never asked for the coding.
				// The negated comparison keeps NaN (which ParseFloat
				// accepts) in the refused branch.
				q, err := strconv.ParseFloat(v, 64)
				refused = err != nil || !(q > 0)
				break
			}
		}
		if c == "gzip" {
			return !refused
		}
		starOK = starOK || !refused
	}
	return starOK
}

// withGzip compresses responses for clients that accept it. Big query
// windows serialize to many megabytes of highly repetitive JSON; gzip
// typically cuts them by an order of magnitude. Compression is committed
// lazily on the first body byte (see gzipResponseWriter), and a failed
// terminal flush aborts the connection: ending the chunked stream
// normally would hand the client a silently truncated body that still
// parses as a complete successful response.
func withGzip(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Add("Vary", "Accept-Encoding")
		if !acceptsGzip(r.Header.Get("Accept-Encoding")) {
			h.ServeHTTP(w, r)
			return
		}
		gw := &gzipResponseWriter{ResponseWriter: w}
		// Recycle the pooled writer even when the handler panics past
		// its first body byte (finish never runs then): the connection
		// is being torn down, so no terminal flush is owed to it, but
		// dropping the ~KBs of flate state to GC on every aborted
		// request would defeat the pool. Get's Reset clears the state.
		defer func() {
			if gw.gz != nil {
				gzipPool.Put(gw.gz)
				gw.gz = nil
			}
		}()
		h.ServeHTTP(gw, r)
		if err := gw.finish(); err != nil {
			panic(http.ErrAbortHandler)
		}
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "")
	if err := enc.Encode(v); err != nil {
		// The body is (at best) partially written under a success status;
		// ending the stream normally would hand the client a truncated
		// document that parses as complete. Kill the connection instead.
		panic(http.ErrAbortHandler)
	}
}

// parseQueryRequest extracts the common filter/window parameters.
func parseQueryRequest(r *http.Request) (QueryRequest, error) {
	q := r.URL.Query()
	req := QueryRequest{
		Dataset: q.Get("dataset"),
		Type:    q.Get("type"),
		Region:  q.Get("region"),
		AZ:      q.Get("az"),
	}
	if s := q.Get("from"); s != "" {
		t, err := time.Parse(time.RFC3339, s)
		if err != nil {
			// Name the offending parameter: a raw time.Parse error tells
			// the client what was malformed but not which of its (possibly
			// many) parameters carried it.
			return req, badParam("from", "archive: from must be an RFC 3339 timestamp (e.g. 2022-01-01T00:00:00Z), got %q", s)
		}
		req.From = t
	}
	if s := q.Get("to"); s != "" {
		t, err := time.Parse(time.RFC3339, s)
		if err != nil {
			return req, badParam("to", "archive: to must be an RFC 3339 timestamp (e.g. 2022-01-01T00:00:00Z), got %q", s)
		}
		req.To = t
	}
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return req, badParam("limit", "archive: limit must be a non-negative integer, got %q", s)
		}
		req.Limit = n
	}
	if q.Has("offset") {
		return req, errOffsetRemoved
	}
	req.Cursor = q.Get("cursor")
	req.Resolution = q.Get("resolution")
	req.Agg = q.Get("agg")
	return req, nil
}

// queryErr maps a query-path failure to its response: a cold-block read
// failure is the store's fault and must be a 500 — returning 400 (or
// worse, a truncated 200) would blame the client for corrupt block
// files — while everything else (bad parameters, bad cursor tokens,
// unknown datasets) stays a 400.
func queryErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	if errors.Is(err, tsdb.ErrColdRead) {
		status = http.StatusInternalServerError
	}
	writeErr(w, status, err)
}

// streamFlushBytes is how much body streamSeriesJSON lets accumulate
// between flushes. Each flush is a gzip sync-flush plus a chunked socket
// write, which a flush per series would charge a 160-series, 480-point
// response 160 times; by bytes, a small response is flushed once, at its
// end, by net/http, while a large one still reaches the client as it is
// produced.
const streamFlushBytes = 32 << 10

// writeSeriesJSON renders series as a JSON array into w, one series at
// a time: `[`, the elements as json.Encoder writes them (each followed
// by a newline — interelement whitespace, still one valid JSON array)
// separated by `,`, then `]` and a newline. With a non-nil flush it
// calls it whenever streamFlushBytes have been written since the last
// call. It stops at the first error.
func writeSeriesJSON(w io.Writer, series []SeriesResult, flush func()) error {
	if len(series) == 0 {
		_, err := io.WriteString(w, "[]\n")
		return err
	}
	cw := &countingWriter{w: w}
	if _, err := io.WriteString(cw, "["); err != nil {
		return err
	}
	enc := json.NewEncoder(cw)
	for i := range series {
		if i > 0 {
			if _, err := io.WriteString(cw, ","); err != nil {
				return err
			}
		}
		if err := enc.Encode(series[i]); err != nil {
			return err
		}
		if flush != nil && cw.n >= streamFlushBytes {
			flush()
			cw.n = 0
		}
	}
	_, err := io.WriteString(cw, "]\n")
	return err
}

// countingWriter counts the bytes written through it.
type countingWriter struct {
	w io.Writer
	n int
}

func (c *countingWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n += n
	return n, err
}

// streamSeriesJSON writes a JSON array of series results one series at a
// time (see writeSeriesJSON), pushing the (possibly gzip'd) response to
// the client every streamFlushBytes, so a multi-megabyte window never
// materializes a second time as one contiguous JSON buffer and the
// client sees the first series without waiting for the last. The body
// shape is identical to json.Marshal of the slice.
//
// The first write error stops the stream and aborts the connection
// (http.ErrAbortHandler): the usual cause is a client that vanished,
// and for anything else a truncated array must not be deliverable as a
// complete response. Under gzip the abort also skips the terminal
// flush, so the compressed stream ends torn rather than well-formed.
func streamSeriesJSON(w http.ResponseWriter, status int, series []SeriesResult) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	var flush func()
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	if err := writeSeriesJSON(w, series, flush); err != nil {
		panic(http.ErrAbortHandler)
	}
}

// serveStored answers 200 with the gzip body stored on the cache entry
// holding the response's value, building it with encode if this is the
// first response to serve the entry: one Write, with a Content-Length.
// It reports false, having written nothing, when the response must be
// streamed instead: the result was too large to cache (no entry), or
// the client refused gzip (w is not the gzip layer's writer). An encode
// failure aborts the connection, as a failed streaming encode does.
func (s *Service) serveStored(w http.ResponseWriter, e *cacheEntry, encode func(io.Writer) error) bool {
	if _, gzipped := w.(*gzipResponseWriter); !gzipped || e == nil {
		return false
	}
	body, built, err := e.gzipBody(encode)
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	if !built {
		s.cache.bodyHits.Add(1)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Encoding", "gzip")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		panic(http.ErrAbortHandler)
	}
	return true
}

// serveSeries answers 200 with series as a JSON array: from e's stored
// bytes when it can, streamed otherwise.
func (s *Service) serveSeries(w http.ResponseWriter, e *cacheEntry, series []SeriesResult) {
	if !s.serveStored(w, e, func(w io.Writer) error { return writeSeriesJSON(w, series, nil) }) {
		streamSeriesJSON(w, http.StatusOK, series)
	}
}

// setNextLink advertises the next page of a paginated walk: hdr carries
// the bare value and Link a ready-to-follow URL with param replaced.
// The URL is built on a deep copy of the request's parsed query —
// mutating the url.Values a handler is still holding (the old code
// shared the map) would silently rewrite every later read of it.
func setNextLink(w http.ResponseWriter, r *http.Request, hdr, param, value string) {
	w.Header().Set(hdr, value)
	next := make(url.Values, len(r.URL.Query())+1)
	for k, vs := range r.URL.Query() {
		next[k] = append([]string(nil), vs...)
	}
	next.Set(param, value)
	nu := *r.URL
	nu.RawQuery = next.Encode()
	w.Header().Set("Link", `<`+nu.RequestURI()+`>; rel="next"`)
}

// Handler returns the HTTP API of the archive service.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /api/v1/query", func(w http.ResponseWriter, r *http.Request) {
		req, err := parseQueryRequest(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		// One service call answers every shape: with neither limit nor
		// cursor the page is the whole result, a limit alone is the first
		// page of a walk, and a cursor — a fixed (series, timestamp)
		// position, so slow walkers stay consistent under live collection
		// — resumes one.
		page, e, err := s.queryCursor(req)
		if err != nil {
			queryErr(w, err)
			return
		}
		// The tier that answered, so `auto` clients know which it was.
		w.Header().Set("X-Resolution", page.Resolution)
		if page.NextCursor != "" {
			setNextLink(w, r, "X-Next-Cursor", "cursor", page.NextCursor)
		}
		// Only the unpaginated response reports a total: a walk's would be
		// stale before its next page.
		if req.Limit == 0 && !r.URL.Query().Has("cursor") {
			total := 0
			for i := range page.Series {
				total += len(page.Series[i].Points)
			}
			w.Header().Set("X-Total-Points", strconv.Itoa(total))
		}
		s.serveSeries(w, e, page.Series)
	})

	mux.HandleFunc("GET /api/v1/latest", func(w http.ResponseWriter, r *http.Request) {
		req, err := parseQueryRequest(r)
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		res, e, err := s.latest(req)
		if err != nil {
			queryErr(w, err)
			return
		}
		if !s.serveStored(w, e, func(w io.Writer) error { return json.NewEncoder(w).Encode(res) }) {
			writeJSON(w, http.StatusOK, res)
		}
	})

	mux.HandleFunc("GET /api/v1/meta", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Meta())
	})

	mux.HandleFunc("GET /api/v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		// Prometheus text exposition over the same registry the meta
		// sections read; like meta it is admission- and gate-exempt so an
		// overloaded or stale server stays scrapeable.
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := s.reg.WritePrometheus(w); err != nil {
			// Mid-body write failure: the client vanished or the
			// connection died. A torn exposition must not end as a
			// well-formed response.
			panic(http.ErrAbortHandler)
		}
	})

	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		// Liveness only: the process is up and serving its mux. Readiness
		// (is this node safe to route queries to?) is /readyz's question.
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, "ok\n")
	})

	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, r *http.Request) { s.handleReadyz(w) })

	mux.HandleFunc("GET /api/v1/catalog/types", func(w http.ResponseWriter, r *http.Request) {
		type typeInfo struct {
			Name  string  `json:"name"`
			Class string  `json:"class"`
			Size  string  `json:"size"`
			VCPU  int     `json:"vcpu"`
			Mem   float64 `json:"memoryGiB"`
		}
		var out []typeInfo
		for _, t := range s.cat.Types() {
			out = append(out, typeInfo{Name: t.Name, Class: string(t.Class), Size: string(t.Size), VCPU: t.VCPU, Mem: t.MemoryGiB})
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /api/v1/catalog/regions", func(w http.ResponseWriter, r *http.Request) {
		type regionInfo struct {
			Code  string   `json:"code"`
			Short string   `json:"short"`
			AZs   []string `json:"azs"`
		}
		var out []regionInfo
		for _, reg := range s.cat.Regions() {
			out = append(out, regionInfo{Code: reg.Code, Short: reg.Short, AZs: reg.AZs})
		}
		writeJSON(w, http.StatusOK, out)
	})

	mux.HandleFunc("GET /api/v1/datasets", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.Datasets())
	})

	mux.HandleFunc("GET /api/v1/replication/manifest", s.handleReplManifest)

	mux.HandleFunc("GET /{$}", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/html; charset=utf-8")
		_, _ = w.Write([]byte(indexHTML))
	})

	// Catch-all: unknown paths (and wrong methods on known ones) answer
	// in the error envelope instead of the mux's plain-text defaults, so
	// every non-2xx body on the surface parses the same way.
	known := map[string]bool{
		"/": true, "/api/v1/query": true, "/api/v1/latest": true,
		"/api/v1/meta": true, "/api/v1/metrics": true,
		"/healthz": true, "/readyz": true,
		"/api/v1/catalog/types":   true,
		"/api/v1/catalog/regions": true, "/api/v1/datasets": true,
		"/api/v1/replication/manifest": true,
	}
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && known[r.URL.Path] {
			w.Header().Set("Allow", http.MethodGet)
			writeAPIError(w, http.StatusMethodNotAllowed, ErrCodeMethodNotAllowed, "",
				fmt.Errorf("archive: %s does not allow %s (only GET)", r.URL.Path, r.Method))
			return
		}
		writeAPIError(w, http.StatusNotFound, ErrCodeNotFound, "",
			fmt.Errorf("archive: no such endpoint %s", r.URL.Path))
	})

	// Replication artifact downloads bypass the gzip layer: they are
	// served with http.ServeContent, whose Range and Content-Length
	// semantics a transparent recompression layer would break — and the
	// payloads (compressed blocks, binary WAL records) barely compress
	// anyway.
	outer := http.NewServeMux()
	outer.HandleFunc("GET /api/v1/replication/file/{name...}", s.handleReplFile)
	outer.Handle("/", withGzip(mux))

	// Admission wraps everything so throttled and shed requests pay the
	// absolute minimum (two atomic checks and a tiny JSON error), and
	// the recorded handler latency covers compression like everything
	// else a client waits on; the follower staleness gate sits outside
	// even that — a known-stale replica answers without burning an
	// admission slot. With no controller set this is the bare gzip'd mux.
	return s.withFollowerGate(withAdmission(s.admission, outer))
}
