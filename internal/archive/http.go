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

	"repro/internal/obs"
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

// gzipLevel is the compression level of every gzip'd body, streamed or
// stored: the cheapest. BenchmarkEncodePage/gzip and /gzip-slice on one
// core, over an export page (5000 points in 6 series, 201 KB of JSON) and
// a region-wide slice (160 series of 3 points, 34 KB, mostly key text):
//
//	level 1   0.57 ms  24.7 KB     0.065 ms  2.86 KB
//	level 2   0.68 ms  23.6 KB     0.087 ms  2.84 KB
//	level 4   0.98 ms  21.9 KB     0.150 ms  2.71 KB
//	level 6   4.06 ms  20.4 KB     0.276 ms  2.10 KB   (the library default)
//
// The default saves 17 % of the bytes on the page and 27 % on the slice
// for seven and four times the CPU, and nothing in between is a better
// trade. A first serve is the only serve an export page or a cold
// slice gets, so its CPU is the server's capacity.
const gzipLevel = gzip.BestSpeed

// gzipPool recycles gzip writers across requests: at gzipLevel one holds
// about 1.2 MB of flate state (the default level's is 0.8 MB), which
// would otherwise churn the GC on every response.
var gzipPool = sync.Pool{New: func() any {
	gz, _ := gzip.NewWriterLevel(nil, gzipLevel) // fails only for a level gzip does not have
	return gz
}}

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
	wire   *obs.Counter // when a handler set it, counts the compressed bytes sent
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
			w.gz = gzipPool.Get().(*gzip.Writer)
			if w.wire != nil {
				w.gz.Reset(countedWriter{w.ResponseWriter, w.wire})
			} else {
				w.gz.Reset(w.ResponseWriter)
			}
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
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// The body is (at best) partially written under a success status;
		// ending the stream normally would hand the client a truncated
		// document that parses as complete. Kill the connection instead.
		panic(http.ErrAbortHandler)
	}
}

// parseQueryRequest extracts the common filter/window parameters.
func parseQueryRequest(q url.Values) (QueryRequest, error) {
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

// streamJSON answers status with the JSON body encode writes, handing it
// w's Flush so that a large body reaches the client as it is produced —
// a multi-megabyte window never materializes as one contiguous buffer.
//
// The first encode or write error stops the stream and aborts the
// connection (http.ErrAbortHandler): the usual cause is a client that
// vanished, and for anything else a truncated body must not be
// deliverable as a complete response. Under gzip the abort also skips
// the terminal flush, so the compressed stream ends torn rather than
// well-formed.
func streamJSON(w http.ResponseWriter, status int, encode func(w io.Writer, flush func()) error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	var flush func()
	if f, ok := w.(http.Flusher); ok {
		flush = f.Flush
	}
	if err := encode(w, flush); err != nil {
		panic(http.ErrAbortHandler)
	}
}

// countedWriter adds the size of every write it passes on to n.
type countedWriter struct {
	w io.Writer
	n *obs.Counter
}

func (c countedWriter) Write(b []byte) (int, error) {
	n, err := c.w.Write(b)
	c.n.Add(uint64(n))
	return n, err
}

// serveBody answers 200 with the query or latest body encode renders.
// A gzip client whose result has a cache entry gets the gzip body stored
// on that entry — built with encode if this is the first response to
// serve it — in one Write, with a Content-Length. Otherwise (the result
// was too large to cache, or the client refused gzip and w is not the
// gzip layer's writer) the body is streamed. Either way an encode failure
// aborts the connection.
func (s *Service) serveBody(w http.ResponseWriter, e *cacheEntry, encode func(w io.Writer, flush func()) error) {
	gw, gzipped := w.(*gzipResponseWriter)
	if !gzipped || e == nil {
		// What the encoder writes is the plain count; the wire count is what
		// the gzip layer makes of it, or the same bytes with no such layer.
		if gzipped {
			gw.wire = &s.respWireBytes
		}
		streamJSON(w, http.StatusOK, func(w io.Writer, flush func()) error {
			if !gzipped {
				w = countedWriter{w, &s.respWireBytes}
			}
			return encode(countedWriter{w, &s.respPlainBytes}, flush)
		})
		return
	}
	body, built, err := e.gzipBody(func(w io.Writer) error { return encode(w, nil) })
	if err != nil {
		panic(http.ErrAbortHandler)
	}
	if built {
		s.respPlainBytes.Add(uint64(e.plainLen))
	} else {
		s.cache.bodyHits.Add(1)
	}
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Encoding", "gzip")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.WriteHeader(http.StatusOK)
	// Counted first: with a Content-Length the client has the whole
	// response the moment Write returns, and may already be looking.
	s.respWireBytes.Add(uint64(len(body)))
	if _, err := w.Write(body); err != nil {
		panic(http.ErrAbortHandler)
	}
}

// setNextLink advertises the next page of a paginated walk: hdr carries
// the bare value and Link a ready-to-follow URL, u with param replaced in
// its parsed query q. The URL is built on a deep copy of q — mutating the
// url.Values the handler is still holding would silently rewrite every
// later read of it.
func setNextLink(w http.ResponseWriter, u *url.URL, q url.Values, hdr, param, value string) {
	w.Header().Set(hdr, value)
	next := make(url.Values, len(q)+1)
	for k, vs := range q {
		next[k] = append([]string(nil), vs...)
	}
	next.Set(param, value)
	nu := *u
	nu.RawQuery = next.Encode()
	w.Header().Set("Link", `<`+nu.RequestURI()+`>; rel="next"`)
}

// Handler returns the HTTP API of the archive service.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /api/v1/query", func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		req, err := parseQueryRequest(q)
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
			setNextLink(w, r.URL, q, "X-Next-Cursor", "cursor", page.NextCursor)
		}
		// Only the unpaginated response reports a total: a walk's would be
		// stale before its next page.
		if req.Limit == 0 && !q.Has("cursor") {
			total := 0
			for i := range page.Series {
				total += len(page.Series[i].Points)
			}
			w.Header().Set("X-Total-Points", strconv.Itoa(total))
		}
		s.serveBody(w, e, func(w io.Writer, flush func()) error { return writeSeriesJSON(w, page.Series, flush) })
	})

	mux.HandleFunc("GET /api/v1/latest", func(w http.ResponseWriter, r *http.Request) {
		req, err := parseQueryRequest(r.URL.Query())
		if err != nil {
			writeErr(w, http.StatusBadRequest, err)
			return
		}
		res, e, err := s.latest(req)
		if err != nil {
			queryErr(w, err)
			return
		}
		s.serveBody(w, e, func(w io.Writer, flush func()) error { return writeLatestJSON(w, res, flush) })
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
