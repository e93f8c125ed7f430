package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/archive"
	"repro/internal/tsdb"
)

// The traced pass. Spans are put around calls into each layer from the
// bench's own files — spans inside internal/archive and internal/tsdb
// are a later change — so one request is not traced once but replayed
// in five "universes", each a fresh open of the same directory working
// through the same sample in the same order, single-threaded
// (SetWorkers(1), one client, one universe at a time), so that every
// universe sees the same cache states and a child's time subtracts from
// its parent's:
//
//	A  HTTP, gzip, handler wrapped      loadgen.request ⊃ archive.handler
//	B  HTTP, identity, handler wrapped  archive.handler
//	C  Service.Query/QueryCursor/Latest archive.service
//	D  DB.Keys + DB.Query per key       tsdb.keys, tsdb.read (only where C missed the result cache)
//	E  HTTP, gzip, nothing wrapped      the untraced baseline for trace.overhead_ratio
//
// http.self = A.request − A.handler; archive.gzip = A.handler − B.handler;
// archive.encode = B.handler − C.service; archive.service_self =
// C.service − D.keys − D.read. D replays only what the public tsdb
// surface can express: rollup reads (trend), the cursor's count pass and
// Latest's last-point lookups are approximated or left in
// archive.service_self (see README).

// traced is one request of the sample and everything the universes
// learned about it.
type traced struct {
	req    request
	path   string // with the cursor, for pages
	cursor string
	// reads are the per-series windows universe D replays: the request's
	// own window, or for pages and latest what the response held.
	reads []seriesRead
	miss  bool // universe C computed it (no result-cache hit)

	request, handlerGzip, handlerIdentity, service, keys, read, untraced time.Duration
}

type seriesRead struct {
	key      tsdb.SeriesKey
	from, to time.Time
}

// universe is one fresh open of the archive with the serving stack on a
// loopback listener.
type universe struct {
	db   *tsdb.DB
	svc  *archive.Service
	srv  *http.Server
	addr string
	cl   *client

	mu      sync.Mutex
	handler [2]time.Time // the wrapped handler's last start and end
}

func openUniverse(dir string, m *model, wrap bool) (*universe, error) {
	db, svc, err := openService(dir, 0, m)
	if err != nil {
		return nil, err
	}
	svc.SetWorkers(1)
	u := &universe{db: db, svc: svc}
	h := svc.Handler()
	if wrap {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			t0 := time.Now()
			inner.ServeHTTP(w, r)
			t1 := time.Now()
			u.mu.Lock()
			u.handler = [2]time.Time{t0, t1}
			u.mu.Unlock()
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return nil, err
	}
	u.srv = newHTTPServer(h)
	go func() { _ = u.srv.Serve(ln) }() // ends with ErrServerClosed at close
	u.addr = ln.Addr().String()
	u.cl = newClient(u.addr)
	return u, nil
}

func (u *universe) close() error {
	u.cl.close()
	_ = u.srv.Close() // the store closes next either way
	return u.db.Close()
}

func (u *universe) lastHandler() (time.Time, time.Time) {
	u.mu.Lock()
	defer u.mu.Unlock()
	return u.handler[0], u.handler[1]
}

// trace runs the five universes over r.dir and folds the spans into the
// per-layer trace metrics. The universes are open side by side and each
// request goes through all five before the next is drawn, so that the
// figures subtracted from one another were measured within milliseconds
// of each other: the machine's speed drifts by a tenth within a second.
func (r *run) trace() (err error) {
	tr := r.tr
	lastTick := baseTicks - 1
	if r.w.live {
		lastTick = r.flushedTick
	}
	var us [5]*universe
	defer func() {
		for _, u := range us {
			if u == nil {
				continue
			}
			if cerr := u.close(); err == nil {
				err = cerr
			}
		}
	}()
	for i, wrap := range [5]bool{true, true, false, false, false} {
		if us[i], err = openUniverse(r.dir, r.m, wrap); err != nil {
			return fmt.Errorf("trace: %w", err)
		}
	}
	a, b, c, d, e := us[0], us[1], us[2], us[3], us[4]

	var sample []*traced
	gen := newGenerator(r.m, r.w, r.seed^0x7ace)
	cursor, region := "", int(r.seed%nRegions)
	hits := 0.0
	for len(sample) < traceSample {
		t := &traced{}
		if r.w.rate > 0 {
			t.req = gen.next(lastTick)
			t.path = t.req.path
		} else {
			t.req = request{kind: kindPage, typ: -1, region: region, toTick: lastTick}
			q := url.Values{"dataset": {dataset}, "region": {r.m.regions[region]}, "limit": {fmt.Sprint(pageLimit)}}
			t.req.path = "/api/v1/query?" + q.Encode()
			t.path, t.cursor = t.req.path+"&cursor="+url.QueryEscape(cursor), cursor
		}
		req := len(sample) + 1

		// A: gzip, handler wrapped. Its answer also plans D's reads.
		t0 := time.Now()
		res, next := a.cl.fetch(t.path, true, true)
		if !res.ok {
			return fmt.Errorf("trace: %s: %w", t.path, res.err)
		}
		h0, h1 := a.lastHandler()
		t.request, t.handlerGzip = res.done.Sub(t0), h1.Sub(h0)
		id := tr.add(0, req, "loadgen.request", t0, res.done)
		tr.add(id, req, "archive.handler", h0, h1)
		plain, err := r.gz.inflate(res.body, res.gzipped)
		if err == nil {
			err = t.planReads(r.m, plain)
		}
		if err != nil {
			return fmt.Errorf("trace: %s: %w", t.path, err)
		}

		// B: identity encoding, handler wrapped.
		if res, _ = b.cl.fetch(t.path, false, false); !res.ok {
			return fmt.Errorf("trace: %s: %w", t.path, res.err)
		}
		h0, h1 = b.lastHandler()
		t.handlerIdentity = h1.Sub(h0)
		tr.add(0, req, "archive.handler.identity", h0, h1)

		// E: gzip, nothing wrapped.
		t0 = time.Now()
		if res, _ = e.cl.fetch(t.path, true, false); !res.ok {
			return fmt.Errorf("trace: %s: %w", t.path, res.err)
		}
		t.untraced = res.done.Sub(t0)

		// C: the service called directly; the scrape after the call tells
		// whether it hit the result cache.
		q := archive.QueryRequest{Dataset: dataset, From: tickTime(t.req.fromTick)}
		if t.req.typ >= 0 {
			q.Type = r.m.types[t.req.typ]
		}
		if t.req.region >= 0 {
			q.Region = r.m.regions[t.req.region]
		}
		if k := t.req.kind; k == kindSlice || k == kindScan || k == kindTrend {
			q.To = tickTime(t.req.toTick)
		}
		switch t.req.kind {
		case kindPage:
			q.From, q.Limit, q.Cursor = time.Time{}, pageLimit, t.cursor
		case kindTrend:
			q.Resolution = "1h"
		}
		t0 = time.Now()
		switch t.req.kind {
		case kindLatest:
			_, err = c.svc.Latest(q)
		case kindPage:
			_, err = c.svc.QueryCursor(q)
		default:
			_, err = c.svc.Query(q)
		}
		t1 := time.Now()
		if err != nil {
			return fmt.Errorf("trace: service call for %s: %w", t.path, err)
		}
		t.service = t1.Sub(t0)
		tr.add(0, req, "archive.service", t0, t1)
		scr, _, err := scrapeMetrics(c.addr)
		if err != nil {
			return err
		}
		t.miss = scr["spotlake_cache_hits_total"] == hits
		hits = scr["spotlake_cache_hits_total"]

		// D: what a miss cost in tsdb.
		if t.miss {
			f := tsdb.KeyFilter{Dataset: dataset, Type: q.Type, Region: q.Region}
			t0 = time.Now()
			d.db.Keys(f)
			t1 = time.Now()
			t.keys = t1.Sub(t0)
			tr.add(0, req, "tsdb.keys", t0, t1)
			for _, sr := range t.reads {
				q0 := time.Now()
				if _, err := d.db.Query(sr.key, sr.from, sr.to); err != nil {
					return fmt.Errorf("trace: tsdb read: %w", err)
				}
				q1 := time.Now()
				t.read += q1.Sub(q0)
				tr.add(0, req, "tsdb.read", q0, q1)
			}
		}

		sample = append(sample, t)
		if cursor = next; r.w.rate == 0 && next == "" {
			region = (region + 1) % nRegions
		}
	}

	r.foldTrace(sample)
	return tr.write(filepath.Join(r.outDir, "trace-"+r.w.name+".jsonl"))
}

// planReads works out the per-series reads universe D replays for the
// request: its window over the series its filter selects, or — for a
// page or latest, whose reads the public tsdb surface cannot express —
// the span of each series the response actually held.
func (t *traced) planReads(m *model, body []byte) error {
	switch t.req.kind {
	case kindRecent, kindSlice, kindScan:
		for _, j := range m.match(t.req.typ, t.req.region) {
			t.reads = append(t.reads, seriesRead{key: m.keys[j], from: tickTime(t.req.fromTick), to: tickTime(t.req.toTick)})
		}
		return nil
	case kindLatest:
		return scanLatest(body, func(k tsdb.SeriesKey, at int64, _ float64) error {
			at0 := time.Unix(at, 0).UTC()
			t.reads = append(t.reads, seriesRead{key: k, from: at0, to: at0})
			return nil
		})
	case kindPage:
		return scanQuery(body, func(k tsdb.SeriesKey) error {
			t.reads = append(t.reads, seriesRead{key: k})
			return nil
		}, func(at int64, _ float64) error {
			sr := &t.reads[len(t.reads)-1]
			if sr.to = time.Unix(at, 0).UTC(); sr.from.IsZero() {
				sr.from = sr.to
			}
			return nil
		})
	}
	return nil // trend: rollup reads stay inside archive.service_self
}

// foldTrace turns the sample's spans into self times per layer.
func (r *run) foldTrace(sample []*traced) {
	pos := func(d time.Duration) time.Duration { return max(d, 0) }
	var total, untraced, httpSelf, gzip, encode, svcSelf, keys, read []time.Duration
	for _, t := range sample {
		total = append(total, t.request)
		untraced = append(untraced, t.untraced)
		httpSelf = append(httpSelf, pos(t.request-t.handlerGzip))
		gzip = append(gzip, pos(t.handlerGzip-t.handlerIdentity))
		encode = append(encode, pos(t.handlerIdentity-t.service))
		svcSelf = append(svcSelf, pos(t.service-t.keys-t.read))
		keys = append(keys, t.keys)
		read = append(read, t.read)
	}
	l := r.res.PerLayer
	p50 := func(d []time.Duration) float64 { return pct(sortedMs(d), 0.50) }
	l["http.self_ms_p50"] = p50(httpSelf)
	l["archive.gzip_ms_p50"] = p50(gzip)
	l["archive.encode_ms_p50"] = p50(encode)
	l["archive.service_self_ms_p50"] = p50(svcSelf)
	l["tsdb.keys_ms_p50"] = p50(keys)
	l["tsdb.read_ms_p50"] = p50(read)
	l["trace.read_p50_ms"] = p50(total)
	// Accounted: the six layer figures above, added up as a reader of the
	// table would, against the round trip of universe E, which no span
	// touched. Medians need not add and the universes need not agree, so
	// this can fall short of 1; when it does the table misleads.
	layers := l["http.self_ms_p50"] + l["archive.gzip_ms_p50"] + l["archive.encode_ms_p50"] +
		l["archive.service_self_ms_p50"] + l["tsdb.keys_ms_p50"] + l["tsdb.read_ms_p50"]
	l["trace.accounted_ratio"] = ratio(layers, p50(untraced))
	l["trace.overhead_ratio"] = ratio(p50(total), p50(untraced))
	r.res.Samples["trace"] = len(sample)
}

// write stores the spans, one JSON object a line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
