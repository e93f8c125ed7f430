// Package archive implements SpotLake's serving layer (paper Figure 2): the
// query service over the time-series archive plus the web API through which
// users fetch historical spot datasets.
//
// The paper's deployment is serverless — static files on object storage, an
// API gateway, and a query function reading Timestream. Here the same
// data-plane shape is an http.Handler: stateless handler functions over the
// tsdb store, plus an embedded static front-end page. Handlers keep no
// mutable state, preserving the design's scaling property.
package archive

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/tsdb"
)

// MaxSeriesPerQuery bounds how many series one query may return, like the
// paper service's response limits.
const MaxSeriesPerQuery = 2000

// queryCacheSize bounds the LRU result cache. Entries self-invalidate
// when a point is stored anywhere or the store is swapped, so the size
// only trades memory for hit rate on repeated identical queries.
const queryCacheSize = 128

// maxCachedPoints bounds the size of a single cached query result.
const maxCachedPoints = 100_000

// Service answers archive queries from the time-series store. Queries fan
// out over matching series with a bounded worker pool sized to the machine,
// and repeated identical queries are answered from an LRU cache guarded by
// the store's generation: an entry stays valid until a point is stored
// anywhere or the store is swapped, so a collection tick evicts every
// entry.
type Service struct {
	// dbv holds the store serving reads. It is swappable: a replication
	// follower installs a freshly reopened replica via SwapDB after each
	// applied delta, while every query path captures the pointer once at
	// entry and runs entirely against that capture. dbEpoch counts swaps;
	// cache entries record it so results computed against a replaced
	// store can never validate against its successor (whose generation
	// counter restarts and could collide).
	dbv      atomic.Pointer[tsdb.DB]
	dbEpoch  atomic.Uint64
	cat      *catalog.Catalog
	datasets map[string]bool
	workers  int
	cache    *resultCache
	// flight coalesces identical uncached computations onto one store
	// read (see singleflight.go); admission, when set, gates the HTTP
	// layer (see admission.go).
	flight    flightGroup
	admission *Admission
	// respPlainBytes counts the JSON the body encoder produced for query
	// and latest responses, respWireBytes what those responses put on the
	// wire: the compressed bytes of gzip'd ones (a stored body once per
	// response it serves), the JSON itself for identity clients.
	respPlainBytes, respWireBytes obs.Counter
	// follower, when set, marks the service a read replica: writes and
	// replication-source endpoints are refused, and reads carry a
	// staleness bound (see replication.go).
	follower *followerState
	// reg is the service's metrics registry: every value /api/v1/meta
	// and /api/v1/metrics carry but meta's schema and replication role.
	// Always non-nil; wired at construction with the cache, singleflight,
	// response and store metrics, extended by SetAdmission, SetFollower,
	// and NewPuller.
	reg *obs.Registry
}

// NewService builds the query service over a store and the catalog it was
// collected from. The four single-vendor datasets are queryable by
// default; AllowDatasets extends the set (e.g. for multi-vendor archives).
func NewService(db *tsdb.DB, cat *catalog.Catalog) *Service {
	s := &Service{
		cat:      cat,
		datasets: make(map[string]bool),
		workers:  runtime.GOMAXPROCS(0),
		cache:    newResultCache(queryCacheSize),
		reg:      obs.NewRegistry(),
	}
	s.dbv.Store(db)
	s.AllowDatasets(tsdb.DatasetPlacementScore, tsdb.DatasetInterruptFree,
		tsdb.DatasetPrice, tsdb.DatasetSavings)
	s.registerMetrics()
	return s
}

// Registry returns the service's metrics registry, for callers that add
// process-level metrics next to the service's own (cmd wiring).
func (s *Service) Registry() *obs.Registry { return s.reg }

// registerMetrics wires the construction-time metrics: the result cache
// and singleflight counters (registered over the structs' own atomics —
// one state, two surfaces) and the store's metrics through the s.store
// indirection, so a follower's SwapDB re-points every store series at
// the replica now serving.
func (s *Service) registerMetrics() {
	s.reg.RegisterCounter("spotlake_cache_hits_total",
		"Result cache hits.", &s.cache.hits)
	s.reg.RegisterCounter("spotlake_cache_misses_total",
		"Result cache misses (invalidations and coalesced included).", &s.cache.miss)
	s.reg.RegisterCounter("spotlake_cache_invalidations_total",
		"Cache entries evicted because a point was stored, or the store swapped, since they were computed.", &s.cache.inval)
	s.reg.RegisterCounter("spotlake_cache_coalesced_total",
		"Cache misses that joined an identical in-flight computation.", &s.flight.coalesced)
	s.reg.RegisterCounter("spotlake_cache_body_hits_total",
		"Responses written from a cache entry's stored gzip body, without encoding.", &s.cache.bodyHits)
	s.reg.GaugeFunc("spotlake_cache_entries",
		"Entries the result cache holds.", func() float64 { return float64(s.cache.entries()) })
	s.reg.GaugeFunc("spotlake_cache_body_bytes",
		"Total size of the gzip response bodies stored on cache entries.", func() float64 { return float64(s.cache.bodyBytes()) })
	s.reg.RegisterCounter("spotlake_response_plain_bytes_total",
		"JSON bytes the body encoder produced for query and latest responses.", &s.respPlainBytes)
	s.reg.RegisterCounter("spotlake_response_wire_bytes_total",
		"Body bytes query and latest responses sent, after compression; stored-body hits included.", &s.respWireBytes)
	tsdb.RegisterMetrics(s.reg, s.store)
	s.reg.GaugeFunc("spotlake_replication_checkpoint_seq",
		"The serving store's committed checkpoint sequence.", func() float64 {
			db := s.store()
			if db == nil || !db.Durable() {
				return 0
			}
			return float64(db.ReplicationPosition())
		})
}

// store returns the store currently serving reads.
func (s *Service) store() *tsdb.DB { return s.dbv.Load() }

// storeRef captures the serving store together with the swap epoch to
// tag its cache entries with. The epoch is read first: if a swap races
// the capture, the pair is at worst (old epoch, new store), whose cache
// entries fail the epoch check and are recomputed — never (new epoch,
// old store), which could poison the new store's cache.
func (s *Service) storeRef() (*tsdb.DB, uint64) {
	epoch := s.dbEpoch.Load()
	return s.dbv.Load(), epoch
}

// SwapDB atomically replaces the store serving reads and returns the old
// one. In-flight requests finish against the store they captured at
// entry, so the caller must keep the returned store open until they have
// drained (the follower's puller closes it after a grace period — a read
// racing the close fails with the store's "closed" error, never a wrong
// answer, and is not counted as a corrupt cold read).
// The result cache is purged; the epoch bump keeps any racing put from
// surviving into the new store's cache.
func (s *Service) SwapDB(db *tsdb.DB) *tsdb.DB {
	old := s.dbv.Swap(db)
	s.dbEpoch.Add(1)
	s.cache.purge()
	return old
}

// SetWorkers overrides the fan-out worker pool size (minimum 1); the
// default is GOMAXPROCS. Benchmarks use it to measure 1 vs N workers.
func (s *Service) SetWorkers(n int) {
	if n < 1 {
		n = 1
	}
	s.workers = n
}

// SetAdmission installs an admission controller: Handler() wraps the API
// in it, and its metrics join the registry. Nil (the default) serves
// without admission control. The controller's counters and the handler
// latency histogram register on the service registry; installing a
// replacement controller re-points the metric names at it.
func (s *Service) SetAdmission(a *Admission) {
	s.admission = a
	if a != nil {
		a.registerMetrics(s.reg)
	}
}

// fanOut runs fn(i) for i in [0, n) on a bounded worker pool and waits.
// Output slots are per-index, so results are deterministic regardless of
// scheduling.
func (s *Service) fanOut(n int, fn func(int)) {
	workers := s.workers
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// cacheKey renders the (kind, filter, window, resolution, page) tuple
// canonically. The page — limit and cursor token — is part of the key:
// two requests that differ only in their page return different point
// sets, and a cache that ignored the page would serve the first page for
// every page. Resolution and aggregate are included after normalization
// (resolveRead), so `auto` shares entries with the explicit resolution it
// picked.
func cacheKey(kind string, req QueryRequest) string {
	return kind + "\x00" + req.Dataset + "\x00" + req.Type + "\x00" + req.Region + "\x00" + req.AZ +
		"\x00" + strconv.FormatInt(req.From.UnixNano(), 36) + "\x00" + strconv.FormatInt(req.To.UnixNano(), 36) +
		"\x00" + strconv.Itoa(req.Limit) + "\x00" + req.Cursor +
		"\x00" + req.Resolution + "\x00" + req.Agg
}

// AllowDatasets registers additional queryable dataset names.
func (s *Service) AllowDatasets(names ...string) {
	for _, n := range names {
		s.datasets[n] = true
	}
}

// Datasets returns the queryable dataset names, sorted.
func (s *Service) Datasets() []string {
	out := make([]string, 0, len(s.datasets))
	for n := range s.datasets {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// DB exposes the store currently serving reads (used by analysis
// tooling). On a follower the pointer is replaced by SwapDB as deltas
// apply; callers holding it see a consistent-but-frozen replica.
func (s *Service) DB() *tsdb.DB { return s.store() }

// Catalog returns the inventory the archive covers.
func (s *Service) Catalog() *catalog.Catalog { return s.cat }

// QueryRequest selects series and a time window. Empty string fields match
// anything; zero times mean an unbounded window. Limit and Cursor select a
// page of the result's point stream (see QueryCursor): at most Limit
// points (0 = all) after the position Cursor names (empty = the start).
type QueryRequest struct {
	Dataset string
	Type    string
	Region  string
	AZ      string
	From    time.Time
	To      time.Time
	Limit   int
	Cursor  string
	// Resolution selects the tier serving the points: "raw" (default),
	// "1h" or "1d" (buckets folded at read time), or "auto" (picked from
	// the window span — see resolution.go). Normalized to the effective
	// value by resolveRead.
	Resolution string
	// Agg selects the rollup aggregate ("min", "max", "mean", "last";
	// default mean). Ignored at raw resolution, where resolveRead
	// normalizes it to the default.
	Agg string
}

// SeriesResult is one series' points within the requested window.
type SeriesResult struct {
	Key    tsdb.SeriesKey `json:"key"`
	Points []tsdb.Point   `json:"points"`
}

// checkWindow validates the request's dataset against the allowlist and
// normalizes its window (zero To = unbounded). Shared by every query
// entry point so paginated and unpaginated requests can never diverge on
// validation semantics.
func (s *Service) checkWindow(req QueryRequest) (from, to time.Time, err error) {
	if req.Dataset != "" && !s.datasets[req.Dataset] {
		return from, to, badParam("dataset", "archive: unknown dataset %q", req.Dataset)
	}
	from, to = req.From, req.To
	if to.IsZero() {
		to = time.Date(9999, 1, 1, 0, 0, 0, 0, time.UTC)
	}
	if to.Before(from) {
		return from, to, fmt.Errorf("archive: query window ends (%v) before it starts (%v)", to, from)
	}
	return from, to, nil
}

// matchedKeys lists the series keys the request's filter selects from
// db (the store captured at the query's entry), enforcing the per-query
// series limit.
func matchedKeys(db *tsdb.DB, req QueryRequest) ([]tsdb.SeriesKey, error) {
	keys := db.Keys(tsdb.KeyFilter{Dataset: req.Dataset, Type: req.Type, Region: req.Region, AZ: req.AZ})
	if len(keys) > MaxSeriesPerQuery {
		return nil, fmt.Errorf("archive: query matches %d series, limit %d; narrow the filter", len(keys), MaxSeriesPerQuery)
	}
	return keys, nil
}

// Query returns every matching series restricted to the window: the
// cursor page with no cursor and no limit (see QueryCursor), whose cache
// entry it shares. It fails when the filter matches more than
// MaxSeriesPerQuery series.
func (s *Service) Query(req QueryRequest) ([]SeriesResult, error) {
	// Query always returns the full window, whatever page fields the
	// caller left set.
	req.Limit, req.Cursor = 0, ""
	page, err := s.QueryCursor(req)
	if err != nil {
		return nil, err
	}
	return page.Series, nil
}

// cached is the half of the read pipeline every computation shares: it
// answers from the result cache under ck, and otherwise runs compute over
// the series req's filter matches in db — the store captured, with its
// swap epoch, at the request's entry — and publishes what it returns.
// compute reports the point count of its value; the returned entry is
// the one now holding the value, for the HTTP layer to serve stored bytes
// from, or nil when the value was too large to cache.
//
// Cache misses go through the singleflight group: concurrent identical
// cold requests collapse onto one store computation whose result (and
// generation capture, via the cache entry the leader publishes) every
// coalesced caller shares.
func (s *Service) cached(db *tsdb.DB, epoch uint64, ck string, req QueryRequest,
	compute func(keys []tsdb.SeriesKey) (val any, points int, err error)) (any, *cacheEntry, error) {
	if e := s.cache.get(ck, epoch, db.Generation()); e != nil {
		return e.val, e, nil
	}
	return s.flight.do(ck, func() (any, *cacheEntry, error) {
		// Capture the generation before reading: a write racing the fan-out
		// makes the cached entry stale immediately, never the reverse. The
		// capture is the leader's own — coalesced followers share it. Rollup
		// reads are guarded by the same generation: a bucket is folded
		// from its series' points, and every stored point moves it.
		gen := db.Generation()
		keys, err := matchedKeys(db, req)
		if err != nil {
			return nil, nil, err
		}
		val, points, err := compute(keys)
		if err != nil {
			return nil, nil, err
		}
		// Oversized results are not cached: one-off bulk exports (or clients
		// polling with a unique moving window) would otherwise pin up to 128
		// full-archive copies in the LRU without ever hitting.
		if points > maxCachedPoints {
			return val, nil, nil
		}
		return val, s.cache.put(ck, epoch, gen, val), nil
	})
}

// firstErr returns the first non-nil error of a fan-out's per-slot error
// vector, so a failed cold-block read surfaces instead of truncating the
// response.
func firstErr(errs []error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// LatestEntry is the current value of one series.
type LatestEntry struct {
	Key   tsdb.SeriesKey `json:"key"`
	At    time.Time      `json:"at"`
	Value float64        `json:"value"`
}

// Latest returns the most recent value of every matching series. The
// window it validates is discarded — Latest ignores it — but running the
// shared check keeps a malformed request rejected identically here and
// in Query.
func (s *Service) Latest(req QueryRequest) ([]LatestEntry, error) {
	res, _, err := s.latest(req)
	return res, err
}

// latest is Latest plus the cache entry now holding the result.
func (s *Service) latest(req QueryRequest) ([]LatestEntry, *cacheEntry, error) {
	if _, _, err := s.checkWindow(req); err != nil {
		return nil, nil, err
	}
	// Latest ignores the window and the page, so the key must too —
	// otherwise clients polling with a moving from/to fragment the cache.
	filterOnly := req
	filterOnly.From, filterOnly.To = time.Time{}, time.Time{}
	filterOnly.Limit, filterOnly.Cursor = 0, ""
	db, epoch := s.storeRef()
	v, e, err := s.cached(db, epoch, cacheKey("latest", filterOnly), req, func(keys []tsdb.SeriesKey) (any, int, error) {
		type slot struct {
			p  tsdb.Point
			ok bool
		}
		slots := make([]slot, len(keys))
		errs := make([]error, len(keys))
		s.fanOut(len(keys), func(i int) {
			p, ok, err := db.Last(keys[i])
			slots[i], errs[i] = slot{p: p, ok: ok}, err
		})
		if err := firstErr(errs); err != nil {
			return nil, 0, err
		}
		out := make([]LatestEntry, 0, len(keys))
		for i, k := range keys {
			if !slots[i].ok {
				continue
			}
			out = append(out, LatestEntry{Key: k, At: slots[i].p.At, Value: slots[i].p.Value})
		}
		return out, len(out), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return v.([]LatestEntry), e, nil
}

// APIVersion names the /api/v1 response contract; /api/v1/meta reports
// it top-level so clients can pin the shape they parse.
const APIVersion = "v1"

// Meta is the /api/v1/meta body: the archive's contents and the serving
// layer's health. Three parts are written here: `apiVersion`, `schema`
// (what data is queryable) and the `replication` section's `role` plus a
// follower's `primaryUrl`. Every other value is the service registry
// rendered by obs's naming rule (see obs.Registry.Sections), so meta
// and /api/v1/metrics carry the same facts: spotlake_cache_hits_total is
// cache.hits, and a section exists while something registers in it
// (`admission` and `http` only with a controller set).
func (s *Service) Meta() map[string]any {
	db := s.store()
	m := map[string]any{"apiVersion": APIVersion, "schema": s.schema(db)}
	sections := s.reg.Sections()
	// The replication section always exists: registerMetrics puts the
	// serving store's checkpoint sequence in it.
	repl := sections["replication"]
	repl["role"] = "primary"
	if f := s.follower; f != nil {
		repl["role"], repl["primaryUrl"] = "follower", f.primaryURL
	}
	for name, sec := range sections {
		m[name] = sec
	}
	return m
}

// SchemaMeta describes the queryable data: series/point inventory and
// the catalog dimensions behind the filter parameters.
type SchemaMeta struct {
	SeriesCount int            `json:"seriesCount"`
	PointCount  int            `json:"pointCount"`
	Datasets    map[string]int `json:"datasets"` // dataset -> series count
	Types       int            `json:"types"`
	Regions     int            `json:"regions"`
	AZs         int            `json:"azs"`
}

// schema describes db, the store serving reads.
func (s *Service) schema(db *tsdb.DB) SchemaMeta {
	m := SchemaMeta{
		SeriesCount: db.SeriesCount(),
		PointCount:  db.PointCount(),
		Datasets:    make(map[string]int),
		Types:       s.cat.NumTypes(),
		Regions:     s.cat.NumRegions(),
		AZs:         s.cat.NumAZs(),
	}
	for _, ds := range s.Datasets() {
		m.Datasets[ds] = len(db.Keys(tsdb.KeyFilter{Dataset: ds}))
	}
	return m
}
