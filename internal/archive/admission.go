package archive

// Admission control for the serving layer: the piece the paper's
// deployment gets from its API gateway, done here as middleware in
// front of the query handlers.
//
// Two gates run in order, cheapest first:
//
//  1. Per-client token buckets (keyed off the first X-Forwarded-For hop,
//     falling back to RemoteAddr) throttle abusive clients with 429 +
//     Retry-After before they can occupy a slot. Buckets refill lazily
//     and the client table is LRU-bounded, so a scan across a million
//     source addresses cannot grow it without bound.
//  2. A global in-flight cap bounds concurrent requests actually
//     executing. When the server is saturated a request waits in a
//     bounded queue for a bounded time; past either bound it is shed
//     with 503 + Retry-After rather than piling one goroutine per
//     queued client onto a node that is already behind.
//
// The observability endpoints (/api/v1/meta, /api/v1/metrics, /healthz,
// /readyz) are exempt so an overloaded server can still be observed;
// every other endpoint pays the (two-atomic-loads) admission cost.
// Admitted handler executions — and only those — record their latency
// into spotlake_http_request_duration_seconds, whose bucket-exact
// p50/p99 meta reports as http.requestDurationSeconds: the same numbers
// a scrape consumer computes from the exposition, and the signal an
// operator (or a future latency-adaptive controller) watches under
// load. Throttled and shed requests never touch the histogram — their
// error writes are not handler executions, and folding them in would
// make the server look faster the harder it sheds.

import (
	"container/list"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// exemptPath reports whether the path bypasses admission control and the
// follower staleness gate: the endpoints through which an unhealthy
// server is diagnosed must stay reachable while it is unhealthy.
func exemptPath(path string) bool {
	switch path {
	case "/api/v1/meta", "/api/v1/metrics", "/healthz", "/readyz":
		return true
	}
	return false
}

// AdmissionConfig tunes the controller. Zero values disable the
// corresponding gate, so AdmissionConfig{} admits everything (but still
// counts and measures).
type AdmissionConfig struct {
	// MaxInFlight caps requests executing concurrently (0 = unlimited).
	MaxInFlight int
	// MaxQueue caps how many requests may wait for a slot when the cap
	// is reached; arrivals beyond it are shed immediately (0 = no queue:
	// shed as soon as the cap is hit).
	MaxQueue int
	// QueueWait bounds how long a queued request waits for a slot before
	// being shed.
	QueueWait time.Duration
	// RatePerSec is each client's sustained request rate (0 = no
	// per-client throttling); Burst is the bucket size — how many
	// requests a client may issue back-to-back after an idle period
	// (values below 1 are raised to 1, or to RatePerSec if larger).
	RatePerSec float64
	Burst      float64
	// MaxClients bounds the tracked-client table; the least recently
	// seen client is evicted first (its bucket restarts full if it
	// returns). Default 16384.
	MaxClients int
	// RetryAfter is the Retry-After hint attached to 503 sheds (429
	// throttles compute theirs from the client's own refill rate).
	// Default 1s.
	RetryAfter time.Duration
}

// Admission is the serving layer's traffic controller. One instance
// fronts one Service's handler (see Service.SetAdmission); its metrics
// are meta's admission section.
type Admission struct {
	cfg   AdmissionConfig
	slots chan struct{} // nil = unlimited

	queued    atomic.Int64
	inFlight  atomic.Int64
	admitted  obs.Counter
	throttled obs.Counter
	shed      obs.Counter

	lat *obs.Histogram

	clients clientBuckets

	// now is a test seam for the token-bucket clock.
	now func() time.Time
}

// NewAdmission builds a controller from cfg, applying the documented
// defaults for unset bookkeeping fields.
func NewAdmission(cfg AdmissionConfig) *Admission {
	if cfg.MaxClients <= 0 {
		cfg.MaxClients = 16384
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.RatePerSec > 0 && cfg.Burst < 1 {
		cfg.Burst = max(1, cfg.RatePerSec)
	}
	a := &Admission{cfg: cfg, now: time.Now}
	if cfg.MaxInFlight > 0 {
		a.slots = make(chan struct{}, cfg.MaxInFlight)
	}
	a.lat = obs.NewHistogram(obs.DefLatencyBuckets)
	a.clients.init(cfg.MaxClients)
	return a
}

// registerMetrics wires the controller's counters, gauges, and the
// handler-latency histogram onto reg. SetAdmission calls it; calling it
// again for a replacement controller re-points the same metric names at
// the new instance.
func (a *Admission) registerMetrics(reg *obs.Registry) {
	reg.RegisterCounter("spotlake_admission_admitted_total",
		"Requests admitted to a handler (exempt observability paths not counted).", &a.admitted)
	reg.RegisterCounter("spotlake_admission_throttled_total",
		"Requests rejected 429 by a per-client token bucket.", &a.throttled)
	reg.RegisterCounter("spotlake_admission_shed_total",
		"Requests shed 503 at the in-flight cap (queue full or wait exhausted).", &a.shed)
	reg.GaugeFunc("spotlake_admission_in_flight",
		"Admitted requests currently executing.", func() float64 { return float64(a.inFlight.Load()) })
	reg.GaugeFunc("spotlake_admission_queued",
		"Requests waiting for an in-flight slot.", func() float64 { return float64(a.queued.Load()) })
	reg.GaugeFunc("spotlake_admission_max_in_flight",
		"Configured in-flight cap (0 = unlimited).", func() float64 { return float64(a.cfg.MaxInFlight) })
	reg.GaugeFunc("spotlake_admission_rate_per_sec",
		"Configured per-client sustained request rate (0 = no throttling).", func() float64 { return a.cfg.RatePerSec })
	reg.RegisterHistogram("spotlake_http_request_duration_seconds",
		"Handler latency of admitted requests (throttled/shed rejections excluded).", a.lat)
}

// clientKey identifies the client for rate limiting: the first
// X-Forwarded-For hop when a fronting proxy supplies one, else the
// connection's source address without its ephemeral port.
func clientKey(r *http.Request) string {
	if xff := r.Header.Get("X-Forwarded-For"); xff != "" {
		first, _, _ := strings.Cut(xff, ",")
		if ip := strings.TrimSpace(first); ip != "" {
			return ip
		}
	}
	if host, _, err := net.SplitHostPort(r.RemoteAddr); err == nil {
		return host
	}
	return r.RemoteAddr
}

// withAdmission gates h behind the controller. A nil controller serves
// h directly.
func withAdmission(a *Admission, h http.Handler) http.Handler {
	if a == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// The observability surface stays reachable during overload: it
		// is how overload is diagnosed. Exempt requests also stay out of
		// the latency histogram — it measures admitted work only.
		if exemptPath(r.URL.Path) {
			h.ServeHTTP(w, r)
			return
		}
		if a.cfg.RatePerSec > 0 {
			if wait, ok := a.clients.take(clientKey(r), a.cfg.RatePerSec, a.cfg.Burst, a.now()); !ok {
				a.throttled.Add(1)
				writeRetry(w, http.StatusTooManyRequests, wait,
					fmt.Errorf("archive: client rate limit exceeded (%.3g req/s sustained); retry after the Retry-After delay", a.cfg.RatePerSec))
				return
			}
		}
		release, ok := a.acquireSlot(r)
		if !ok {
			a.shed.Add(1)
			writeRetry(w, http.StatusServiceUnavailable, a.cfg.RetryAfter,
				fmt.Errorf("archive: server at capacity (%d in-flight requests); retry after the Retry-After delay", a.cfg.MaxInFlight))
			return
		}
		a.admitted.Add(1)
		a.inFlight.Add(1)
		start := time.Now()
		// The deferred release must survive handler panics (the gzip
		// layer aborts connections via http.ErrAbortHandler): a leaked
		// slot would permanently shrink the server's capacity. Latency is
		// observed here and nowhere else, so the histogram covers exactly
		// the admitted handler executions.
		defer func() {
			a.lat.Observe(time.Since(start))
			a.inFlight.Add(-1)
			release()
		}()
		h.ServeHTTP(w, r)
	})
}

// acquireSlot takes an in-flight slot, waiting in the bounded queue when
// the cap is reached. It returns the release func and whether the
// request was admitted; a false return means shed (queue full, wait
// exhausted, or the client gave up).
func (a *Admission) acquireSlot(r *http.Request) (release func(), ok bool) {
	if a.slots == nil {
		return func() {}, true
	}
	select {
	case a.slots <- struct{}{}:
		return a.releaseSlot, true
	default:
	}
	// Saturated: join the bounded queue for a bounded time.
	if a.cfg.MaxQueue <= 0 || a.cfg.QueueWait <= 0 {
		return nil, false
	}
	if a.queued.Add(1) > int64(a.cfg.MaxQueue) {
		a.queued.Add(-1)
		return nil, false
	}
	defer a.queued.Add(-1)
	t := time.NewTimer(a.cfg.QueueWait)
	defer t.Stop()
	select {
	case a.slots <- struct{}{}:
		return a.releaseSlot, true
	case <-t.C:
		return nil, false
	case <-r.Context().Done():
		return nil, false
	}
}

func (a *Admission) releaseSlot() { <-a.slots }

// writeRetry rejects a request with a Retry-After hint (whole seconds,
// rounded up, minimum 1 — RFC 9110 delay-seconds).
func writeRetry(w http.ResponseWriter, status int, after time.Duration, err error) {
	secs := int64((after + time.Second - 1) / time.Second)
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	writeErr(w, status, err)
}

// clientBuckets is the LRU-bounded table of per-client token buckets.
type clientBuckets struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently seen
	m   map[string]*list.Element
}

type clientBucket struct {
	key    string
	tokens float64
	last   time.Time
}

func (c *clientBuckets) init(capacity int) {
	c.cap = capacity
	c.ll = list.New()
	c.m = make(map[string]*list.Element)
}

// take spends one token from key's bucket, creating it full on first
// sight. When the bucket is empty it reports how long until the next
// token accrues.
func (c *clientBuckets) take(key string, rate, burst float64, now time.Time) (wait time.Duration, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.m[key]
	var b *clientBucket
	if found {
		b = el.Value.(*clientBucket)
		// Lazy refill; a negative elapsed (clock step in tests) adds
		// nothing rather than draining the bucket.
		if dt := now.Sub(b.last).Seconds(); dt > 0 {
			b.tokens = min(burst, b.tokens+dt*rate)
		}
		b.last = now
		c.ll.MoveToFront(el)
	} else {
		b = &clientBucket{key: key, tokens: burst, last: now}
		c.m[key] = c.ll.PushFront(b)
		for c.ll.Len() > c.cap {
			back := c.ll.Back()
			c.ll.Remove(back)
			delete(c.m, back.Value.(*clientBucket).key)
		}
	}
	if b.tokens < 1 {
		return time.Duration((1 - b.tokens) / rate * float64(time.Second)), false
	}
	b.tokens--
	return 0, true
}
