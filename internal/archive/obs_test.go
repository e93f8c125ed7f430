package archive

// Tests for the unified observability layer: the Prometheus exposition
// endpoint under concurrent load, the meta↔metrics single-source
// agreement, the admitted-only latency histogram, the liveness/readiness
// split, and the puller's per-cycle catch-up metrics. The concurrency
// tests are meaningful under -race, which CI applies.

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
)

// scrapeExposition fetches and strictly parses srvURL's /api/v1/metrics.
func scrapeExposition(t *testing.T, srvURL string) []obs.Sample {
	t.Helper()
	resp, err := http.Get(srvURL + "/api/v1/metrics")
	if err != nil {
		t.Fatalf("scrape: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("scrape: Content-Type %q, want text exposition 0.0.4", ct)
	}
	samples, err := obs.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("scrape did not parse: %v", err)
	}
	return samples
}

// metric reads one plain (non-bucket) sample of reg by its exposition
// name; an unknown name fails the test.
func metric(t testing.TB, reg *obs.Registry, name string) float64 {
	t.Helper()
	for _, s := range reg.Samples() {
		if s.Name == name && s.Le == "" {
			return s.Value
		}
	}
	t.Fatalf("registry has no metric %s", name)
	return 0
}

// metaBody is s.Meta() as a client decodes it.
func metaBody(t testing.TB, s *Service) map[string]any {
	t.Helper()
	raw, err := json.Marshal(s.Meta())
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// metaAt reads a decoded meta body at a dotted path
// ("http.requestDurationSeconds.p50"); a missing path fails the test.
func metaAt(t testing.TB, m map[string]any, path string) any {
	t.Helper()
	var v any = m
	for _, step := range strings.Split(path, ".") {
		obj, ok := v.(map[string]any)
		if !ok {
			t.Fatalf("meta has no %s", path)
		}
		if v, ok = obj[step]; !ok {
			t.Fatalf("meta has no %s", path)
		}
	}
	return v
}

// counterValues extracts the plain (non-bucket) samples as name -> value.
func counterValues(samples []obs.Sample) map[string]float64 {
	m := make(map[string]float64, len(samples))
	for _, s := range samples {
		if s.Le == "" {
			m[s.Name] = s.Value
		}
	}
	return m
}

// TestMetricsScrapeConcurrentAgreement hammers /api/v1/metrics and
// /api/v1/meta while query traffic runs: every scrape must parse
// strictly, every *_total counter must be monotone within a scraper's
// sequence, and once traffic drains the meta JSON and the exposition
// must agree exactly — they are two renderings of the same registry
// state, so disagreement means a fact acquired a second copy.
func TestMetricsScrapeConcurrentAgreement(t *testing.T) {
	s, _ := buildArchive(t)
	s.SetAdmission(NewAdmission(AdmissionConfig{
		MaxInFlight: 8, MaxQueue: 16, QueueWait: 50 * time.Millisecond,
		RatePerSec: 10000, Burst: 10000,
	}))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	var wg sync.WaitGroup
	// Query traffic: hot repeats (cursor pages, so hits are served from
	// stored bodies) and distinct cold windows.
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				url := srv.URL + "/api/v1/query?dataset=sps&limit=50"
				if w%2 == 1 {
					url += "&from=2022-01-01T00:" + []string{"01", "02", "03"}[i%3] + ":00Z"
				} else {
					url += "&cursor="
				}
				resp, err := http.Get(url)
				if err != nil {
					t.Errorf("query: %v", err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}
	// Scrapers: exposition and meta must both stay well-formed mid-load,
	// and counters never go backwards between a scraper's reads.
	for sc := 0; sc < 3; sc++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := map[string]float64{}
			for i := 0; i < 15; i++ {
				vals := counterValues(scrapeExposition(t, srv.URL))
				for name, v := range vals {
					if !strings.HasSuffix(name, "_total") {
						continue
					}
					if p, ok := prev[name]; ok && v < p {
						t.Errorf("counter %s went backwards: %v -> %v", name, p, v)
					}
					prev[name] = v
				}
				resp, err := http.Get(srv.URL + "/api/v1/meta")
				if err != nil {
					t.Errorf("meta: %v", err)
					return
				}
				var m map[string]any
				err = json.NewDecoder(resp.Body).Decode(&m)
				resp.Body.Close()
				if err != nil {
					t.Errorf("meta did not decode mid-load: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()

	// Quiesced: meta and the exposition must agree exactly. The fetches
	// below are exempt from admission, so they cannot perturb what they
	// measure.
	m, samples := metaAgreesWithScrape(t, srv.URL)
	vals := counterValues(samples)
	for name, path := range map[string]string{
		"spotlake_store_points": "schema.pointCount",
		"spotlake_store_series": "schema.seriesCount",
	} {
		if got := metaAt(t, m, path); got != vals[name] {
			t.Errorf("meta %s = %v, exposition %s = %v", path, got, name, vals[name])
		}
	}
	for _, name := range []string{"hits_total", "misses_total", "body_hits_total", "entries", "body_bytes"} {
		if vals["spotlake_cache_"+name] == 0 {
			t.Errorf("repeated queries left spotlake_cache_%s at 0: %v", name, metaAt(t, m, "cache"))
		}
	}
	admitted := vals["spotlake_admission_admitted_total"]
	if admitted == 0 {
		t.Error("no requests admitted during the load phase")
	}

	// The meta percentiles must be the bucket-derived quantiles of the
	// very histogram the exposition serves — recompute them from the
	// scrape and demand a match.
	snap, err := obs.SnapshotFromSamples(samples, "spotlake_http_request_duration_seconds")
	if err != nil {
		t.Fatal(err)
	}
	if float64(snap.Count) != admitted {
		t.Errorf("histogram count %d != admitted %v", snap.Count, admitted)
	}
	for _, q := range []struct {
		p    float64
		path string
	}{{0.50, "http.requestDurationSeconds.p50"}, {0.99, "http.requestDurationSeconds.p99"}} {
		if got, want := snap.Quantile(q.p), metaAt(t, m, q.path).(float64); math.Abs(got-want) > 1e-12 {
			t.Errorf("q%v: scrape-derived %vs, meta %s %vs", q.p, got, q.path, want)
		}
	}
}

// rulePath is where the meta naming rule puts a metric: the word after
// spotlake_ is the section, and the rest, less a trailing _total, is the
// lowerCamel key.
func rulePath(name string) string {
	section, rest, _ := strings.Cut(strings.TrimPrefix(name, "spotlake_"), "_")
	words := strings.Split(strings.TrimSuffix(rest, "_total"), "_")
	for i := 1; i < len(words); i++ {
		words[i] = strings.ToUpper(words[i][:1]) + words[i][1:]
	}
	return section + "." + strings.Join(words, "")
}

// metaAgreesWithScrape fetches srvURL's /api/v1/meta and then its
// /api/v1/metrics, and checks the two against each other generically:
// every sample the scrape carries is in meta at its rule-derived path
// with the same value (a histogram's _count and _sum as its count and
// sum), and meta holds no key outside apiVersion, schema and the
// replication role that no metric accounts for. The one moving gauge,
// replication.secondsBehind, may only have advanced by the time between
// the two reads. It returns both, for the caller's own checks.
func metaAgreesWithScrape(t *testing.T, srvURL string) (map[string]any, []obs.Sample) {
	t.Helper()
	start := time.Now()
	resp, err := http.Get(srvURL + "/api/v1/meta")
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	samples := scrapeExposition(t, srvURL)
	elapsed := time.Since(start).Seconds()

	hist := map[string]bool{}
	for _, s := range samples {
		if s.Le != "" {
			hist[strings.TrimSuffix(s.Name, "_bucket")] = true
		}
	}
	accounted := map[string]bool{"replication.role": true, "replication.primaryUrl": true}
	for _, s := range samples {
		if s.Le != "" {
			continue
		}
		name, field := s.Name, ""
		for _, suffix := range []string{"_sum", "_count"} {
			if base, ok := strings.CutSuffix(s.Name, suffix); ok && hist[base] {
				name, field = base, "."+suffix[1:]
			}
		}
		path := rulePath(name)
		accounted[path] = true
		got, ok := metaAt(t, m, path+field).(float64)
		switch {
		case !ok:
			t.Errorf("meta %s%s is not a number", path, field)
		case name == "spotlake_replication_seconds_behind":
			if d := s.Value - got; d < 0 || d > elapsed {
				t.Errorf("%s: exposition %v, meta %v, read %vs apart", name, s.Value, got, elapsed)
			}
		case got != s.Value:
			t.Errorf("%s: exposition %v, meta %s%s %v", s.Name, s.Value, path, field, got)
		}
	}
	for section, v := range m {
		if section == "apiVersion" || section == "schema" {
			continue
		}
		for key := range v.(map[string]any) {
			if !accounted[section+"."+key] {
				t.Errorf("meta carries %s.%s, which no metric accounts for", section, key)
			}
		}
	}
	return m, samples
}

// TestLatencyHistogramCountsOnlyAdmitted pins the histogram's contract:
// it observes exactly the admitted handler executions. Throttled and
// shed requests return before the observation point, and exempt paths
// bypass the controller entirely — none of them may contaminate the
// latency distribution adaptive tuning reads.
func TestLatencyHistogramCountsOnlyAdmitted(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 0, RatePerSec: 1, Burst: 2})
	reg := obs.NewRegistry()
	adm.registerMetrics(reg)
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	adm.now = func() time.Time { return now }
	h := withAdmission(adm, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	do := func(path string) int {
		r := httptest.NewRequest("GET", path, nil)
		r.RemoteAddr = "10.1.1.1:5000"
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec.Code
	}

	// Two admitted requests exhaust the burst.
	for i := 0; i < 2; i++ {
		if code := do("/api/v1/query?dataset=sps"); code != http.StatusOK {
			t.Fatalf("admitted request %d got %d", i, code)
		}
	}
	// Throttled: returns before the histogram's observation point.
	if code := do("/api/v1/query?dataset=sps"); code != http.StatusTooManyRequests {
		t.Fatalf("over-burst request got %d, want 429", code)
	}
	// Exempt paths run the handler but never touch controller state.
	for _, path := range []string{"/api/v1/meta", "/api/v1/metrics", "/healthz", "/readyz"} {
		if code := do(path); code != http.StatusOK {
			t.Fatalf("exempt %s got %d", path, code)
		}
	}
	// Shed: refill the rate bucket, then occupy the only slot so the
	// request dies at the capacity check — also before the observation.
	now = now.Add(time.Hour)
	adm.slots <- struct{}{}
	if code := do("/api/v1/query?dataset=sps"); code != http.StatusServiceUnavailable {
		t.Fatalf("saturated request got %d, want 503", code)
	}
	<-adm.slots

	admitted := metric(t, reg, "spotlake_admission_admitted_total")
	throttled, shed := metric(t, reg, "spotlake_admission_throttled_total"), metric(t, reg, "spotlake_admission_shed_total")
	if admitted != 2 || throttled != 1 || shed != 1 {
		t.Fatalf("%v admitted / %v throttled / %v shed, want 2 admitted / 1 throttled / 1 shed", admitted, throttled, shed)
	}
	if count := metric(t, reg, "spotlake_http_request_duration_seconds_count"); count != admitted {
		t.Errorf("histogram observed %v requests, want exactly the %v admitted", count, admitted)
	}
}

// TestHealthzReadyz covers the liveness/readiness split. /healthz
// answers 200 whenever the process serves HTTP at all. /readyz answers
// the question a load balancer asks: on a primary, is a store open; on
// a follower, is the applied position within -max-staleness — the same
// verdict the staleness gate would give a read, but reachable without
// issuing one.
func TestHealthzReadyz(t *testing.T) {
	psvc, cat, _, db := durablePrimary(t, t.TempDir())
	defer db.Close()
	psrv := httptest.NewServer(psvc.Handler())
	defer psrv.Close()

	text := func(srvURL, path string) (int, string) {
		t.Helper()
		resp, err := http.Get(srvURL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return resp.StatusCode, string(body)
	}

	if code, body := text(psrv.URL, "/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("primary healthz: %d %q", code, body)
	}
	if code, body := text(psrv.URL, "/readyz"); code != http.StatusOK || body != "ready\n" {
		t.Fatalf("primary readyz: %d %q", code, body)
	}

	fsvc, puller := newFollower(t, psrv.URL, cat, 50*time.Millisecond)
	fsrv := httptest.NewServer(fsvc.Handler())
	defer fsrv.Close()

	// Never synced: alive but not ready, with the stale_replica envelope
	// and a Retry-After hint so the balancer knows when to re-probe.
	if code, body := text(fsrv.URL, "/healthz"); code != http.StatusOK || body != "ok\n" {
		t.Fatalf("unsynced follower healthz: %d %q", code, body)
	}
	resp, err := http.Get(fsrv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	var env apiError
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || env.Error.Code != ErrCodeStaleReplica {
		t.Fatalf("unsynced follower readyz: %d %q, want 503 %q", resp.StatusCode, env.Error.Code, ErrCodeStaleReplica)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("not-ready response missing Retry-After")
	}

	// A sync makes it ready; letting the bound lapse un-readies it.
	if err := puller.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if code, body := text(fsrv.URL, "/readyz"); code != http.StatusOK || body != "ready\n" {
		t.Fatalf("synced follower readyz: %d %q", code, body)
	}
	time.Sleep(80 * time.Millisecond)
	if code, _ := text(fsrv.URL, "/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("lapsed follower readyz: %d, want 503", code)
	}

	// Both probes bypass admission: a saturated server must still answer
	// its balancer or it gets restarted exactly when it is busiest.
	adm := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 0})
	psvc.SetAdmission(adm)
	satsrv := httptest.NewServer(psvc.Handler())
	defer satsrv.Close()
	adm.slots <- struct{}{}
	if code, _ := text(satsrv.URL, "/healthz"); code != http.StatusOK {
		t.Errorf("saturated healthz: %d, want 200", code)
	}
	if code, _ := text(satsrv.URL, "/readyz"); code != http.StatusOK {
		t.Errorf("saturated readyz: %d, want 200", code)
	}
	<-adm.slots
}

// TestPullerCycleMetrics: one catch-up pull must account for what it
// moved — files fetched, bytes shipped, a cycle-time observation — and
// a mid-pull 409 must count as a re-list, all visible identically in
// the puller's meta section and the follower's exposition.
func TestPullerCycleMetrics(t *testing.T) {
	psvc, cat, _, db := durablePrimary(t, t.TempDir())
	defer db.Close()
	inner := httptest.NewServer(psvc.Handler())
	defer inner.Close()

	// A proxy that 409s the first artifact fetch: the pinned listing
	// "went stale" once, so the cycle re-lists exactly once and succeeds.
	var fired atomic.Bool
	proxy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/api/v1/replication/file/") && fired.CompareAndSwap(false, true) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			io.WriteString(w, `{"error":{"code":"epoch_mismatch","message":"injected"}}`)
			return
		}
		psvc.Handler().ServeHTTP(w, r)
	}))
	defer proxy.Close()

	fsvc, puller := newFollower(t, proxy.URL, cat, 0)
	fsrv := httptest.NewServer(fsvc.Handler())
	defer fsrv.Close()

	if err := puller.SyncOnce(); err != nil {
		t.Fatalf("sync through injected 409: %v", err)
	}
	cycles := func() float64 { return metric(t, fsvc.reg, "spotlake_replication_cycles_total") }
	applied := func() float64 { return metric(t, fsvc.reg, "spotlake_replication_applied_total") }
	fetched := func() float64 { return metric(t, fsvc.reg, "spotlake_replication_files_fetched_total") }
	if c, a, f := cycles(), applied(), metric(t, fsvc.reg, "spotlake_replication_failures_total"); c != 1 || a != 1 || f != 0 {
		t.Fatalf("%v cycles, %v applied, %v failures, want 1 cycle, 1 applied, 0 failures", c, a, f)
	}
	if relists := metric(t, fsvc.reg, "spotlake_replication_relists_total"); relists != 1 {
		t.Errorf("relists = %v, want exactly the 1 injected 409", relists)
	}
	files, shipped := fetched(), metric(t, fsvc.reg, "spotlake_replication_bytes_shipped_total")
	if files == 0 || shipped == 0 {
		t.Errorf("catch-up moved nothing? filesFetched=%v bytesShipped=%v", files, shipped)
	}

	// A no-op cycle (signature unchanged) still counts and observes, but
	// fetches nothing new.
	if err := puller.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	if c, a, f := cycles(), applied(), fetched(); c != 2 || a != 1 || f != files {
		t.Fatalf("no-op cycle: %v cycles, %v applied, %v files fetched, want 2, 1, %v", c, a, f, files)
	}

	// The same numbers through both public surfaces: the meta body and
	// the exposition (exempt from the staleness gate, like meta) agree
	// on every metric, and the cycle histogram's quantiles recomputed
	// from the scrape are meta's.
	m, samples := metaAgreesWithScrape(t, fsrv.URL)
	vals := counterValues(samples)
	for _, name := range []string{
		"spotlake_replication_cycles_total", "spotlake_replication_applied_total", "spotlake_replication_relists_total",
		"spotlake_replication_files_fetched_total", "spotlake_replication_bytes_shipped_total",
	} {
		if got, ok := vals[name]; !ok || got != metric(t, fsvc.reg, name) {
			t.Errorf("%s = %v (present=%t), want %v", name, got, ok, metric(t, fsvc.reg, name))
		}
	}
	snap, err := obs.SnapshotFromSamples(samples, "spotlake_replication_cycle_seconds")
	if err != nil {
		t.Fatal(err)
	}
	if float64(snap.Count) != cycles() {
		t.Errorf("cycle histogram observed %d cycles, want %v", snap.Count, cycles())
	}
	for _, q := range []struct {
		p    float64
		path string
	}{{0.50, "replication.cycleSeconds.p50"}, {0.99, "replication.cycleSeconds.p99"}} {
		if got, want := snap.Quantile(q.p), metaAt(t, m, q.path).(float64); math.Abs(got-want) > 1e-12 {
			t.Errorf("q%v: scrape-derived %vs, meta %s %vs", q.p, got, q.path, want)
		}
	}
	// The applied position gauges mirror the primary's committed state.
	pm := metaBody(t, psvc)
	if got, want := vals["spotlake_replication_applied_checkpoint_seq"], metaAt(t, pm, "replication.checkpointSeq"); got != want {
		t.Errorf("applied checkpoint gauge %v, primary at %v", got, want)
	}
}
