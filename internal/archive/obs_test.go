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
				var m Meta
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
	samples := scrapeExposition(t, srv.URL)
	vals := counterValues(samples)
	var m Meta
	resp, err := http.Get(srv.URL + "/api/v1/meta")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if m.Admission == nil {
		t.Fatal("meta carries no admission section")
	}
	agree := func(name string, want float64) {
		t.Helper()
		got, ok := vals[name]
		if !ok {
			t.Errorf("exposition is missing %s", name)
			return
		}
		if got != want {
			t.Errorf("%s: exposition %v, meta %v", name, got, want)
		}
	}
	agree("spotlake_admission_admitted_total", float64(m.Admission.Admitted))
	agree("spotlake_admission_throttled_total", float64(m.Admission.Throttled))
	agree("spotlake_admission_shed_total", float64(m.Admission.Shed))
	agree("spotlake_cache_hits_total", float64(m.Cache.Hits))
	agree("spotlake_cache_misses_total", float64(m.Cache.Misses))
	agree("spotlake_cache_coalesced_total", float64(m.Cache.Coalesced))
	agree("spotlake_cache_body_hits_total", float64(m.Cache.BodyHits))
	agree("spotlake_cache_entries", float64(m.Cache.Entries))
	agree("spotlake_cache_body_bytes", float64(m.Cache.BodyBytes))
	if m.Cache.BodyHits == 0 || m.Cache.Entries == 0 || m.Cache.BodyBytes == 0 {
		t.Errorf("repeated queries left the stored-body figures empty: %+v", m.Cache)
	}
	agree("spotlake_store_points", float64(m.Schema.PointCount))
	agree("spotlake_store_series", float64(m.Schema.SeriesCount))
	if m.Admission.Admitted == 0 {
		t.Error("no requests admitted during the load phase")
	}

	// The meta percentiles must be the bucket-derived quantiles of the
	// very histogram the exposition serves — recompute them from the
	// scrape and demand a match.
	snap, err := obs.SnapshotFromSamples(samples, "spotlake_http_request_duration_seconds")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Count != m.Admission.Admitted {
		t.Errorf("histogram count %d != admitted %d", snap.Count, m.Admission.Admitted)
	}
	for _, q := range []struct {
		p    float64
		want float64
	}{{0.50, m.Admission.P50Ms}, {0.99, m.Admission.P99Ms}} {
		if got := snap.Quantile(q.p) * 1e3; math.Abs(got-q.want) > 1e-9 {
			t.Errorf("q%v: scrape-derived %vms, meta %vms", q.p, got, q.want)
		}
	}
}

// TestLatencyHistogramCountsOnlyAdmitted pins the histogram's contract:
// it observes exactly the admitted handler executions. Throttled and
// shed requests return before the observation point, and exempt paths
// bypass the controller entirely — none of them may contaminate the
// latency distribution adaptive tuning reads.
func TestLatencyHistogramCountsOnlyAdmitted(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 0, RatePerSec: 1, Burst: 2})
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

	st := adm.Stats()
	if st.Admitted != 2 || st.Throttled != 1 || st.Shed != 1 {
		t.Fatalf("stats = %+v, want 2 admitted / 1 throttled / 1 shed", st)
	}
	if snap := adm.lat.Snapshot(); snap.Count != st.Admitted {
		t.Errorf("histogram observed %d requests, want exactly the %d admitted", snap.Count, st.Admitted)
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
	st := puller.StatsDetail()
	if st.Cycles != 1 || st.Applied != 1 || st.Failures != 0 {
		t.Fatalf("cycle counters = %+v, want 1 cycle, 1 applied, 0 failures", st)
	}
	if st.Relists != 1 {
		t.Errorf("relists = %d, want exactly the 1 injected 409", st.Relists)
	}
	if st.FilesFetched == 0 || st.BytesShipped == 0 {
		t.Errorf("catch-up moved nothing? filesFetched=%d bytesShipped=%d", st.FilesFetched, st.BytesShipped)
	}

	// A no-op cycle (signature unchanged) still counts and observes, but
	// fetches nothing new.
	if err := puller.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	st2 := puller.StatsDetail()
	if st2.Cycles != 2 || st2.Applied != 1 || st2.FilesFetched != st.FilesFetched {
		t.Fatalf("no-op cycle: %+v after %+v", st2, st)
	}

	// The same numbers through both public surfaces: the meta section and
	// the exposition (exempt from the staleness gate, like meta).
	m := fsvc.Meta()
	if m.Replication.Puller == nil {
		t.Fatal("follower meta carries no puller section")
	}
	if *m.Replication.Puller != puller.StatsDetail() {
		t.Errorf("meta puller section %+v != stats %+v", *m.Replication.Puller, puller.StatsDetail())
	}
	samples := scrapeExposition(t, fsrv.URL)
	vals := counterValues(samples)
	for name, want := range map[string]uint64{
		"spotlake_replication_cycles_total":        st2.Cycles,
		"spotlake_replication_applied_total":       st2.Applied,
		"spotlake_replication_relists_total":       st2.Relists,
		"spotlake_replication_files_fetched_total": st2.FilesFetched,
		"spotlake_replication_bytes_shipped_total": st2.BytesShipped,
	} {
		if got, ok := vals[name]; !ok || got != float64(want) {
			t.Errorf("%s = %v (present=%t), want %d", name, got, ok, want)
		}
	}
	snap, err := obs.SnapshotFromSamples(samples, "spotlake_replication_cycle_seconds")
	if err != nil {
		t.Fatal(err)
	}
	if snap.Count != st2.Cycles {
		t.Errorf("cycle histogram observed %d cycles, want %d", snap.Count, st2.Cycles)
	}
	// The applied position gauges mirror the primary's committed state.
	pm := psvc.Meta()
	if got := vals["spotlake_replication_applied_checkpoint_seq"]; got != float64(pm.Replication.CheckpointSeq) {
		t.Errorf("applied checkpoint gauge %v, primary at %d", got, pm.Replication.CheckpointSeq)
	}
}
