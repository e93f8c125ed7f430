package archive

// Tests for the serving layer's traffic hardening: singleflight
// coalescing of identical cold queries, the global in-flight cap with
// bounded queueing and 503 shedding, per-client token-bucket throttling
// with 429 + Retry-After, and a loadgen-shaped mixed-traffic run against
// a live collector (meaningful under -race, which CI applies).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cloudsim"
	"repro/internal/collector"
	"repro/internal/simclock"
	"repro/internal/tsdb"
)

// TestSingleflightColdQueryCoalesces: N concurrent identical cold
// queries perform exactly one store computation; the rest coalesce onto
// the leader and share its result. This is the acceptance shape — 32
// requests, 1 computation, 31 coalesced.
func TestSingleflightColdQueryCoalesces(t *testing.T) {
	const clients = 32
	s, _ := buildArchive(t)
	req := QueryRequest{Dataset: tsdb.DatasetPlacementScore}
	// Query normalizes resolution/agg before building its cache key;
	// mirror that so the barrier hooks the right flight.
	normalized := req
	normalized.Resolution, normalized.Agg = "raw", "mean"
	ck := cacheKey("page", normalized)

	// The leader blocks until every follower has provably joined its
	// flight, so exactly clients-1 coalesce — no timing luck involved.
	s.flight.leaderBarrier = func(key string) {
		if key != ck {
			return
		}
		deadline := time.Now().Add(10 * time.Second)
		for s.flight.waiters(ck) < clients-1 {
			if time.Now().After(deadline) {
				t.Error("followers never joined the flight")
				return
			}
			runtime.Gosched()
		}
	}
	before := s.CacheStats()

	results := make([][]SeriesResult, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], errs[i] = s.Query(req)
		}(i)
	}
	wg.Wait()
	s.flight.leaderBarrier = nil

	for i := range errs {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if len(results[i]) == 0 {
			t.Fatalf("client %d: empty result", i)
		}
		if !reflect.DeepEqual(results[i], results[0]) {
			t.Fatalf("client %d saw a different result than the leader", i)
		}
	}
	st := s.CacheStats()
	coalesced := st.Coalesced - before.Coalesced
	misses := st.Misses - before.Misses
	if coalesced != clients-1 {
		t.Errorf("coalesced = %d, want %d", coalesced, clients-1)
	}
	if computations := misses - coalesced; computations != 1 {
		t.Errorf("store computations (misses - coalesced) = %d, want exactly 1", computations)
	}
	// The leader published through the cache: a repeat is a plain hit.
	if _, err := s.Query(req); err != nil {
		t.Fatal(err)
	}
	if after := s.CacheStats(); after.Hits <= st.Hits {
		t.Error("post-flight repeat did not hit the cache")
	}
}

// TestFlightGroupSharesErrorAndRecovers: followers share the leader's
// error, and a finished key computes fresh on the next call.
func TestFlightGroupSharesErrorAndRecovers(t *testing.T) {
	var g flightGroup
	boom := fmt.Errorf("boom")
	calls := 0
	if _, _, err := g.do("k", func() (any, *cacheEntry, error) { calls++; return nil, nil, boom }); err != boom {
		t.Fatalf("leader error = %v, want boom", err)
	}
	if v, _, err := g.do("k", func() (any, *cacheEntry, error) { calls++; return 42, nil, nil }); err != nil || v != 42 {
		t.Fatalf("fresh call after error = %v, %v", v, err)
	}
	if calls != 2 {
		t.Fatalf("calls = %d, want 2 (no result caching in the flight group)", calls)
	}
}

// TestFlightGroupLeaderPanicReleasesFollowers: a panicking leader must
// not leave followers blocked forever; they get an error instead.
func TestFlightGroupLeaderPanicReleasesFollowers(t *testing.T) {
	var g flightGroup
	entered := make(chan struct{})
	finish := make(chan struct{})
	g.leaderBarrier = func(string) { close(entered); <-finish }

	followerErr := make(chan error, 1)
	go func() {
		<-entered
		g.leaderBarrier = nil
		close(finish)
		_, _, err := g.do("k", func() (any, *cacheEntry, error) { return nil, nil, nil })
		followerErr <- err
	}()

	func() {
		defer func() {
			if recover() == nil {
				t.Error("leader panic did not propagate")
			}
		}()
		_, _, _ = g.do("k", func() (any, *cacheEntry, error) { panic("leader died") })
	}()
	// Whether the goroutine coalesced or ran fresh, it must complete.
	select {
	case err := <-followerErr:
		_ = err // either a shared abort error or a fresh successful run
	case <-time.After(5 * time.Second):
		t.Fatal("follower still blocked after leader panic")
	}
	if g.waiters("k") != 0 {
		t.Error("flight entry leaked after panic")
	}
}

// TestAdmissionInFlightCapSheds: with every slot occupied and the queue
// exhausted, new arrivals are shed with 503 + Retry-After while the
// in-cap requests complete normally.
func TestAdmissionInFlightCapSheds(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{MaxInFlight: 2, MaxQueue: 1, QueueWait: 50 * time.Millisecond})
	release := make(chan struct{})
	var once sync.Once
	releaseAll := func() { once.Do(func() { close(release) }) }
	started := make(chan struct{}, 8)
	srv := httptest.NewServer(withAdmission(adm, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})))
	// Unblock handlers before srv.Close (it waits for them) on every exit
	// path, including t.Fatal.
	defer srv.Close()
	defer releaseAll()

	// Two in-cap requests occupy the slots.
	inCap := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			resp, err := http.Get(srv.URL)
			if err != nil {
				inCap <- -1
				return
			}
			resp.Body.Close()
			inCap <- resp.StatusCode
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("in-cap requests never started")
		}
	}

	// A burst beyond cap+queue: every one must come back 503 with a
	// Retry-After hint (the queue's single spot times out in 50ms; the
	// rest shed immediately).
	var wg sync.WaitGroup
	codes := make(chan int, 4)
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(srv.URL)
			if err != nil {
				codes <- -1
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.Header.Get("Retry-After") == "" {
				t.Errorf("shed response missing Retry-After")
			}
			codes <- resp.StatusCode
		}()
	}
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusServiceUnavailable {
			t.Errorf("over-cap request got %d, want 503", code)
		}
	}

	// The in-cap clients were never harmed by the burst.
	releaseAll()
	for i := 0; i < 2; i++ {
		if code := <-inCap; code != http.StatusOK {
			t.Errorf("in-cap request got %d, want 200", code)
		}
	}

	st := adm.Stats()
	if st.Shed != 4 {
		t.Errorf("shed = %d, want 4", st.Shed)
	}
	if st.Admitted != 2 {
		t.Errorf("admitted = %d, want 2", st.Admitted)
	}
}

// TestAdmissionQueueAdmitsWhenSlotFrees: a queued request inside the
// wait bound is admitted, not shed, once a slot opens.
func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, QueueWait: 5 * time.Second})
	release := make(chan struct{})
	started := make(chan struct{}, 2)
	srv := httptest.NewServer(withAdmission(adm, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-release
		w.WriteHeader(http.StatusOK)
	})))
	defer srv.Close()

	first := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL)
		if err != nil {
			first <- -1
			return
		}
		resp.Body.Close()
		first <- resp.StatusCode
	}()
	<-started

	second := make(chan int, 1)
	go func() {
		resp, err := http.Get(srv.URL)
		if err != nil {
			second <- -1
			return
		}
		resp.Body.Close()
		second <- resp.StatusCode
	}()
	// Give the second request time to join the queue, then free the slot.
	time.Sleep(50 * time.Millisecond)
	close(release)
	if code := <-first; code != http.StatusOK {
		t.Fatalf("slot holder got %d", code)
	}
	if code := <-second; code != http.StatusOK {
		t.Fatalf("queued request got %d, want 200 after the slot freed", code)
	}
	if st := adm.Stats(); st.Admitted != 2 || st.Shed != 0 {
		t.Errorf("stats = %+v, want 2 admitted, 0 shed", st)
	}
}

// TestAdmissionRateLimitThrottles: a client past its bucket gets 429
// with a Retry-After computed from its own refill rate; other clients
// and later arrivals (after refill) are unaffected.
func TestAdmissionRateLimitThrottles(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{RatePerSec: 1, Burst: 2})
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	adm.now = func() time.Time { return now }
	h := withAdmission(adm, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))

	do := func(remote, xff string) *httptest.ResponseRecorder {
		r := httptest.NewRequest("GET", "/api/v1/query?dataset=sps", nil)
		r.RemoteAddr = remote
		if xff != "" {
			r.Header.Set("X-Forwarded-For", xff)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		return rec
	}

	// Burst of 2 passes; the third is throttled.
	for i := 0; i < 2; i++ {
		if rec := do("10.1.1.1:5000", ""); rec.Code != http.StatusOK {
			t.Fatalf("burst request %d got %d", i, rec.Code)
		}
	}
	rec := do("10.1.1.1:5001", "") // same client, different ephemeral port
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("third request got %d, want 429", rec.Code)
	}
	if ra := rec.Header().Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want 1 (one token at 1 req/s)", ra)
	}
	var body apiError
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil || body.Error.Message == "" {
		t.Errorf("throttle body not a JSON error: %q", rec.Body.String())
	}

	// A different client (via X-Forwarded-For through a proxy) has its
	// own bucket.
	if rec := do("10.1.1.1:5002", "203.0.113.9"); rec.Code != http.StatusOK {
		t.Errorf("other client got %d, want 200", rec.Code)
	}
	// After a second of refill the throttled client is served again.
	now = now.Add(time.Second)
	if rec := do("10.1.1.1:5003", ""); rec.Code != http.StatusOK {
		t.Errorf("post-refill request got %d, want 200", rec.Code)
	}
	if st := adm.Stats(); st.Throttled != 1 {
		t.Errorf("throttled = %d, want 1", st.Throttled)
	}
}

// TestAdmissionMetaExemptAndSurfaced: /api/v1/meta bypasses admission —
// an operator must be able to observe a saturated server — and reports
// the controller's counters and latency percentiles.
func TestAdmissionMetaExemptAndSurfaced(t *testing.T) {
	s, _ := buildArchive(t)
	adm := NewAdmission(AdmissionConfig{MaxInFlight: 1, RatePerSec: 1000, Burst: 1000})
	s.SetAdmission(adm)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	// One successful query so the latency ring has a sample.
	resp, err := http.Get(srv.URL + "/api/v1/query?dataset=sps&limit=10")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query got %d", resp.StatusCode)
	}

	// Saturate: occupy the only slot directly, then prove queries shed
	// while meta still answers.
	adm.slots <- struct{}{}
	resp, err = http.Get(srv.URL + "/api/v1/query?dataset=sps&limit=10")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("saturated query got %d, want 503", resp.StatusCode)
	}

	resp, err = http.Get(srv.URL + "/api/v1/meta")
	if err != nil {
		t.Fatal(err)
	}
	var m Meta
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("meta on a saturated server got %d, want 200 (exempt)", resp.StatusCode)
	}
	<-adm.slots

	if m.Admission == nil {
		t.Fatal("meta carries no admission section")
	}
	if m.Admission.Admitted != 1 || m.Admission.Shed != 1 {
		t.Errorf("admission stats = %+v, want 1 admitted, 1 shed", m.Admission)
	}
	if m.Admission.MaxInFlight != 1 {
		t.Errorf("maxInFlight = %d, want 1", m.Admission.MaxInFlight)
	}
	if m.Admission.P50Ms <= 0 || m.Admission.P99Ms < m.Admission.P50Ms {
		t.Errorf("latency percentiles p50=%v p99=%v, want 0 < p50 <= p99", m.Admission.P50Ms, m.Admission.P99Ms)
	}
}

// TestAdmissionMixedTrafficLiveCollector drives loadgen-shaped traffic
// — hot cache hits, cold scans, cursor walks, latest polls — through
// the admitted handler while a live collector keeps appending. Every
// response must be 200/429/503 (with Retry-After on the latter two),
// and the run must stay clean under -race (CI runs the test job with
// it).
func TestAdmissionMixedTrafficLiveCollector(t *testing.T) {
	cat := catalog.Compact(2)
	clk := simclock.NewAtEpoch()
	cloud := cloudsim.New(cat, clk, 7, cloudsim.DefaultParams())
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	col, err := collector.New(cloud, db, collector.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Run(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	s := NewService(db, cat)
	s.SetAdmission(NewAdmission(AdmissionConfig{
		MaxInFlight: 4, MaxQueue: 8, QueueWait: 20 * time.Millisecond,
		RatePerSec: 500, Burst: 500,
	}))
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	stop := make(chan struct{})
	var colWG sync.WaitGroup
	colWG.Add(1)
	go func() {
		defer colWG.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := col.Run(10 * time.Minute); err != nil {
				t.Errorf("collector: %v", err)
				return
			}
		}
	}()

	get := func(url string) (*http.Response, bool) {
		resp, err := http.Get(url)
		if err != nil {
			t.Errorf("GET %s: %v", url, err)
			return nil, false
		}
		_, copyErr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if copyErr != nil {
			t.Errorf("GET %s: body: %v", url, copyErr)
			return nil, false
		}
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if resp.Header.Get("Retry-After") == "" {
				t.Errorf("GET %s: %d without Retry-After", url, resp.StatusCode)
			}
		default:
			t.Errorf("GET %s: unexpected status %d", url, resp.StatusCode)
		}
		return resp, true
	}

	const workers = 9
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cursor := ""
			for i := 0; i < 25; i++ {
				switch w % 3 {
				case 0: // hot: identical bounded query every time
					get(srv.URL + "/api/v1/query?dataset=sps&limit=50")
				case 1: // cold: a distinct window every request
					url := fmt.Sprintf("%s/api/v1/query?dataset=sps&limit=50&from=2022-01-01T00:%02d:00Z", srv.URL, i%60)
					get(url)
				case 2: // cursor walk + a latest poll
					resp, ok := get(srv.URL + "/api/v1/query?dataset=sps&limit=40&cursor=" + cursor)
					cursor = ""
					if ok && resp.StatusCode == http.StatusOK {
						cursor = resp.Header.Get("X-Next-Cursor")
					}
					get(srv.URL + "/api/v1/latest?dataset=sps")
				}
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	colWG.Wait()

	st := s.admission.Stats()
	if st.Admitted == 0 {
		t.Error("no requests admitted")
	}
	if st.InFlight != 0 {
		t.Errorf("in-flight gauge = %d after drain, want 0 (leaked slot?)", st.InFlight)
	}
	if cs := s.CacheStats(); cs.Hits == 0 {
		t.Error("hot traffic produced no cache hits")
	}
}
