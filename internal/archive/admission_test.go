package archive

// Tests for the serving layer's traffic hardening: the global in-flight
// cap with bounded queueing and 503 shedding, per-client token-bucket
// throttling with 429 + Retry-After, and a loadgen-shaped mixed-traffic
// run against a live collector (meaningful under -race, which CI
// applies).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cloudsim"
	"repro/internal/collector"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/tsdb"
)

// TestAdmissionInFlightCapSheds: with every slot occupied and the queue
// exhausted, new arrivals are shed with 503 + Retry-After while the
// in-cap requests complete normally.
func TestAdmissionInFlightCapSheds(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{MaxInFlight: 2, MaxQueue: 1, QueueWait: 50 * time.Millisecond})
	reg := obs.NewRegistry()
	adm.registerMetrics(reg)
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

	if shed := metric(t, reg, "spotlake_admission_shed_total"); shed != 4 {
		t.Errorf("shed = %v, want 4", shed)
	}
	if admitted := metric(t, reg, "spotlake_admission_admitted_total"); admitted != 2 {
		t.Errorf("admitted = %v, want 2", admitted)
	}
}

// TestAdmissionQueueAdmitsWhenSlotFrees: a queued request inside the
// wait bound is admitted, not shed, once a slot opens.
func TestAdmissionQueueAdmitsWhenSlotFrees(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{MaxInFlight: 1, MaxQueue: 1, QueueWait: 5 * time.Second})
	reg := obs.NewRegistry()
	adm.registerMetrics(reg)
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
	if admitted, shed := metric(t, reg, "spotlake_admission_admitted_total"), metric(t, reg, "spotlake_admission_shed_total"); admitted != 2 || shed != 0 {
		t.Errorf("%v admitted, %v shed, want 2 admitted, 0 shed", admitted, shed)
	}
}

// TestAdmissionRateLimitThrottles: a client past its bucket gets 429
// with a Retry-After computed from its own refill rate; other clients
// and later arrivals (after refill) are unaffected.
func TestAdmissionRateLimitThrottles(t *testing.T) {
	adm := NewAdmission(AdmissionConfig{RatePerSec: 1, Burst: 2})
	reg := obs.NewRegistry()
	adm.registerMetrics(reg)
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
	if throttled := metric(t, reg, "spotlake_admission_throttled_total"); throttled != 1 {
		t.Errorf("throttled = %v, want 1", throttled)
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
	var m map[string]any
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("meta on a saturated server got %d, want 200 (exempt)", resp.StatusCode)
	}
	<-adm.slots

	if admitted, shed := metaAt(t, m, "admission.admitted"), metaAt(t, m, "admission.shed"); admitted != 1.0 || shed != 1.0 {
		t.Errorf("admission section: %v admitted, %v shed, want 1 admitted, 1 shed", admitted, shed)
	}
	if got := metaAt(t, m, "admission.maxInFlight"); got != 1.0 {
		t.Errorf("maxInFlight = %v, want 1", got)
	}
	p50, p99 := metaAt(t, m, "http.requestDurationSeconds.p50").(float64), metaAt(t, m, "http.requestDurationSeconds.p99").(float64)
	if p50 <= 0 || p99 < p50 {
		t.Errorf("latency percentiles p50=%v p99=%v, want 0 < p50 <= p99", p50, p99)
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

	if metric(t, s.reg, "spotlake_admission_admitted_total") == 0 {
		t.Error("no requests admitted")
	}
	if inFlight := metric(t, s.reg, "spotlake_admission_in_flight"); inFlight != 0 {
		t.Errorf("in-flight gauge = %v after drain, want 0 (leaked slot?)", inFlight)
	}
	if metric(t, s.reg, "spotlake_cache_hits_total") == 0 {
		t.Error("hot traffic produced no cache hits")
	}
}
