package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tsdb"
)

// testTicks keeps the model small: the self-tests must not cost tier-1
// more than a few seconds.
const testTicks = 400

func TestSeedDeterminesArchiveAndSchedule(t *testing.T) {
	w, _ := findWorkload("scan-cold")
	now := func(time.Duration) int { return baseTicks - 1 }
	a, b, c := newModel(1, testTicks), newModel(1, testTicks), newModel(2, testTicks)
	if a.digest() != b.digest() {
		t.Fatal("same seed, different archive digest")
	}
	if a.digest() == c.digest() {
		t.Fatal("different seeds, same archive digest")
	}
	full := newModel(1, baseTicks)
	sa := newGenerator(full, w, 1).schedule(200, now)
	sb := newGenerator(full, w, 1).schedule(200, now)
	sc := newGenerator(full, w, 2).schedule(200, now)
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("same seed, different request schedule")
	}
	if reflect.DeepEqual(sa, sc) {
		t.Fatal("different seeds, same request schedule")
	}
	seen := map[string]bool{}
	for _, r := range sa {
		if seen[r.path] {
			t.Fatalf("cold window repeated: %s", r.path)
		}
		seen[r.path] = true
	}
}

func TestModelStoresOneTickInFour(t *testing.T) {
	m := newModel(3, baseTicks)
	stored := 0
	for j := range m.vals {
		for i := range m.vals[j] {
			if m.stored(j, i) {
				stored++
			}
		}
	}
	got := float64(stored) / float64(baseTicks*nSeries)
	if got < 0.24 || got > 0.26 {
		t.Fatalf("stored share %.4f, want about 1/%d", got, changeOneIn)
	}
	for j := range 20 {
		for i := 1; i < m.ticks(); i++ {
			if v := m.vals[j][i]; v < 1 || v > 10 {
				t.Fatalf("value %d out of 1..10", v)
			}
		}
	}
}

func TestPercentileRefusesThinTails(t *testing.T) {
	var s []float64
	for i := range 100 {
		s = append(s, float64(i+1))
	}
	if v, ok := percentile(s, 0.90); !ok || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v", v, ok)
	}
	if _, ok := percentile(s, 0.91); ok {
		t.Fatal("p91 of 100 samples has 9 beyond it and must be refused")
	}
	if _, ok := percentile(s[:19], 0.50); ok {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Fatal("percentile of nothing must be refused")
	}
}

// stallServer answers every request at once, except that the first
// request opens a 200 ms stall during which nothing is answered.
func stallServer(t *testing.T) *httptest.Server {
	var mu sync.Mutex
	var until time.Time
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if until.IsZero() {
			until = time.Now().Add(200 * time.Millisecond)
		}
		wait := time.Until(until)
		mu.Unlock()
		time.Sleep(wait)
		fmt.Fprintln(w, "[]")
	}))
	t.Cleanup(srv.Close)
	return srv
}

func slow(rs []result) int {
	n := 0
	for _, r := range rs {
		if r.latency() > 50*time.Millisecond {
			n++
		}
	}
	return n
}

// A 200 ms stall at 100 req/s falls on about 15 requests' due times
// before it is 50 ms from ending. The open loop must charge them all;
// a closed loop of two clients only ever has two requests caught in it.
func TestOpenLoopChargesAStallToEveryRequestDueInIt(t *testing.T) {
	m := newModel(1, 1)
	w, _ := findWorkload("dash-hot")
	w.rate = 100

	srv := stallServer(t)
	c := newClient(strings.TrimPrefix(srv.URL, "http://"))
	defer c.close()
	sched := newGenerator(m, w, 1).schedule(40, func(time.Duration) int { return 0 })
	open := openLoop(c, time.Now(), sched)
	if n := slow(open); n < 10 {
		t.Fatalf("open loop charged the stall to %d requests, want at least 10", n)
	}

	srv = stallServer(t)
	c2 := newClient(strings.TrimPrefix(srv.URL, "http://"))
	defer c2.close()
	closed := closedLoop(c2, newGenerator(m, w, 1), time.Now().Add(400*time.Millisecond), func(time.Time) int { return 0 })
	if n := slow(closed); n > clients {
		t.Fatalf("closed loop saw %d slow requests, more than its %d clients", n, clients)
	}
	if len(closed) < 40 {
		t.Fatalf("closed loop sent only %d requests", len(closed))
	}
}

// modelServer answers /api/v1/query from the model, in the API's JSON
// shape, after spoil has had its way with the points.
func modelServer(t *testing.T, m *model, spoil func(series int, pts []tsdb.Point) []tsdb.Point) *httptest.Server {
	type seriesJSON struct {
		Key    tsdb.SeriesKey `json:"key"`
		Points []tsdb.Point   `json:"points"`
	}
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		from, _ := time.Parse(time.RFC3339, q.Get("from"))
		var out []seriesJSON
		for j, k := range m.keys {
			if k.Type != q.Get("type") {
				continue
			}
			var pts []tsdb.Point
			for i := m.nextStored(j, int(from.Sub(epoch)/tickStep), m.ticks()-1); i >= 0; i = m.nextStored(j, i+1, m.ticks()-1) {
				pts = append(pts, tsdb.Point{At: tickTime(i), Value: float64(m.vals[j][i])})
			}
			out = append(out, seriesJSON{Key: k, Points: spoil(len(out), pts)})
		}
		if err := json.NewEncoder(w).Encode(out); err != nil {
			t.Error(err)
		}
	}))
	t.Cleanup(srv.Close)
	return srv
}

func TestAlteredOrDroppedPointFailsTheRequest(t *testing.T) {
	m := newModel(1, testTicks)
	w, _ := findWorkload("dash-hot")
	w.mix = [numKinds]float64{kindRecent: 1}
	for name, tc := range map[string]struct {
		spoil func(int, []tsdb.Point) []tsdb.Point
		bad   bool
	}{
		"faithful": {func(_ int, p []tsdb.Point) []tsdb.Point { return p }, false},
		"dropped": {func(s int, p []tsdb.Point) []tsdb.Point {
			if s == 3 {
				return append(p[:2:2], p[3:]...)
			}
			return p
		}, true},
		"truncated": {func(s int, p []tsdb.Point) []tsdb.Point {
			if s == 7 {
				return p[:len(p)-1]
			}
			return p
		}, true},
		"altered": {func(s int, p []tsdb.Point) []tsdb.Point {
			if s == 5 {
				p[1].Value = float64(int(p[1].Value)%10 + 1)
			}
			return p
		}, true},
	} {
		t.Run(name, func(t *testing.T) {
			srv := modelServer(t, m, tc.spoil)
			c := newClient(strings.TrimPrefix(srv.URL, "http://"))
			defer c.close()
			r := &run{
				w: w, m: m, cl: c, seconds: 1,
				res:    &runResult{EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}, Samples: map[string]int{}},
				builds: []buildStats{{stored: 1}},
			}
			sched := newGenerator(m, w, 1).schedule(5, func(time.Duration) int { return testTicks - 1 })
			for i, req := range sched {
				res := c.do(req, time.Now(), i == 0)
				if !res.ok {
					t.Fatal(res.err)
				}
				r.paced = append(r.paced, res)
			}
			// The model's last tick stands in for the archive's.
			r.verifyKept(func(time.Time) int { return testTicks - 1 }, 0)
			r.fill(observed{})
			switch ok := r.res.EndToEnd["ok_ratio"]; {
			case tc.bad && (ok >= 1 || r.res.Failed != 1 || r.res.correct()):
				t.Fatalf("spoiled response passed: ok_ratio %v, failed %d", ok, r.res.Failed)
			case !tc.bad && (ok != 1 || r.res.Failed != 0):
				t.Fatalf("faithful response failed: %v", r.res.Problems)
			}
		})
	}
}

// TestBenchmarkJSONMatchesSpec keeps the contract file and the code's
// metric tables in step.
func TestBenchmarkJSONMatchesSpec(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &f); err != nil {
		t.Fatal(err)
	}
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the code's default is %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) || len(f.EndToEnd) != len(endToEnd) || len(f.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the code has %d, %d and %d",
			len(f.Workloads), len(f.EndToEnd), len(f.PerLayer), len(workloads), len(endToEnd), len(perLayer))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file has %q, code has %q (or their whys differ)", i, f.Workloads[i].Name, w.name)
		}
	}
	for i, d := range endToEnd {
		if g := f.EndToEnd[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better || g.Bound != d.bound {
			t.Errorf("end-to-end %d: file has %+v, code has %+v", i, g, d)
		}
	}
	for i, d := range perLayer {
		if g := f.PerLayer[i]; g.Name != d.name || g.Unit != d.unit || (g.Better != "lower" && g.Better != "higher") {
			t.Errorf("per-layer %d: file has %+v, code has %+v", i, g, d)
		}
	}
}
