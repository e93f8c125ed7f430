package obs

import (
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var g Gauge
	g.Set(7)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Fatalf("gauge = %d, want 4", got)
	}
}

func TestHistogramObserveAndQuantile(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01, 0.1, 1})
	// 100 observations in the (0.001, 0.01] bucket, 100 in (0.01, 0.1].
	for i := 0; i < 100; i++ {
		h.Observe(5 * time.Millisecond)
		h.Observe(50 * time.Millisecond)
	}
	s := h.Snapshot()
	if s.Count != 200 {
		t.Fatalf("count = %d, want 200", s.Count)
	}
	wantSum := 100*0.005 + 100*0.050
	if math.Abs(s.Sum-wantSum) > 1e-9 {
		t.Fatalf("sum = %v, want %v", s.Sum, wantSum)
	}
	// p50 falls exactly at the boundary between the two buckets; the
	// interpolated value is the first bucket's upper bound.
	if p50 := s.Quantile(0.50); math.Abs(p50-0.01) > 1e-9 {
		t.Fatalf("p50 = %v, want 0.01", p50)
	}
	// p99 interpolates inside the second bucket: rank 198 of 200, with
	// 100 below the bucket -> 98% through (0.01, 0.1].
	if p99 := s.Quantile(0.99); math.Abs(p99-(0.01+0.098*0.09/0.1)) > 1e-6 {
		t.Fatalf("p99 = %v", p99)
	}
	if p0 := s.Quantile(0); p0 < 0 || p0 > 0.01 {
		t.Fatalf("p0 = %v, want within first occupied bucket", p0)
	}
}

func TestHistogramBoundaryGoesToLowerBucket(t *testing.T) {
	h := NewHistogram([]float64{0.001, 0.01})
	h.Observe(time.Millisecond) // exactly 0.001s: le="0.001" is inclusive
	s := h.Snapshot()
	if s.Counts[0] != 1 || s.Counts[1] != 0 {
		t.Fatalf("boundary observation landed in %v, want first bucket", s.Counts)
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram([]float64{0.001})
	h.Observe(time.Minute)
	s := h.Snapshot()
	if s.Counts[1] != 1 {
		t.Fatalf("overflow observation landed in %v, want +Inf bucket", s.Counts)
	}
	// A +Inf-bucket quantile resolves to the highest finite bound.
	if q := s.Quantile(0.99); q != 0.001 {
		t.Fatalf("quantile from +Inf bucket = %v, want 0.001", q)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(DefLatencyBuckets)
	b := NewHistogram(DefLatencyBuckets)
	a.Observe(2 * time.Millisecond)
	b.Observe(200 * time.Millisecond)
	sa, sb := a.Snapshot(), b.Snapshot()
	if err := sa.Merge(sb); err != nil {
		t.Fatalf("merge: %v", err)
	}
	if sa.Count != 2 {
		t.Fatalf("merged count = %d, want 2", sa.Count)
	}
	if math.Abs(sa.Sum-0.202) > 1e-9 {
		t.Fatalf("merged sum = %v, want 0.202", sa.Sum)
	}
	mismatch := HistogramSnapshot{Bounds: []float64{1, 2}, Counts: []uint64{0, 0, 0}}
	if err := sa.Merge(mismatch); err == nil {
		t.Fatal("merging mismatched bounds did not error")
	}
}

func TestHistogramEmptyQuantile(t *testing.T) {
	s := NewHistogram(DefLatencyBuckets).Snapshot()
	if q := s.Quantile(0.99); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
	if m := s.Mean(); m != 0 {
		t.Fatalf("empty histogram mean = %v, want 0", m)
	}
}

func TestRegistryExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("spotlake_test_ops_total", "ops so far")
	c.Add(5)
	reg.GaugeFunc("spotlake_test_depth", "current depth", func() float64 { return 3.5 })
	h := reg.Histogram("spotlake_test_latency_seconds", "latency", []float64{0.01, 0.1})
	h.Observe(5 * time.Millisecond)
	h.Observe(50 * time.Millisecond)
	h.Observe(5 * time.Second)
	reg.HistogramFunc("spotlake_test_swapped_seconds", "read through a func", h.Snapshot)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatalf("write: %v", err)
	}
	text := sb.String()
	for _, want := range []string{
		"# TYPE spotlake_test_ops_total counter",
		"spotlake_test_ops_total 5",
		"# TYPE spotlake_test_depth gauge",
		"spotlake_test_depth 3.5",
		"# TYPE spotlake_test_latency_seconds histogram",
		`spotlake_test_latency_seconds_bucket{le="0.01"} 1`,
		`spotlake_test_latency_seconds_bucket{le="0.1"} 2`,
		`spotlake_test_latency_seconds_bucket{le="+Inf"} 3`,
		"spotlake_test_latency_seconds_count 3",
		`spotlake_test_swapped_seconds_bucket{le="0.1"} 2`,
		"spotlake_test_swapped_seconds_count 3",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q:\n%s", want, text)
		}
	}

	samples, err := ParseExposition(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	byName := map[string]float64{}
	for _, s := range samples {
		if s.Le == "" {
			byName[s.Name] = s.Value
		}
	}
	if byName["spotlake_test_ops_total"] != 5 {
		t.Errorf("round-tripped counter = %v", byName["spotlake_test_ops_total"])
	}
	if byName["spotlake_test_depth"] != 3.5 {
		t.Errorf("round-tripped gauge = %v", byName["spotlake_test_depth"])
	}

	snap, err := SnapshotFromSamples(samples, "spotlake_test_latency_seconds")
	if err != nil {
		t.Fatalf("snapshot from samples: %v", err)
	}
	orig := h.Snapshot()
	if snap.Count != orig.Count {
		t.Fatalf("round-tripped count = %d, want %d", snap.Count, orig.Count)
	}
	if got, want := snap.Quantile(0.5), orig.Quantile(0.5); math.Abs(got-want) > 1e-9 {
		t.Fatalf("round-tripped p50 = %v, want %v", got, want)
	}
}

func TestParseExpositionRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no value":  "spotlake_x_total\n",
		"bad name":  "9leading_digit 1\n",
		"bad value": "spotlake_x_total abc\n",
		"bad type":  "# TYPE spotlake_x_total summary\n",
		"bad label": `spotlake_x_bucket{foo="1"} 2` + "\n",
		"non-cumulative": "# TYPE spotlake_h histogram\n" +
			`spotlake_h_bucket{le="0.1"} 5` + "\n" +
			`spotlake_h_bucket{le="+Inf"} 3` + "\n" +
			"spotlake_h_sum 1\nspotlake_h_count 3\n",
		"count mismatch": "# TYPE spotlake_h histogram\n" +
			`spotlake_h_bucket{le="0.1"} 1` + "\n" +
			`spotlake_h_bucket{le="+Inf"} 3` + "\n" +
			"spotlake_h_sum 1\nspotlake_h_count 4\n",
		"missing +Inf": "# TYPE spotlake_h histogram\n" +
			`spotlake_h_bucket{le="0.1"} 1` + "\n" +
			"spotlake_h_sum 1\nspotlake_h_count 1\n",
	}
	for name, text := range cases {
		if _, err := ParseExposition(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parse accepted %q", name, text)
		}
	}
}

func TestRegistryReplaceAndTypeConflict(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("spotlake_test_total", "v1").Add(3)
	// Re-registering the same name and type replaces the source.
	c2 := reg.Counter("spotlake_test_total", "v2")
	c2.Add(9)
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "spotlake_test_total 9") {
		t.Fatalf("replacement not visible:\n%s", sb.String())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering with a different type did not panic")
		}
	}()
	reg.GaugeFunc("spotlake_test_total", "wrong type", func() float64 { return 0 })
}

func TestRegistryConcurrentScrape(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("spotlake_test_ops_total", "")
	h := reg.Histogram("spotlake_test_lat_seconds", "", DefLatencyBuckets)
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(time.Millisecond)
				}
			}
		}()
	}
	prev := uint64(0)
	for i := 0; i < 50; i++ {
		var sb strings.Builder
		if err := reg.WritePrometheus(&sb); err != nil {
			t.Fatalf("write: %v", err)
		}
		samples, err := ParseExposition(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("scrape %d unparseable: %v", i, err)
		}
		for _, s := range samples {
			if s.Name == "spotlake_test_ops_total" {
				if v := uint64(s.Value); v < prev {
					t.Fatalf("counter went backwards: %d -> %d", prev, v)
				} else {
					prev = v
				}
			}
		}
	}
	close(stop)
	wg.Wait()
}

// TestSectionsNamingRule pins the JSON view's one rule: the word after
// spotlake_ is the section, a trailing _total goes, the rest is
// lowerCamel; counters are integers, gauges numbers, histograms
// {count, sum, p50, p99} in their own unit; and a name the rule cannot
// place, or one that lands on another's path, panics at registration.
func TestSectionsNamingRule(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("spotlake_cache_body_hits_total", "").Add(7)
	reg.Counter("spotlake_test_total", "").Add(2)
	reg.GaugeFunc("spotlake_store_replayed_wal_bytes", "", func() float64 { return 1.5 })
	h := reg.Histogram("spotlake_http_request_duration_seconds", "", []float64{0.01, 0.1})
	h.Observe(5 * time.Millisecond)
	h.Observe(50 * time.Millisecond)

	body, err := json.Marshal(reg.Sections())
	if err != nil {
		t.Fatal(err)
	}
	p99, _ := json.Marshal(h.Snapshot().Quantile(0.99))
	want := `{"cache":{"bodyHits":7},"http":{"requestDurationSeconds":{"count":2,"sum":0.055,"p50":0.01,"p99":` + string(p99) + `}},` +
		`"store":{"replayedWalBytes":1.5},"test":{"total":2}}`
	if string(body) != want {
		t.Errorf("sections = %s\nwant       %s", body, want)
	}

	for name, register := range map[string]func(){
		"a collision":        func() { reg.Counter("spotlake_cache_body_hits", "") },
		"a name without key": func() { reg.Counter("spotlake_cache", "") },
		"a foreign prefix":   func() { reg.Counter("other_cache_hits_total", "") },
		"an empty word":      func() { reg.Counter("spotlake_cache_body__hits", "") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("registering %s did not panic", name)
				}
			}()
			register()
		}()
	}
	// Replacing a metric under its own name is not a collision.
	reg.Counter("spotlake_cache_body_hits_total", "").Add(1)
	if got := reg.Sections()["cache"]["bodyHits"]; got != uint64(1) {
		t.Errorf("replaced counter renders %v, want 1", got)
	}
}
