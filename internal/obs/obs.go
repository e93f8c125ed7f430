// Package obs is SpotLake's observability primitive layer: a
// dependency-free typed metrics kit — atomic counters and fixed-bucket
// latency histograms, with gauges read through a function — plus a
// registry that renders every registered metric two ways: as Prometheus
// text exposition (WritePrometheus) and as JSON sections (Sections),
// which is all of /api/v1/meta but its hand-written schema and
// replication role.
//
// Design constraints, in order:
//
//   - One state, many surfaces. A subsystem owns exactly one Counter
//     per fact, and the registry reads it through one function per
//     metric for every surface, so the exposition and the JSON can
//     never disagree about anything but scrape timing. One naming rule
//     (jsonPath) places a metric in the JSON: spotlake_cache_hits_total
//     is cache.hits, so a new metric reaches both surfaces by being
//     registered. Zero values are ready to use: a struct embeds
//     obs.Counter the way it used to embed atomic.Uint64, and
//     registration is a separate wiring step.
//
//   - Hot-path cost is one atomic op. Counter.Add and
//     Histogram.Observe take no locks; snapshots and exposition pay
//     whatever they pay, because they run at scrape rate, not request
//     rate.
//
//   - Histograms are fixed-bucket. Quantiles are derived from the
//     buckets alone — the same p50/p99 any Prometheus
//     histogram_quantile() over the exposition would compute, so the
//     meta JSON and a dashboard over the scrape agree by construction.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use.
type Counter struct{ v atomic.Uint64 }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// DefLatencyBuckets are the default handler-latency bucket upper bounds
// in seconds: roughly exponential from 500µs to 10s, the span between a
// result-cache hit and a request worth shedding; the HTTP layer's
// request-duration histogram is built on them.
var DefLatencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram counts observations into fixed buckets. Observe is one
// atomic add (plus a branch-free bucket search); everything derived —
// quantiles, exposition lines — comes from Snapshot. Create with
// NewHistogram; the zero value has no buckets and drops observations.
type Histogram struct {
	bounds []float64 // upper bounds, strictly increasing, seconds
	counts []atomic.Uint64
	// sumNanos accumulates observed time exactly (integer nanoseconds);
	// the exposition divides once. An atomic float would need a CAS loop
	// on every Observe for no precision we need at <292y total.
	sumNanos atomic.Int64
}

// NewHistogram builds a histogram over the given bucket upper bounds
// (seconds, strictly increasing). An implicit +Inf bucket is appended.
// Panics on unsorted or empty bounds — a registration-time programmer
// error, not a runtime condition.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds must increase strictly (%v then %v)", bounds[i-1], bounds[i]))
		}
	}
	h := &Histogram{bounds: append([]float64(nil), bounds...)}
	h.counts = make([]atomic.Uint64, len(bounds)+1)
	return h
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil || len(h.bounds) == 0 {
		return
	}
	secs := d.Seconds()
	i := sort.SearchFloat64s(h.bounds, secs) // first bound >= secs
	h.counts[i].Add(1)
	h.sumNanos.Add(int64(d))
}

// Snapshot captures the histogram's buckets at one instant (per-bucket
// atomically; the vector as a whole is only as coherent as any lock-free
// multi-counter read — counts never decrease, so a racing Observe can at
// worst land in a later snapshot).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]uint64, len(h.counts)),
		Sum:    float64(h.sumNanos.Load()) / float64(time.Second),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
		s.Count += s.Counts[i]
	}
	return s
}

// HistogramSnapshot is an immutable copy of a histogram's state:
// per-bucket (non-cumulative) counts aligned with Bounds plus the
// implicit +Inf bucket at the end, the total observation count, and the
// sum of observed values in seconds.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []uint64 // len(Bounds)+1; last is the +Inf bucket
	Count  uint64
	Sum    float64
}

// Quantile returns the p-quantile (0 <= p <= 1) derived from the
// buckets with linear interpolation inside the containing bucket —
// exactly what Prometheus histogram_quantile() computes from the same
// exposition, so JSON consumers and scrape consumers see one number.
// Returns 0 with no observations; observations in the +Inf bucket
// resolve to the highest finite bound (the histogram cannot say more).
func (s HistogramSnapshot) Quantile(p float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	rank := p * float64(s.Count)
	var cum uint64
	for i, c := range s.Counts {
		if c == 0 {
			cum += c
			continue
		}
		if float64(cum+c) >= rank {
			if i == len(s.Bounds) {
				// +Inf bucket: the last finite bound is the best claim.
				return s.Bounds[len(s.Bounds)-1]
			}
			lower := 0.0
			if i > 0 {
				lower = s.Bounds[i-1]
			}
			upper := s.Bounds[i]
			frac := (rank - float64(cum)) / float64(c)
			if frac < 0 {
				frac = 0
			}
			return lower + (upper-lower)*frac
		}
		cum += c
	}
	return s.Bounds[len(s.Bounds)-1]
}

// formatFloat renders a sample value the way the exposition format
// expects: whole numbers (every counter and bucket count) in full,
// others in their shortest round-trip representation, +Inf/-Inf/NaN
// spelled Prometheus-style.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	case v == math.Trunc(v) && math.Abs(v) < 1e15:
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
