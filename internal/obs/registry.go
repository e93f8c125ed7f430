package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
)

// MetricType is a metric's exposition type.
type MetricType string

const (
	TypeCounter   MetricType = "counter"
	TypeGauge     MetricType = "gauge"
	TypeHistogram MetricType = "histogram"
)

// registered is one metric the registry will expose: its name, its
// place in the JSON view (see jsonPath), and read, the one function
// through which every surface takes its current value.
type registered struct {
	name, help   string
	section, key string
	typ          MetricType
	read         func() reading
}

// reading is one metric's value at one instant: count for a counter,
// value for a gauge, hist for a histogram.
type reading struct {
	count uint64
	value float64
	hist  HistogramSnapshot
}

// Registry is a named collection of metrics. Registration is cheap and
// happens at wiring time (service construction); reads happen at scrape
// time. Metric names follow the spotlake_<section>_<name> convention
// (see jsonPath) and must be valid Prometheus metric names.
//
// Re-registering an existing name with the same type replaces the
// metric's source. That choice is deliberate: serving-layer components
// are occasionally rebuilt in place (SetAdmission, a follower's store
// swap), and the freshest wiring must win; replacing with a different
// TYPE panics, because that is always a naming bug, and so does a new
// name whose JSON path another name already renders to.
type Registry struct {
	mu      sync.Mutex
	byName  map[string]*registered
	ordered []*registered // registration order; exposition sorts by name
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]*registered)}
}

// validMetricName enforces the Prometheus metric-name grammar
// [a-zA-Z_:][a-zA-Z0-9_:]*.
func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, r := range name {
		letter := (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z') || r == '_' || r == ':'
		if !letter && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

// jsonPath is the one naming rule between a metric and its place in the
// JSON view (Sections, and so /api/v1/meta): drop "spotlake_"; the next
// "_"-separated word names the section; drop a trailing "_total" and
// lowerCamel the rest for the key. spotlake_cache_body_hits_total is
// cache.bodyHits. ok is false for a name the rule cannot place.
func jsonPath(name string) (section, key string, ok bool) {
	rest, ok := strings.CutPrefix(name, "spotlake_")
	if !ok {
		return "", "", false
	}
	section, rest, ok = strings.Cut(rest, "_")
	if !ok || section == "" {
		return "", "", false
	}
	words := strings.Split(strings.TrimSuffix(rest, "_total"), "_")
	for i, w := range words {
		if w == "" {
			return "", "", false
		}
		if i > 0 {
			words[i] = strings.ToUpper(w[:1]) + w[1:]
		}
	}
	return section, strings.Join(words, ""), true
}

func (r *Registry) register(name, help string, typ MetricType, read func() reading) {
	section, key, ok := jsonPath(name)
	if !validMetricName(name) || !ok {
		panic(fmt.Sprintf("obs: invalid metric name %q (want spotlake_<section>_<name>)", name))
	}
	m := &registered{name: name, help: help, section: section, key: key, typ: typ, read: read}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[name]; ok {
		if old.typ != typ {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, typ, old.typ))
		}
		*old = *m
		return
	}
	for _, other := range r.ordered {
		if other.section == section && other.key == key {
			panic(fmt.Sprintf("obs: metrics %q and %q both render as %s.%s", other.name, name, section, key))
		}
	}
	r.byName[name] = m
	r.ordered = append(r.ordered, m)
}

// RegisterCounter registers an existing counter (one a subsystem struct
// already owns) under name.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.CounterFunc(name, help, c.Value)
}

// CounterFunc registers a counter whose value is read through fn at
// scrape time — for state owned by a component the registry outlives
// (e.g. a follower's swappable store).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(name, help, TypeCounter, func() reading { return reading{count: fn()} })
}

// GaugeFunc registers a gauge whose value is read through fn at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(name, help, TypeGauge, func() reading { return reading{value: fn()} })
}

// RegisterHistogram registers an existing histogram under name.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.HistogramFunc(name, help, h.Snapshot)
}

// HistogramFunc registers a histogram whose state is read through fn at
// scrape time, the histogram counterpart of CounterFunc. Every snapshot
// fn returns must carry the same bounds.
func (r *Registry) HistogramFunc(name, help string, fn func() HistogramSnapshot) {
	r.register(name, help, TypeHistogram, func() reading { return reading{hist: fn()} })
}

// sortedMetrics captures the registration list, sorted by name, so value
// reads run outside the registry lock (a gaugeFn may itself take locks).
func (r *Registry) sortedMetrics() []*registered {
	r.mu.Lock()
	out := make([]*registered, len(r.ordered))
	copy(out, r.ordered)
	r.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}

// Sample is one exposition sample: a metric name (with the _bucket /
// _sum / _count suffix already applied for histogram series), the
// bucket's le label for histogram buckets (empty otherwise), and the
// value.
type Sample struct {
	Name  string
	Le    string // set only on histogram _bucket samples
	Value float64
}

// samples appends m's exposition samples at reading v: one per counter or
// gauge, and per histogram the cumulative buckets plus _sum and _count.
func (m *registered) samples(out []Sample, v reading) []Sample {
	switch m.typ {
	case TypeCounter:
		return append(out, Sample{Name: m.name, Value: float64(v.count)})
	case TypeGauge:
		return append(out, Sample{Name: m.name, Value: v.value})
	}
	s := v.hist
	cum := uint64(0)
	for i, b := range s.Bounds {
		cum += s.Counts[i]
		out = append(out, Sample{Name: m.name + "_bucket", Le: formatFloat(b), Value: float64(cum)})
	}
	cum += s.Counts[len(s.Bounds)]
	out = append(out, Sample{Name: m.name + "_bucket", Le: "+Inf", Value: float64(cum)})
	out = append(out, Sample{Name: m.name + "_sum", Value: s.Sum})
	return append(out, Sample{Name: m.name + "_count", Value: float64(cum)})
}

// Samples flattens the registry's current values, sorted by name
// (buckets in le order), matching the exposition.
func (r *Registry) Samples() []Sample {
	var out []Sample
	for _, m := range r.sortedMetrics() {
		out = m.samples(out, m.read())
	}
	return out
}

// WritePrometheus writes every registered metric in Prometheus text
// exposition format (version 0.0.4), sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var b strings.Builder
	var samples []Sample
	for _, m := range r.sortedMetrics() {
		b.Reset()
		if m.help != "" {
			fmt.Fprintf(&b, "# HELP %s %s\n", m.name, escapeHelp(m.help))
		}
		fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.typ)
		samples = m.samples(samples[:0], m.read())
		for _, s := range samples {
			b.WriteString(s.Name)
			if s.Le != "" {
				fmt.Fprintf(&b, "{le=%q}", s.Le)
			}
			b.WriteByte(' ')
			b.WriteString(formatFloat(s.Value))
			b.WriteByte('\n')
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// histogramJSON is a histogram in the JSON view: the observation count,
// their sum and the bucket-derived p50 and p99, all in the histogram's
// own unit.
type histogramJSON struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	P50   float64 `json:"p50"`
	P99   float64 `json:"p99"`
}

// Sections renders every metric as JSON-ready values, section -> key ->
// value by jsonPath's rule: a counter as its uint64 count, a gauge as its
// float64 value, a histogram as an object of its count, sum, p50 and p99.
func (r *Registry) Sections() map[string]map[string]any {
	out := make(map[string]map[string]any)
	for _, m := range r.sortedMetrics() {
		sec := out[m.section]
		if sec == nil {
			sec = make(map[string]any)
			out[m.section] = sec
		}
		switch v := m.read(); m.typ {
		case TypeCounter:
			sec[m.key] = v.count
		case TypeGauge:
			sec[m.key] = v.value
		default:
			sec[m.key] = histogramJSON{Count: v.hist.Count, Sum: v.hist.Sum, P50: v.hist.Quantile(0.50), P99: v.hist.Quantile(0.99)}
		}
	}
	return out
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
