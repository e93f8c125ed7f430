package obs

import (
	"fmt"
	"io"
	"sort"
	"strconv"
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

// registered is one metric the registry will expose. Exactly one of the
// source fields is set, matching typ.
type registered struct {
	name, help string
	typ        MetricType

	counter   *Counter
	counterFn func() uint64
	gauge     *Gauge
	gaugeFn   func() float64
	hist      *Histogram
	histFn    func() HistogramSnapshot
}

// histogram snapshots a histogram metric from whichever source it has.
func (m *registered) histogram() HistogramSnapshot {
	if m.histFn != nil {
		return m.histFn()
	}
	return m.hist.Snapshot()
}

// Registry is a named collection of metrics. Registration is cheap and
// happens at wiring time (service construction); reads happen at scrape
// time. Metric names follow the spotlake_<subsystem>_<name> convention
// and must be valid Prometheus metric names.
//
// Re-registering an existing name with the same type replaces the
// metric's source. That choice is deliberate: serving-layer components
// are occasionally rebuilt in place (SetAdmission, a follower's store
// swap), and the freshest wiring must win; replacing with a different
// TYPE panics, because that is always a naming bug.
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

func (r *Registry) register(m *registered) {
	if !validMetricName(m.name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", m.name))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byName[m.name]; ok {
		if old.typ != m.typ {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", m.name, m.typ, old.typ))
		}
		*old = *m
		return
	}
	r.byName[m.name] = m
	r.ordered = append(r.ordered, m)
}

// Counter creates, registers, and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.RegisterCounter(name, help, c)
	return c
}

// RegisterCounter registers an existing counter (one a subsystem struct
// already owns) under name.
func (r *Registry) RegisterCounter(name, help string, c *Counter) {
	r.register(&registered{name: name, help: help, typ: TypeCounter, counter: c})
}

// CounterFunc registers a counter whose value is read through fn at
// scrape time — for state owned by a component the registry outlives
// (e.g. a follower's swappable store).
func (r *Registry) CounterFunc(name, help string, fn func() uint64) {
	r.register(&registered{name: name, help: help, typ: TypeCounter, counterFn: fn})
}

// Gauge creates, registers, and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.RegisterGauge(name, help, g)
	return g
}

// RegisterGauge registers an existing gauge under name.
func (r *Registry) RegisterGauge(name, help string, g *Gauge) {
	r.register(&registered{name: name, help: help, typ: TypeGauge, gauge: g})
}

// GaugeFunc registers a gauge whose value is read through fn at scrape
// time.
func (r *Registry) GaugeFunc(name, help string, fn func() float64) {
	r.register(&registered{name: name, help: help, typ: TypeGauge, gaugeFn: fn})
}

// Histogram creates, registers, and returns a histogram over the given
// bucket bounds (seconds; see NewHistogram).
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	h := NewHistogram(bounds)
	r.RegisterHistogram(name, help, h)
	return h
}

// RegisterHistogram registers an existing histogram under name.
func (r *Registry) RegisterHistogram(name, help string, h *Histogram) {
	r.register(&registered{name: name, help: help, typ: TypeHistogram, hist: h})
}

// HistogramFunc registers a histogram whose state is read through fn at
// scrape time, the histogram counterpart of CounterFunc. Every snapshot
// fn returns must carry the same bounds.
func (r *Registry) HistogramFunc(name, help string, fn func() HistogramSnapshot) {
	r.register(&registered{name: name, help: help, typ: TypeHistogram, histFn: fn})
}

// snapshotMetrics captures the registration list so value reads run
// outside the registry lock (a gaugeFn may itself take locks).
func (r *Registry) snapshotMetrics() []*registered {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*registered, len(r.ordered))
	copy(out, r.ordered)
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

// Samples flattens the registry's current values: one sample per
// counter/gauge, and per histogram the cumulative buckets plus _sum and
// _count. Sorted by name (buckets in le order), matching the exposition.
func (r *Registry) Samples() []Sample {
	metrics := r.snapshotMetrics()
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].name < metrics[j].name })
	var out []Sample
	for _, m := range metrics {
		switch m.typ {
		case TypeCounter:
			v := uint64(0)
			if m.counter != nil {
				v = m.counter.Value()
			} else {
				v = m.counterFn()
			}
			out = append(out, Sample{Name: m.name, Value: float64(v)})
		case TypeGauge:
			v := 0.0
			if m.gauge != nil {
				v = float64(m.gauge.Value())
			} else {
				v = m.gaugeFn()
			}
			out = append(out, Sample{Name: m.name, Value: v})
		case TypeHistogram:
			s := m.histogram()
			cum := uint64(0)
			for i, b := range s.Bounds {
				cum += s.Counts[i]
				out = append(out, Sample{Name: m.name + "_bucket", Le: formatFloat(b), Value: float64(cum)})
			}
			cum += s.Counts[len(s.Bounds)]
			out = append(out, Sample{Name: m.name + "_bucket", Le: "+Inf", Value: float64(cum)})
			out = append(out, Sample{Name: m.name + "_sum", Value: s.Sum})
			out = append(out, Sample{Name: m.name + "_count", Value: float64(cum)})
		}
	}
	return out
}

// WritePrometheus writes every registered metric in Prometheus text
// exposition format (version 0.0.4), sorted by metric name.
func (r *Registry) WritePrometheus(w io.Writer) error {
	metrics := r.snapshotMetrics()
	sort.Slice(metrics, func(i, j int) bool { return metrics[i].name < metrics[j].name })
	var b strings.Builder
	for _, m := range metrics {
		b.Reset()
		if m.help != "" {
			b.WriteString("# HELP ")
			b.WriteString(m.name)
			b.WriteByte(' ')
			b.WriteString(escapeHelp(m.help))
			b.WriteByte('\n')
		}
		b.WriteString("# TYPE ")
		b.WriteString(m.name)
		b.WriteByte(' ')
		b.WriteString(string(m.typ))
		b.WriteByte('\n')
		switch m.typ {
		case TypeCounter:
			v := uint64(0)
			if m.counter != nil {
				v = m.counter.Value()
			} else {
				v = m.counterFn()
			}
			b.WriteString(m.name)
			b.WriteByte(' ')
			b.WriteString(strconv.FormatUint(v, 10))
			b.WriteByte('\n')
		case TypeGauge:
			v := 0.0
			if m.gauge != nil {
				v = float64(m.gauge.Value())
			} else {
				v = m.gaugeFn()
			}
			b.WriteString(m.name)
			b.WriteByte(' ')
			b.WriteString(formatFloat(v))
			b.WriteByte('\n')
		case TypeHistogram:
			s := m.histogram()
			cum := uint64(0)
			for i, bound := range s.Bounds {
				cum += s.Counts[i]
				fmt.Fprintf(&b, "%s_bucket{le=%q} %d\n", m.name, formatFloat(bound), cum)
			}
			cum += s.Counts[len(s.Bounds)]
			fmt.Fprintf(&b, "%s_bucket{le=\"+Inf\"} %d\n", m.name, cum)
			fmt.Fprintf(&b, "%s_sum %s\n", m.name, formatFloat(s.Sum))
			fmt.Fprintf(&b, "%s_count %d\n", m.name, cum)
		}
		if _, err := io.WriteString(w, b.String()); err != nil {
			return err
		}
	}
	return nil
}

// escapeHelp escapes backslashes and newlines per the exposition format.
func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}
