package obs

// A minimal reader for the Prometheus text exposition format — enough
// for the three consumers in this repo: cmd/metriclint (CI validates
// every scrape parses), the benchmark (bench/ reads the served process's
// counters through it), and the archive tests (meta↔metrics agreement).
// It understands exactly what the registry emits: comment lines, bare
// samples, and histogram samples with a single le label.

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// ParseExposition reads Prometheus text exposition format into samples,
// enforcing the format strictly enough that a malformed scrape fails
// loudly rather than silently dropping series: every non-comment line
// must be `name[{le="bound"}] value`, names must be valid, values must
// parse, TYPE comments must name a known type, and histogram bucket
// series must be cumulative with ascending le bounds ending at +Inf and
// a matching _count.
func ParseExposition(r io.Reader) ([]Sample, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var samples []Sample
	types := make(map[string]MetricType)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := parseComment(line, types); err != nil {
				return nil, fmt.Errorf("line %d: %w", lineNo, err)
			}
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		samples = append(samples, s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if err := checkHistograms(samples, types); err != nil {
		return nil, err
	}
	return samples, nil
}

// parseComment validates `# HELP name text` / `# TYPE name type` lines;
// other comments pass through unchecked (the format allows them).
func parseComment(line string, types map[string]MetricType) error {
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return nil // bare comment
	}
	switch fields[1] {
	case "HELP":
		if len(fields) < 3 || !validMetricName(fields[2]) {
			return fmt.Errorf("obs: malformed HELP comment %q", line)
		}
	case "TYPE":
		if len(fields) != 4 || !validMetricName(fields[2]) {
			return fmt.Errorf("obs: malformed TYPE comment %q", line)
		}
		switch MetricType(fields[3]) {
		case TypeCounter, TypeGauge, TypeHistogram:
			types[fields[2]] = MetricType(fields[3])
		default:
			return fmt.Errorf("obs: unknown metric type %q in %q", fields[3], line)
		}
	}
	return nil
}

// parseSample reads one sample line: `name value` or
// `name{le="bound"} value` (the only label the registry emits).
func parseSample(line string) (Sample, error) {
	var s Sample
	name, rest, found := strings.Cut(line, " ")
	if !found {
		return s, fmt.Errorf("obs: sample line %q has no value", line)
	}
	if i := strings.IndexByte(name, '{'); i >= 0 {
		labels := name[i:]
		name = name[:i]
		le, ok := strings.CutPrefix(labels, `{le="`)
		if !ok {
			return s, fmt.Errorf("obs: unsupported label set %q (only le is emitted)", labels)
		}
		le, ok = strings.CutSuffix(le, `"}`)
		if !ok || le == "" {
			return s, fmt.Errorf("obs: malformed le label in %q", line)
		}
		if _, err := parseLe(le); err != nil {
			return s, fmt.Errorf("obs: %q: %w", line, err)
		}
		s.Le = le
	}
	if !validMetricName(name) {
		return s, fmt.Errorf("obs: invalid metric name %q", name)
	}
	v, err := parseValue(strings.TrimSpace(rest))
	if err != nil {
		return s, fmt.Errorf("obs: sample %q: %w", line, err)
	}
	s.Name, s.Value = name, v
	return s, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

func parseLe(s string) (float64, error) {
	if s == "+Inf" {
		return math.Inf(1), nil
	}
	return strconv.ParseFloat(s, 64)
}

// checkHistograms cross-checks every TYPE histogram family: bucket
// counts must be cumulative over strictly ascending le bounds, the
// family must end in an +Inf bucket, and _count must equal it.
func checkHistograms(samples []Sample, types map[string]MetricType) error {
	for name, t := range types {
		if t != TypeHistogram {
			continue
		}
		var (
			lastLe    = math.Inf(-1)
			lastCum   float64
			haveInf   bool
			infCum    float64
			count     float64
			haveCount bool
			buckets   int
		)
		for _, s := range samples {
			switch s.Name {
			case name + "_bucket":
				le, err := parseLe(s.Le)
				if err != nil {
					return fmt.Errorf("obs: histogram %s: bad le %q", name, s.Le)
				}
				if le <= lastLe {
					return fmt.Errorf("obs: histogram %s: le %q out of order", name, s.Le)
				}
				if s.Value < lastCum {
					return fmt.Errorf("obs: histogram %s: bucket le=%q count %v below previous %v (not cumulative)",
						name, s.Le, s.Value, lastCum)
				}
				lastLe, lastCum, buckets = le, s.Value, buckets+1
				if math.IsInf(le, 1) {
					haveInf, infCum = true, s.Value
				}
			case name + "_count":
				count, haveCount = s.Value, true
			}
		}
		if buckets == 0 {
			return fmt.Errorf("obs: histogram %s has no _bucket samples", name)
		}
		if !haveInf {
			return fmt.Errorf("obs: histogram %s has no le=\"+Inf\" bucket", name)
		}
		if !haveCount || count != infCum {
			return fmt.Errorf("obs: histogram %s: _count %v != +Inf bucket %v", name, count, infCum)
		}
	}
	return nil
}

// SnapshotFromSamples rebuilds a HistogramSnapshot for the named
// histogram family out of parsed exposition samples — what a scrape
// consumer needs to recompute the same bucket-derived quantiles the
// server reports in /api/v1/meta.
func SnapshotFromSamples(samples []Sample, name string) (HistogramSnapshot, error) {
	var snap HistogramSnapshot
	var cums []float64
	for _, s := range samples {
		switch s.Name {
		case name + "_bucket":
			le, err := parseLe(s.Le)
			if err != nil {
				return snap, fmt.Errorf("obs: histogram %s: bad le %q", name, s.Le)
			}
			if !math.IsInf(le, 1) {
				snap.Bounds = append(snap.Bounds, le)
			}
			cums = append(cums, s.Value)
		case name + "_sum":
			snap.Sum = s.Value
		}
	}
	if len(cums) == 0 {
		return snap, fmt.Errorf("obs: no histogram samples for %s", name)
	}
	snap.Counts = make([]uint64, len(cums))
	prev := 0.0
	for i, c := range cums {
		snap.Counts[i] = uint64(c - prev)
		prev = c
	}
	snap.Count = uint64(prev)
	return snap, nil
}
