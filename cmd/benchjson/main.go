// Command benchjson converts `go test -bench` text output — and
// spotlake-loadgen result rows — into the BENCH_pr*.json artifact schema
// the CI bench job records, so per-PR performance numbers accumulate in
// a machine-readable series instead of scrolling away in build logs.
//
// Usage:
//
//	go test -run=NONE -bench=. -benchmem -cpu=1,4 ./... | benchjson > BENCH.json
//	benchjson bench-output.txt > BENCH.json
//
// Schema (one object):
//
//	{
//	  "schema": "spotlake-bench/v5",
//	  "goos": "linux", "goarch": "amd64", "cpu": "...",   // from the bench header
//	  "benchmarks": [
//	    {"name": "BenchmarkAppendParallel", "cpus": 4,
//	     "fullName": "BenchmarkAppendParallel-4", "iterations": 3181405,
//	     "nsPerOp": 377.5, "bytesPerOp": 48, "allocsPerOp": 2}
//	  ],
//	  "latency": [
//	    {"class": "cursor", "concurrency": 5, "requests": 1234, "ok": 1230,
//	     "throttled": 4, "shed": 0, "errors": 0, "rps": 123.4,
//	     "p50Ms": 0.52, "p99Ms": 2.31}
//	  ],
//	  "memory": [
//	    {"scenario": "cold-sealed", "points": 327680,
//	     "heapBytes": 1310720, "bytesPerPoint": 4.0}
//	  ],
//	  "rollup": [
//	    {"tier": "1h", "windowDays": 90, "points": 2160, "scannedPoints": 2160}
//	  ],
//	  "metrics": [
//	    {"name": "spotlake_admission_admitted_total", "value": 1234}
//	  ]
//	}
//
// The -N suffix go test appends to benchmark names is the GOMAXPROCS the
// run used (absent means 1); it is split out as "cpus" so a -cpu=1,4
// matrix yields comparable pairs under one bare name. `loadgen:` rows
// (see cmd/spotlake-loadgen) become the `latency` section: p50/p99
// wall-clock latency at a fixed offered load (the row's concurrency),
// per traffic class plus the "all" aggregate — the latency-under-load
// series microbenchmarks cannot measure. `memstat:` rows (emitted by
// BenchmarkResidentHeap in internal/tsdb) become the `memory` section:
// resident heap bytes per point for each storage scenario, the number
// the cold block tier exists to shrink. bytesPerPoint is null when the
// scenario held no points, mirroring the nullable latency percentiles.
// `rollupstat:` rows (emitted by BenchmarkRollupQuery in internal/tsdb)
// become the `rollup` section: how many points each resolution tier
// returned and scanned for the same 90-day window, the scan-reduction
// series the rollup tiers exist to provide. `metric:` rows (emitted by
// spotlake-loadgen's end-of-run /api/v1/metrics scrape and by
// spotlake-collector's run summary) become the `metrics` section: the
// server-side registry counters behind the same run — admitted vs
// throttled vs shed, cache hits, maintenance checkpoints — so the
// artifact carries both sides of the measurement.
// Other lines (headers, PASS, ok) set metadata or are ignored, so the
// tool can be fed a whole `go test` transcript with a loadgen run
// appended — except the lines that report a failure (`--- FAIL`, `FAIL`,
// `panic:`): a transcript with one is missing rows, and benchjson exits
// non-zero naming the benchmark instead of writing a smaller artifact.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
)

type benchResult struct {
	Name       string  `json:"name"`
	CPUs       int     `json:"cpus"`
	FullName   string  `json:"fullName"`
	Iterations int64   `json:"iterations"`
	NsPerOp    float64 `json:"nsPerOp"`
	// No omitempty: a genuine 0 B/op / 0 allocs/op measurement (the very
	// result an allocation fix aims for) must stay distinguishable in
	// the artifact from "not measured" in run-over-run diffs.
	BytesPerOp  float64 `json:"bytesPerOp"`
	AllocsPerOp int64   `json:"allocsPerOp"`
	// Extra carries custom b.ReportMetric columns (unit -> value), e.g.
	// BenchmarkSeal's compressed/raw ratio and points/s throughput.
	Extra map[string]float64 `json:"extra,omitempty"`
}

// latencyResult is one loadgen row: percentile latency at a fixed
// offered load. P50Ms/P99Ms are null (absent) when the row had no
// successful requests to measure.
type latencyResult struct {
	Class       string   `json:"class"`
	Concurrency int      `json:"concurrency"`
	Requests    int64    `json:"requests"`
	OK          int64    `json:"ok"`
	Throttled   int64    `json:"throttled"`
	Shed        int64    `json:"shed"`
	Errors      int64    `json:"errors"`
	RPS         float64  `json:"rps"`
	P50Ms       *float64 `json:"p50Ms"`
	P99Ms       *float64 `json:"p99Ms"`
}

// memoryResult is one memstat row: the measured resident heap of a
// recovered store under one storage scenario. BytesPerPoint is null
// (absent) when the scenario held no points.
type memoryResult struct {
	Scenario      string   `json:"scenario"`
	Points        int64    `json:"points"`
	HeapBytes     int64    `json:"heapBytes"`
	BytesPerPoint *float64 `json:"bytesPerPoint"`
}

// rollupResult is one rollupstat row: the points a resolution tier
// returned and scanned serving the benchmark's fixed window. The raw
// tier's scannedPoints is the denominator of the reduction ratio.
type rollupResult struct {
	Tier          string `json:"tier"`
	WindowDays    int    `json:"windowDays"`
	Points        int64  `json:"points"`
	ScannedPoints int64  `json:"scannedPoints"`
}

// metricResult is one `metric:` row: a named registry sample scraped
// from /api/v1/metrics (loadgen) or logged at end of run (collector).
type metricResult struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

type benchFile struct {
	Schema     string        `json:"schema"`
	GOOS       string        `json:"goos,omitempty"`
	GOARCH     string        `json:"goarch,omitempty"`
	CPU        string        `json:"cpu,omitempty"`
	Benchmarks []benchResult `json:"benchmarks"`
	// Latency holds loadgen rows; omitted entirely for pure
	// microbenchmark transcripts so pre-v2 consumers see no change.
	Latency []latencyResult `json:"latency,omitempty"`
	// Memory holds memstat rows; omitted for transcripts without a
	// resident-heap run, so pre-v3 consumers see no change.
	Memory []memoryResult `json:"memory,omitempty"`
	// Rollup holds rollupstat rows; omitted for transcripts without a
	// rollup-query run, so pre-v4 consumers see no change.
	Rollup []rollupResult `json:"rollup,omitempty"`
	// Metrics holds metric rows; omitted for transcripts without a
	// registry scrape, so pre-v5 consumers see no change.
	Metrics []metricResult `json:"metrics,omitempty"`
}

// benchLine matches one result line. Columns after ns/op are optional
// and order-fixed (-benchmem emits "B/op" then "allocs/op"; throughput
// columns like MB/s are skipped by the filler pattern).
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op(.*)$`)

var (
	bytesCol  = regexp.MustCompile(`([0-9.]+) B/op`)
	allocsCol = regexp.MustCompile(`(\d+) allocs/op`)
	metricCol = regexp.MustCompile(`([0-9.]+(?:e[+-]?\d+)?) (\S+)`)
	cpuSuffix = regexp.MustCompile(`-(\d+)$`)
)

// loadgenLine matches one spotlake-loadgen result row. p50/p99 are NaN
// when the row measured no successful request.
var loadgenLine = regexp.MustCompile(
	`^loadgen: class=(\S+) concurrency=(\d+) requests=(\d+) ok=(\d+) throttled=(\d+) shed=(\d+) errors=(\d+) rps=([0-9.]+) p50ms=([0-9.]+|NaN) p99ms=([0-9.]+|NaN)$`)

// memstatLine matches one resident-heap row. bytesPerPoint is NaN when
// the scenario held no points.
var memstatLine = regexp.MustCompile(
	`^memstat: scenario=(\S+) points=(\d+) heapBytes=(\d+) bytesPerPoint=([0-9.]+|NaN)$`)

// rollupstatLine matches one rollup-tier row from BenchmarkRollupQuery.
var rollupstatLine = regexp.MustCompile(
	`^rollupstat: tier=(\S+) windowDays=(\d+) points=(\d+) scanned=(\d+)$`)

// metricLine matches one registry-sample row. Values are %g-formatted
// floats (scientific notation for large counters) and may be ±Inf/NaN.
var metricLine = regexp.MustCompile(
	`^metric: name=([a-zA-Z_:][a-zA-Z0-9_:]*) value=([0-9.eE+-]+|\+Inf|-Inf|NaN)$`)

// The lines with which a `go test` transcript reports that a benchmark
// did not finish: `--- FAIL: <name>`, a panic (go test prints the
// benchmark's name before it runs it, so the panic may share its line),
// and the `FAIL` that ends a failed package, bare or with its path. A
// transcript holding any of them is missing rows, so parse refuses it.
var (
	failLine  = regexp.MustCompile(`^--- FAIL: (\S+)`)
	panicLine = regexp.MustCompile(`^(?:(Benchmark\S+)\s+)?panic: (.*)$`)
	failedPkg = regexp.MustCompile(`^FAIL(?:\s+(\S+).*)?$`)
)

// failureIn renders what line reports went wrong, naming the benchmark
// (or package) it blames; last is the newest result row's benchmark, for
// a panic that names none. Empty when the line reports no failure.
func failureIn(line, last string) string {
	if m := failLine.FindStringSubmatch(line); m != nil {
		return m[1] + " failed"
	}
	if m := panicLine.FindStringSubmatch(line); m != nil {
		switch {
		case m[1] != "":
			return m[1] + " panicked: " + m[2]
		case last != "":
			return "panic after " + last + ": " + m[2]
		}
		return "panic before any result: " + m[2]
	}
	if m := failedPkg.FindStringSubmatch(line); m != nil {
		if m[1] != "" {
			return "package " + m[1] + " failed"
		}
		return "a package failed"
	}
	return ""
}

// parseRollupstat unpacks a rollupstatLine submatch; the regexp
// guarantees the numeric fields parse.
func parseRollupstat(m []string) rollupResult {
	res := rollupResult{Tier: m[1]}
	days, _ := strconv.ParseInt(m[2], 10, 64)
	res.WindowDays = int(days)
	res.Points, _ = strconv.ParseInt(m[3], 10, 64)
	res.ScannedPoints, _ = strconv.ParseInt(m[4], 10, 64)
	return res
}

// parseMetric unpacks a metricLine submatch. Non-finite values (±Inf,
// NaN) are reported not-ok and dropped: encoding/json cannot represent
// them, and the registry only emits finite non-bucket samples anyway.
func parseMetric(m []string) (metricResult, bool) {
	v, err := strconv.ParseFloat(m[2], 64)
	if err != nil || math.IsInf(v, 0) || math.IsNaN(v) {
		return metricResult{}, false
	}
	return metricResult{Name: m[1], Value: v}, true
}

// parseMemstat unpacks a memstatLine submatch; the regexp guarantees
// the numeric fields parse.
func parseMemstat(m []string) memoryResult {
	res := memoryResult{Scenario: m[1]}
	res.Points, _ = strconv.ParseInt(m[2], 10, 64)
	res.HeapBytes, _ = strconv.ParseInt(m[3], 10, 64)
	if m[4] != "NaN" {
		v, _ := strconv.ParseFloat(m[4], 64)
		res.BytesPerPoint = &v
	}
	return res
}

// parseLoadgen unpacks a loadgenLine submatch; the regexp guarantees the
// numeric fields parse.
func parseLoadgen(m []string) latencyResult {
	atoi := func(s string) int64 { n, _ := strconv.ParseInt(s, 10, 64); return n }
	res := latencyResult{
		Class:       m[1],
		Concurrency: int(atoi(m[2])),
		Requests:    atoi(m[3]),
		OK:          atoi(m[4]),
		Throttled:   atoi(m[5]),
		Shed:        atoi(m[6]),
		Errors:      atoi(m[7]),
	}
	res.RPS, _ = strconv.ParseFloat(m[8], 64)
	if m[9] != "NaN" {
		v, _ := strconv.ParseFloat(m[9], 64)
		res.P50Ms = &v
	}
	if m[10] != "NaN" {
		v, _ := strconv.ParseFloat(m[10], 64)
		res.P99Ms = &v
	}
	return res
}

func parse(r io.Reader) (benchFile, error) {
	out := benchFile{Schema: "spotlake-bench/v5", Benchmarks: []benchResult{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var failures []string
	last := ""
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if f := failureIn(line, last); f != "" {
			failures = append(failures, f)
			continue
		}
		if lm := loadgenLine.FindStringSubmatch(line); lm != nil {
			out.Latency = append(out.Latency, parseLoadgen(lm))
			continue
		}
		if mm := memstatLine.FindStringSubmatch(line); mm != nil {
			out.Memory = append(out.Memory, parseMemstat(mm))
			continue
		}
		if rm := rollupstatLine.FindStringSubmatch(line); rm != nil {
			out.Rollup = append(out.Rollup, parseRollupstat(rm))
			continue
		}
		if km := metricLine.FindStringSubmatch(line); km != nil {
			if res, ok := parseMetric(km); ok {
				out.Metrics = append(out.Metrics, res)
			}
			continue
		}
		switch {
		case strings.HasPrefix(line, "goos: "):
			out.GOOS = strings.TrimPrefix(line, "goos: ")
			continue
		case strings.HasPrefix(line, "goarch: "):
			out.GOARCH = strings.TrimPrefix(line, "goarch: ")
			continue
		case strings.HasPrefix(line, "cpu: "):
			out.CPU = strings.TrimPrefix(line, "cpu: ")
			continue
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		full := m[1]
		name, cpus := full, 1
		if sm := cpuSuffix.FindStringSubmatch(full); sm != nil {
			// go test appends the -N GOMAXPROCS suffix only when N > 1,
			// so a trailing -1 is always part of the benchmark's own name
			// (e.g. .../region=us-east-1) and must not be stripped.
			if n, err := strconv.Atoi(sm[1]); err == nil && n > 1 {
				name, cpus = strings.TrimSuffix(full, sm[0]), n
			}
		}
		iters, err := strconv.ParseInt(m[2], 10, 64)
		if err != nil {
			return out, fmt.Errorf("benchjson: iterations in %q: %w", line, err)
		}
		ns, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			return out, fmt.Errorf("benchjson: ns/op in %q: %w", line, err)
		}
		res := benchResult{Name: name, CPUs: cpus, FullName: full, Iterations: iters, NsPerOp: ns}
		if bm := bytesCol.FindStringSubmatch(m[4]); bm != nil {
			res.BytesPerOp, _ = strconv.ParseFloat(bm[1], 64)
		}
		if am := allocsCol.FindStringSubmatch(m[4]); am != nil {
			res.AllocsPerOp, _ = strconv.ParseInt(am[1], 10, 64)
		}
		// Any remaining "<value> <unit>" column is a custom
		// b.ReportMetric the benchmark chose to record — keep it.
		for _, xm := range metricCol.FindAllStringSubmatch(m[4], -1) {
			switch xm[2] {
			case "B/op", "allocs/op":
				continue
			}
			v, err := strconv.ParseFloat(xm[1], 64)
			if err != nil {
				continue
			}
			if res.Extra == nil {
				res.Extra = make(map[string]float64)
			}
			res.Extra[xm[2]] = v
		}
		out.Benchmarks = append(out.Benchmarks, res)
		last = full
	}
	if len(failures) > 0 {
		return out, fmt.Errorf("benchjson: the input reports failures, so rows are missing: %s", strings.Join(failures, "; "))
	}
	return out, sc.Err()
}

func main() {
	in := io.Reader(os.Stdin)
	if len(os.Args) > 1 {
		f, err := os.Open(os.Args[1])
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	out, err := parse(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if len(out.Benchmarks) == 0 && len(out.Latency) == 0 && len(out.Memory) == 0 && len(out.Metrics) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark, loadgen, memstat, or metric result lines in input")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}
