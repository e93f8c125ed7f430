package main

import (
	"strings"
	"testing"
)

func TestParseBenchOutput(t *testing.T) {
	const in = `goos: linux
goarch: amd64
pkg: repro/internal/tsdb
cpu: AMD EPYC 7B13
BenchmarkAppendParallel      	 3181405	       377.5 ns/op	      48 B/op	       2 allocs/op
BenchmarkAppendParallel-4    	 5000000	       210.0 ns/op	      47 B/op	       2 allocs/op
BenchmarkRecovery/full-replay-4         	      66	  16500000 ns/op
BenchmarkQueryFanOut/shards=8/workers=16-4         	     480	   2450000 ns/op	  512000 B/op	    4096 allocs/op
PASS
ok  	repro/internal/tsdb	12.3s
`
	out, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.GOOS != "linux" || out.GOARCH != "amd64" || out.CPU != "AMD EPYC 7B13" {
		t.Fatalf("header metadata: %+v", out)
	}
	if len(out.Benchmarks) != 4 {
		t.Fatalf("parsed %d results, want 4: %+v", len(out.Benchmarks), out.Benchmarks)
	}
	b0 := out.Benchmarks[0]
	if b0.Name != "BenchmarkAppendParallel" || b0.CPUs != 1 || b0.NsPerOp != 377.5 || b0.AllocsPerOp != 2 || b0.BytesPerOp != 48 {
		t.Fatalf("cpu=1 line: %+v", b0)
	}
	b1 := out.Benchmarks[1]
	if b1.Name != "BenchmarkAppendParallel" || b1.CPUs != 4 || b1.FullName != "BenchmarkAppendParallel-4" {
		t.Fatalf("cpu=4 line: %+v", b1)
	}
	b2 := out.Benchmarks[2]
	if b2.Name != "BenchmarkRecovery/full-replay" || b2.CPUs != 4 || b2.AllocsPerOp != 0 {
		t.Fatalf("sub-benchmark line: %+v", b2)
	}
	b3 := out.Benchmarks[3]
	if b3.Name != "BenchmarkQueryFanOut/shards=8/workers=16" || b3.CPUs != 4 || b3.AllocsPerOp != 4096 {
		t.Fatalf("nested sub-benchmark line: %+v", b3)
	}
}

// TestParseRefusesFailedRuns: a transcript in which a benchmark failed,
// panicked, or a package ended in FAIL is refused with an error naming
// what broke — its rows are missing, and an artifact built from the rest
// would only look smaller.
func TestParseRefusesFailedRuns(t *testing.T) {
	const row = "BenchmarkAppendParallel-4    \t 5000000\t       210.0 ns/op\n"
	for name, tc := range map[string]struct{ in, want string }{
		"failed sub-benchmark": {
			row + "--- FAIL: BenchmarkQueryCursor/cursor\n    bench_test.go:131: archive: invalid cursor\n--- FAIL: BenchmarkQueryCursor\nFAIL\nexit status 1\nFAIL\trepro/internal/archive\t1.204s\n",
			"BenchmarkQueryCursor/cursor failed",
		},
		"bare FAIL":      {row + "FAIL\n", "a package failed"},
		"failed package": {row + "FAIL\trepro/internal/archive\t1.204s\n", "package repro/internal/archive failed"},
		"panic on the benchmark's line": {
			row + "BenchmarkQueryFanOut/shards=8-4 \tpanic: runtime error: index out of range [3] with length 3\n",
			"BenchmarkQueryFanOut/shards=8-4 panicked: runtime error: index out of range",
		},
		"panic on its own line": {row + "panic: boom\n\ngoroutine 1 [running]:\n", "panic after BenchmarkAppendParallel-4: boom"},
		"panic before any row":  {"goos: linux\npanic: boom\n", "panic before any result: boom"},
	} {
		out, err := parse(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want one naming %q", name, err, tc.want)
		}
		if strings.HasPrefix(tc.in, row) && len(out.Benchmarks) != 1 {
			t.Errorf("%s: parsed %d rows beside the failure, want 1", name, len(out.Benchmarks))
		}
	}
	// A name that merely contains the words is a result row like any other.
	out, err := parse(strings.NewReader("BenchmarkFAILover/panic:recover-4 \t 100\t 5.0 ns/op\nPASS\nok  \trepro/x\t1s\n"))
	if err != nil || len(out.Benchmarks) != 1 {
		t.Errorf("clean transcript: %d rows, err %v", len(out.Benchmarks), err)
	}
}

// TestParseLoadgenRows: spotlake-loadgen result rows interleaved with a
// bench transcript become the artifact's latency section, with NaN
// percentiles (no successful request to measure) kept distinguishable
// from genuine zeros as JSON nulls.
func TestParseLoadgenRows(t *testing.T) {
	const in = `goos: linux
BenchmarkAppendParallel      	 3181405	       377.5 ns/op
loadgen: class=cursor concurrency=5 requests=1234 ok=1230 throttled=4 shed=0 errors=0 rps=123.4 p50ms=0.520 p99ms=2.310
loadgen: class=all concurrency=16 requests=3000 ok=0 throttled=3000 shed=0 errors=0 rps=300.0 p50ms=NaN p99ms=NaN
PASS
`
	out, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if out.Schema != "spotlake-bench/v5" {
		t.Fatalf("schema = %q, want spotlake-bench/v5", out.Schema)
	}
	if len(out.Benchmarks) != 1 || len(out.Latency) != 2 {
		t.Fatalf("parsed %d benchmarks / %d latency rows, want 1 / 2", len(out.Benchmarks), len(out.Latency))
	}
	l0 := out.Latency[0]
	if l0.Class != "cursor" || l0.Concurrency != 5 || l0.Requests != 1234 || l0.OK != 1230 ||
		l0.Throttled != 4 || l0.RPS != 123.4 {
		t.Fatalf("cursor row: %+v", l0)
	}
	if l0.P50Ms == nil || *l0.P50Ms != 0.52 || l0.P99Ms == nil || *l0.P99Ms != 2.31 {
		t.Fatalf("cursor row percentiles: %+v %+v", l0.P50Ms, l0.P99Ms)
	}
	l1 := out.Latency[1]
	if l1.Class != "all" || l1.Throttled != 3000 || l1.P50Ms != nil || l1.P99Ms != nil {
		t.Fatalf("all-throttled row: %+v", l1)
	}
}

// TestParseCustomMetrics: custom b.ReportMetric columns (BenchmarkSeal's
// compression ratio and throughput) land in the row's extra map; the
// standard -benchmem columns stay in their own fields.
func TestParseCustomMetrics(t *testing.T) {
	const in = `BenchmarkSeal 	       1	  11145487 ns/op	         0.03494 compressed/raw	  10290084 points/s
BenchmarkAppend 	 1000000	       377.5 ns/op	      48 B/op	       2 allocs/op
`
	out, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Benchmarks) != 2 {
		t.Fatalf("parsed %d results, want 2", len(out.Benchmarks))
	}
	b0 := out.Benchmarks[0]
	if b0.Extra["compressed/raw"] != 0.03494 || b0.Extra["points/s"] != 10290084 {
		t.Fatalf("extra metrics: %+v", b0.Extra)
	}
	b1 := out.Benchmarks[1]
	if b1.Extra != nil || b1.BytesPerOp != 48 || b1.AllocsPerOp != 2 {
		t.Fatalf("benchmem row grew extra metrics: %+v", b1)
	}
}

// TestParseMemstatRows: BenchmarkResidentHeap memstat rows interleaved
// with a bench transcript become the artifact's memory section, with a
// NaN bytes-per-point (scenario held no points) kept as JSON null.
func TestParseMemstatRows(t *testing.T) {
	const in = `goos: linux
memstat: scenario=all-hot points=327680 heapBytes=10766288 bytesPerPoint=32.86
BenchmarkResidentHeap/all-hot      	       1	 488771698 ns/op	        32.86 heapB/point
memstat: scenario=cold-sealed points=327680 heapBytes=1082040 bytesPerPoint=3.30
memstat: scenario=empty points=0 heapBytes=0 bytesPerPoint=NaN
PASS
`
	out, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Memory) != 3 || len(out.Benchmarks) != 1 {
		t.Fatalf("parsed %d memory rows / %d benchmarks, want 3 / 1", len(out.Memory), len(out.Benchmarks))
	}
	m0 := out.Memory[0]
	if m0.Scenario != "all-hot" || m0.Points != 327680 || m0.HeapBytes != 10766288 ||
		m0.BytesPerPoint == nil || *m0.BytesPerPoint != 32.86 {
		t.Fatalf("all-hot row: %+v", m0)
	}
	m1 := out.Memory[1]
	if m1.Scenario != "cold-sealed" || m1.BytesPerPoint == nil || *m1.BytesPerPoint != 3.30 {
		t.Fatalf("cold-sealed row: %+v", m1)
	}
	if m2 := out.Memory[2]; m2.Points != 0 || m2.BytesPerPoint != nil {
		t.Fatalf("empty row: %+v", m2)
	}
}

// TestParseRollupstatRows: BenchmarkRollupQuery rollupstat rows become
// the artifact's rollup section.
func TestParseRollupstatRows(t *testing.T) {
	const in = `goos: linux
rollupstat: tier=raw windowDays=90 points=129600 scanned=129600
BenchmarkRollupQuery/raw      	       1	   1316011 ns/op	    129600 points	    129600 scanned
rollupstat: tier=1h windowDays=90 points=2158 scanned=2158
rollupstat: tier=1d windowDays=90 points=89 scanned=89
PASS
`
	out, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Rollup) != 3 || len(out.Benchmarks) != 1 {
		t.Fatalf("parsed %d rollup rows / %d benchmarks, want 3 / 1", len(out.Rollup), len(out.Benchmarks))
	}
	r0 := out.Rollup[0]
	if r0.Tier != "raw" || r0.WindowDays != 90 || r0.Points != 129600 || r0.ScannedPoints != 129600 {
		t.Fatalf("raw row: %+v", r0)
	}
	if r1 := out.Rollup[1]; r1.Tier != "1h" || r1.ScannedPoints != 2158 {
		t.Fatalf("1h row: %+v", r1)
	}
}

// TestParseMetricRows: registry-sample rows (loadgen's end-of-run
// /api/v1/metrics scrape, or spotlake-collector's run summary) become
// the artifact's metrics section. %g scientific notation parses;
// non-finite values are dropped rather than breaking JSON encoding;
// histogram bucket rows never appear (the emitters skip them), but a
// stray one must not match the plain name=value shape with its label
// block intact.
func TestParseMetricRows(t *testing.T) {
	const in = `goos: linux
metric: name=spotlake_admission_admitted_total value=1234
metric: name=spotlake_store_cold_compressed_bytes value=1.31072e+06
metric: name=spotlake_replication_seconds_behind value=0.25
metric: name=spotlake_bogus_gauge value=+Inf
loadgen: class=all concurrency=16 requests=3000 ok=3000 throttled=0 shed=0 errors=0 rps=300.0 p50ms=1.000 p99ms=2.000
PASS
`
	out, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Metrics) != 3 || len(out.Latency) != 1 {
		t.Fatalf("parsed %d metric rows / %d latency rows, want 3 / 1: %+v", len(out.Metrics), len(out.Latency), out.Metrics)
	}
	if m0 := out.Metrics[0]; m0.Name != "spotlake_admission_admitted_total" || m0.Value != 1234 {
		t.Fatalf("admitted row: %+v", m0)
	}
	if m1 := out.Metrics[1]; m1.Name != "spotlake_store_cold_compressed_bytes" || m1.Value != 1.31072e+06 {
		t.Fatalf("scientific-notation row: %+v", m1)
	}
	if m2 := out.Metrics[2]; m2.Value != 0.25 {
		t.Fatalf("fractional gauge row: %+v", m2)
	}
}

// TestParseMetricOnly: a transcript with only metric rows is still a
// valid artifact — the collector's batch summary has no bench or
// loadgen rows at all.
func TestParseMetricOnly(t *testing.T) {
	out, err := parse(strings.NewReader(
		"metric: name=spotlake_store_points value=42\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Metrics) != 1 || len(out.Benchmarks) != 0 {
		t.Fatalf("metrics %d benchmarks %d, want 1 and 0", len(out.Metrics), len(out.Benchmarks))
	}
}

// TestParseLoadgenOnly: a transcript with only loadgen rows (no
// microbenchmarks) is still a valid artifact.
func TestParseLoadgenOnly(t *testing.T) {
	out, err := parse(strings.NewReader(
		"loadgen: class=hot concurrency=8 requests=100 ok=100 throttled=0 shed=0 errors=0 rps=10.0 p50ms=1.000 p99ms=2.000\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Latency) != 1 || len(out.Benchmarks) != 0 {
		t.Fatalf("latency %d benchmarks %d, want 1 and 0", len(out.Latency), len(out.Benchmarks))
	}
}

// TestParseKeepsIntrinsicDashOne pins the GOMAXPROCS-suffix heuristic: go
// test appends -N only for N > 1, so a name's own trailing -1 (a region
// like us-east-1 at cpu=1, where no suffix is added) must survive — else
// the cpu=1 and cpu=4 rows of the same benchmark stop pairing by name.
func TestParseKeepsIntrinsicDashOne(t *testing.T) {
	const in = `BenchmarkQuery/region=us-east-1      	     100	   1000 ns/op
BenchmarkQuery/region=us-east-1-4    	     100	    500 ns/op
`
	out, err := parse(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Benchmarks) != 2 {
		t.Fatalf("parsed %d results, want 2", len(out.Benchmarks))
	}
	for i, wantCPU := range []int{1, 4} {
		b := out.Benchmarks[i]
		if b.Name != "BenchmarkQuery/region=us-east-1" || b.CPUs != wantCPU {
			t.Fatalf("row %d: name %q cpus %d, want the intrinsic -1 kept and cpus %d", i, b.Name, b.CPUs, wantCPU)
		}
	}
}
