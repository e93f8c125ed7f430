// Command metriclint validates a Prometheus text exposition scrape —
// the CI gate that keeps GET /api/v1/metrics honest. It reads the
// exposition from stdin (or a file argument), runs the same strict
// parser the benchmark's scrape uses (internal/obs.ParseExposition: names,
// values, TYPE comments, cumulative ascending histogram buckets ending
// at +Inf with a matching _count), and exits non-zero with the parse
// error if anything is malformed.
//
// Beyond well-formedness it enforces the repo's naming contract: every
// sample must carry the spotlake_ prefix (one namespace across tsdb,
// archive, and replication), and -require can demand specific series so
// a refactor that silently drops a metric fails the bench job instead
// of shipping a blind spot.
//
// Usage:
//
//	curl -fsS localhost:8080/api/v1/metrics | metriclint
//	metriclint -require spotlake_admission_admitted_total scrape.txt
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/obs"
)

func main() {
	var (
		prefix  = flag.String("prefix", "spotlake_", "required metric-name prefix (empty disables the check)")
		require = flag.String("require", "", "comma-separated metric names that must be present")
	)
	flag.Parse()

	in := io.Reader(os.Stdin)
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "metriclint:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}

	samples, err := obs.ParseExposition(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metriclint:", err)
		os.Exit(1)
	}
	if len(samples) == 0 {
		fmt.Fprintln(os.Stderr, "metriclint: exposition contains no samples")
		os.Exit(1)
	}

	bad := 0
	seen := make(map[string]bool, len(samples))
	for _, s := range samples {
		seen[s.Name] = true
		if *prefix != "" && !strings.HasPrefix(s.Name, *prefix) {
			fmt.Fprintf(os.Stderr, "metriclint: %s: missing required prefix %q\n", s.Name, *prefix)
			bad++
		}
	}
	if *require != "" {
		for _, name := range strings.Split(*require, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			// A histogram family is present via its _count series.
			if !seen[name] && !seen[name+"_count"] {
				fmt.Fprintf(os.Stderr, "metriclint: required metric %s not found\n", name)
				bad++
			}
		}
	}
	if bad > 0 {
		os.Exit(1)
	}
	fmt.Printf("metriclint: ok (%d samples, %d series)\n", len(samples), len(seen))
}
