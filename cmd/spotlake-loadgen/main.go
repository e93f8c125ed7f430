// Command spotlake-loadgen drives mixed traffic against a running
// spotlake-server and reports latency under load — the p50/p99 series
// the BENCH_pr*.json artifacts carry alongside ns/op microbenchmarks.
//
// Three traffic classes model the workloads the serving layer is
// hardened for:
//
//   - hot:    the same `limit=N` request over and over — the first page
//     of a cursor walk, never followed: the result-cache hit path
//     (availability dashboards polling one endpoint).
//   - cold:   the same first page over a window that differs every
//     request — a guaranteed cache miss that counts and reads from the
//     store (broad historical scans, "Ding-Dong Ditch"-style probing).
//     Like hot, it leaves the X-Next-Cursor the page comes with.
//   - cursor: keyset-cursor walks following X-Next-Cursor page by page
//     (bulk exports and analysis clients).
//
// Workers are pinned to classes in proportion to -mix, each issuing
// requests back to back for -duration. Per-class and overall results
// are printed as `loadgen:` rows that cmd/benchjson parses into the
// bench artifact's `latency` section:
//
//	loadgen: class=hot concurrency=5 requests=1234 ok=1234 throttled=0 shed=0 errors=0 rps=123.4 p50ms=0.52 p99ms=2.31
//
// After the run the generator scrapes the server's GET /api/v1/metrics
// (Prometheus text exposition) and folds every non-bucket sample into a
// `metric:` row — the server-side view of the same run the client-side
// `loadgen:` rows measured:
//
//	metric: name=spotlake_admission_admitted_total value=1234
//
// 429 (throttled) and 503 (shed) responses are counted separately and
// excluded from the latency percentiles — they measure the admission
// layer working, not the query path — and workers honor Retry-After
// with a capped pause so a throttled run degrades instead of spinning.
//
// Usage:
//
//	spotlake-loadgen [-url http://localhost:8080] [-concurrency 16]
//	                 [-duration 10s] [-mix cursor=1,hot=1,cold=1]
//	                 [-limit 500] [-dataset sps] [-timeout 10s]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

type result struct {
	latency   time.Duration
	status    int // 0 = transport error
	err       bool
	throttled bool
	shed      bool
}

type classStats struct {
	requests  int
	ok        int
	throttled int
	shed      int
	errors    int
	latencies []time.Duration
}

func (c *classStats) add(r result) {
	c.requests++
	switch {
	case r.err:
		c.errors++
	case r.throttled:
		c.throttled++
	case r.shed:
		c.shed++
	case r.status >= 200 && r.status < 300:
		c.ok++
		c.latencies = append(c.latencies, r.latency)
	default:
		c.errors++
	}
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[int(p*float64(len(sorted)-1))]
}

func (c *classStats) report(class string, workers int, elapsed time.Duration) string {
	sort.Slice(c.latencies, func(i, j int) bool { return c.latencies[i] < c.latencies[j] })
	ms := func(d time.Duration) string {
		if len(c.latencies) == 0 {
			return "NaN"
		}
		return strconv.FormatFloat(float64(d)/float64(time.Millisecond), 'f', 3, 64)
	}
	rps := float64(c.requests) / elapsed.Seconds()
	return fmt.Sprintf("loadgen: class=%s concurrency=%d requests=%d ok=%d throttled=%d shed=%d errors=%d rps=%.1f p50ms=%s p99ms=%s",
		class, workers, c.requests, c.ok, c.throttled, c.shed, c.errors, rps,
		ms(percentile(c.latencies, 0.50)), ms(percentile(c.latencies, 0.99)))
}

// parseMix reads "cursor=1,hot=2,cold=1" into class weights.
func parseMix(s string) (map[string]int, error) {
	weights := map[string]int{}
	for _, part := range strings.Split(s, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("malformed mix element %q (want class=weight)", part)
		}
		switch name {
		case "cursor", "hot", "cold":
		default:
			return nil, fmt.Errorf("unknown traffic class %q (want cursor, hot, or cold)", name)
		}
		w, err := strconv.Atoi(val)
		if err != nil || w < 0 {
			return nil, fmt.Errorf("mix weight for %q must be a non-negative integer, got %q", name, val)
		}
		weights[name] = w
	}
	return weights, nil
}

// assignWorkers splits n workers across the weighted classes using
// largest-remainder rounding; every class with positive weight gets at
// least one worker when n allows.
func assignWorkers(n int, weights map[string]int) map[string]int {
	classes := make([]string, 0, len(weights))
	totalW := 0
	for c, w := range weights {
		if w > 0 {
			classes = append(classes, c)
			totalW += w
		}
	}
	sort.Strings(classes)
	out := map[string]int{}
	if totalW == 0 || n <= 0 {
		return out
	}
	type rem struct {
		class string
		frac  float64
	}
	rems := make([]rem, 0, len(classes))
	used := 0
	for _, c := range classes {
		exact := float64(n) * float64(weights[c]) / float64(totalW)
		base := int(math.Floor(exact))
		out[c] = base
		used += base
		rems = append(rems, rem{c, exact - float64(base)})
	}
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].class < rems[j].class
	})
	for i := 0; used < n; i = (i + 1) % len(rems) {
		out[rems[i].class]++
		used++
	}
	return out
}

// scrapeMetrics pulls the server's Prometheus exposition once the run
// ends and prints every non-bucket sample as a `metric:` row (the same
// name=value format spotlake-collector logs, so cmd/benchjson folds
// either). A scrape that fails to fetch or parse is a warning, not a
// run failure — CI enforces exposition validity through cmd/metriclint.
func scrapeMetrics(client *http.Client, baseURL string) {
	resp, err := client.Get(baseURL + "/api/v1/metrics")
	if err != nil {
		log.Printf("warning: scraping /api/v1/metrics: %v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		log.Printf("warning: scraping /api/v1/metrics: status %d", resp.StatusCode)
		return
	}
	samples, err := obs.ParseExposition(resp.Body)
	if err != nil {
		log.Printf("warning: /api/v1/metrics exposition did not parse: %v", err)
		return
	}
	for _, s := range samples {
		if s.Le != "" {
			continue
		}
		fmt.Printf("metric: name=%s value=%g\n", s.Name, s.Value)
	}
}

// retryPause honors a 429/503 Retry-After header, capped so a loadgen
// run measures the server under sustained pressure rather than sleeping
// through its own duration.
func retryPause(resp *http.Response, cap time.Duration) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs > 0 {
			return min(time.Duration(secs)*time.Second, cap)
		}
	}
	return min(50*time.Millisecond, cap)
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("spotlake-loadgen: ")
	var (
		baseURL     = flag.String("url", "http://localhost:8080", "server base URL")
		concurrency = flag.Int("concurrency", 16, "total concurrent workers (the offered load)")
		duration    = flag.Duration("duration", 10*time.Second, "how long to drive traffic")
		mix         = flag.String("mix", "cursor=1,hot=1,cold=1", "traffic mix as class=weight, classes: cursor, hot, cold")
		limit       = flag.Int("limit", 500, "page size (limit=) for every request")
		dataset     = flag.String("dataset", "", "dataset to query (default: first of /api/v1/datasets)")
		timeout     = flag.Duration("timeout", 10*time.Second, "per-request timeout")
	)
	flag.Parse()

	weights, err := parseMix(*mix)
	if err != nil {
		log.Fatalf("-mix: %v", err)
	}
	client := &http.Client{Timeout: *timeout}

	ds := *dataset
	if ds == "" {
		resp, err := client.Get(*baseURL + "/api/v1/datasets")
		if err != nil {
			log.Fatalf("probing %s: %v", *baseURL, err)
		}
		var names []string
		err = json.NewDecoder(resp.Body).Decode(&names)
		resp.Body.Close()
		if err != nil || len(names) == 0 {
			log.Fatalf("no datasets at %s (err=%v)", *baseURL, err)
		}
		ds = names[0]
	}

	assignment := assignWorkers(*concurrency, weights)
	total := 0
	for _, n := range assignment {
		total += n
	}
	if total == 0 {
		log.Fatalf("mix %q and concurrency %d yield no workers", *mix, *concurrency)
	}
	log.Printf("driving %s for %v: dataset=%s limit=%d workers=%v", *baseURL, *duration, ds, *limit, assignment)

	// Cold queries vary `from` so every request is a distinct cache key;
	// the epoch-anchored minute offsets stay inside any bootstrap window.
	coldFrom := func(i int) string {
		return time.Date(2022, 1, 1, 0, i%1440, 0, 0, time.UTC).Format(time.RFC3339)
	}

	deadline := time.Now().Add(*duration)
	results := make(chan struct {
		class string
		r     result
	}, 4096)

	do := func(url string) (result, *http.Response) {
		start := time.Now()
		resp, err := client.Get(url)
		r := result{latency: time.Since(start)}
		if err != nil {
			r.err = true
			return r, nil
		}
		// Drain so the connection is reusable and streamed bodies are
		// actually paid for.
		_, copyErr := io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		r.latency = time.Since(start)
		r.status = resp.StatusCode
		r.throttled = resp.StatusCode == http.StatusTooManyRequests
		r.shed = resp.StatusCode == http.StatusServiceUnavailable
		if copyErr != nil {
			r.err = true
		}
		return r, resp
	}

	var wg sync.WaitGroup
	workerID := 0
	for class, n := range assignment {
		for w := 0; w < n; w++ {
			wg.Add(1)
			go func(class string, id int) {
				defer wg.Done()
				iter := 0
				cursor := "" // cursor class: current walk position
				for time.Now().Before(deadline) {
					var url string
					switch class {
					case "hot":
						url = fmt.Sprintf("%s/api/v1/query?dataset=%s&limit=%d", *baseURL, ds, *limit)
					case "cold":
						url = fmt.Sprintf("%s/api/v1/query?dataset=%s&limit=%d&from=%s",
							*baseURL, ds, *limit, coldFrom(id*7919+iter))
					case "cursor":
						url = fmt.Sprintf("%s/api/v1/query?dataset=%s&limit=%d&cursor=%s", *baseURL, ds, *limit, cursor)
					}
					r, resp := do(url)
					results <- struct {
						class string
						r     result
					}{class, r}
					iter++
					switch {
					case r.err:
						time.Sleep(10 * time.Millisecond)
					case r.throttled || r.shed:
						time.Sleep(retryPause(resp, time.Until(deadline)))
					case class == "cursor":
						// Follow the walk; restart from the head when it ends.
						// Hot and cold pages carry a next cursor too and
						// leave it: they measure the first page only.
						cursor = ""
						if resp != nil {
							cursor = resp.Header.Get("X-Next-Cursor")
						}
					}
				}
			}(class, workerID)
			workerID++
		}
	}

	done := make(chan struct{})
	perClass := map[string]*classStats{}
	all := &classStats{}
	go func() {
		defer close(done)
		for res := range results {
			cs := perClass[res.class]
			if cs == nil {
				cs = &classStats{}
				perClass[res.class] = cs
			}
			cs.add(res.r)
			all.add(res.r)
		}
	}()
	wg.Wait()
	close(results)
	<-done

	classes := make([]string, 0, len(perClass))
	for c := range perClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Println(perClass[c].report(c, assignment[c], *duration))
	}
	fmt.Println(all.report("all", total, *duration))
	scrapeMetrics(client, *baseURL)
	if all.ok == 0 {
		log.Printf("warning: no successful requests (server down, empty archive, or everything throttled)")
		os.Exit(1)
	}
}
