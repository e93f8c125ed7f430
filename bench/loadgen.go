package main

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"time"
)

// request is one generated API call and what the model needs to check
// its answer.
type request struct {
	kind        kind
	typ, region int // index into model.types / model.regions, -1 = any
	// The window in ticks, both ends included; open windows end at the
	// model's last tick.
	fromTick, toTick int
	path             string        // without a cursor
	due              time.Duration // open loop: offset from the phase start
}

// result is what the client saw of one request.
type result struct {
	req       request
	due, done time.Time
	late      time.Duration // how long after due the generator sent it
	ok        bool          // 200 with a non-empty body
	wire      int           // body bytes as received
	points    int           // points or entries the response carried
	// body is kept (as received) only for the responses picked for the
	// model check, which runs after the phase.
	body    []byte
	gzipped bool
	err     error
}

func (r *result) latency() time.Duration { return r.done.Sub(r.due) }

// zipf draws ranks with weight 1/(rank+1): Zipf with exponent 1, which
// math/rand's generator (exponent > 1 only) cannot do.
type zipf struct{ cum []float64 }

func newZipf(n int) zipf {
	z := zipf{cum: make([]float64, n)}
	sum := 0.0
	for i := range z.cum {
		sum += 1 / float64(i+1)
		z.cum[i] = sum
	}
	return z
}

func (z zipf) draw(rng *rand.Rand) int {
	x := rng.Float64() * z.cum[len(z.cum)-1]
	for i, c := range z.cum {
		if x < c {
			return i
		}
	}
	return len(z.cum) - 1
}

// hotTypes is how many types the dashboard mix asks for: with the ten
// regions, 42 distinct keys, well inside the 128-entry result cache.
const hotTypes = 32

// generator turns a seed into a workload's requests. Cold windows are
// never repeated within a run, so the result cache and singleflight
// cannot help them.
type generator struct {
	m       *model
	w       workload
	mu      sync.Mutex
	rng     *rand.Rand
	regions zipf
	types   zipf
	seen    map[[3]int]bool
	slices  int               // slices drawn so far
	owed    [numKinds]float64 // each kind's share of the mix not yet sent
}

func newGenerator(m *model, w workload, seed uint64) *generator {
	return &generator{
		m: m, w: w,
		rng:     rand.New(rand.NewSource(int64(seed))),
		regions: newZipf(nRegions),
		types:   newZipf(hotTypes),
		seen:    make(map[[3]int]bool),
	}
}

func rfc(tick int) string { return tickTime(tick).Format(time.RFC3339) }

// next draws one request. nowTick is the archive's newest tick when the
// request falls due: fixed on a read-only store, advancing under live
// ingest, where "recent" follows it.
func (g *generator) next(nowTick int) request {
	g.mu.Lock()
	defer g.mu.Unlock()
	// The kinds rotate in fixed proportion instead of being drawn: a
	// kind costs ten times another, so a drawn mix would make the load
	// itself differ from seed to seed. Only the keys are random.
	k := kind(0)
	for i := range g.owed {
		if g.owed[i] += g.w.mix[i]; g.owed[i] > g.owed[k] {
			k = kind(i)
		}
	}
	g.owed[k]--
	r := request{kind: k, typ: -1, region: -1, toTick: g.m.ticks() - 1}
	q := url.Values{"dataset": {dataset}}
	path := "/api/v1/query"
	switch k {
	case kindLatest:
		r.region = g.regions.draw(g.rng)
		path = "/api/v1/latest"
	case kindRecent:
		r.typ = g.types.draw(g.rng)
		// The last seven days, from the top of the hour.
		from := tickTime(nowTick).Add(-recentWindow).Truncate(time.Hour)
		r.fromTick = max(0, int(from.Sub(epoch)/tickStep))
		q.Set("from", rfc(r.fromTick))
	case kindSlice:
		// Regions in rotation: a block is asked for again only after the
		// other nine regions' blocks, twice the block cache, have passed
		// through it, so every slice decodes its blocks afresh. Drawn
		// regions would hit on a varying half of the slices and put the
		// median on the boundary between a cached and a decoded read.
		r.region = g.slices % nRegions
		g.slices++
		for {
			r.fromTick = g.rng.Intn(scanEndTick - sliceTicks)
			if key := [3]int{-1, r.region, r.fromTick}; !g.seen[key] {
				g.seen[key] = true
				break
			}
		}
		r.toTick = r.fromTick + sliceTicks - 1
		q.Set("from", rfc(r.fromTick))
		q.Set("to", rfc(r.toTick))
	case kindScan:
		for {
			r.typ, r.fromTick = g.rng.Intn(nTypes), g.rng.Intn(scanEndTick-scanTicks)
			if key := [3]int{r.typ, -1, r.fromTick}; !g.seen[key] {
				g.seen[key] = true
				break
			}
		}
		r.toTick = r.fromTick + scanTicks - 1
		q.Set("from", rfc(r.fromTick))
		q.Set("to", rfc(r.toTick))
	case kindTrend:
		for {
			r.typ, r.region, r.fromTick = g.rng.Intn(nTypes), g.rng.Intn(nRegions), ticksPerHour*g.rng.Intn(trendStartHr)
			if key := [3]int{r.typ, r.region, r.fromTick}; !g.seen[key] {
				g.seen[key] = true
				break
			}
		}
		r.toTick = r.fromTick + ticksPerHour*trendHours - 1
		q.Set("resolution", "1h")
		q.Set("from", rfc(r.fromTick))
		q.Set("to", rfc(r.toTick))
	case kindPage:
		panic("bench: pages come from walk, which holds the cursor")
	}
	if r.typ >= 0 {
		q.Set("type", g.m.types[r.typ])
	}
	if r.region >= 0 {
		q.Set("region", g.m.regions[r.region])
	}
	r.path = path + "?" + q.Encode()
	return r
}

// schedule lays n requests out at the workload's fixed rate. nowTick
// maps a due offset to the archive's newest tick at that moment.
func (g *generator) schedule(n int, nowTick func(time.Duration) int) []request {
	out := make([]request, n)
	for i := range out {
		due := time.Duration(float64(i) / g.w.rate * float64(time.Second))
		out[i] = g.next(nowTick(due))
		out[i].due = due
	}
	return out
}

// client speaks to the server over at most `clients` loopback
// connections, asking for gzip as a browser or a data tool would.
type client struct {
	hc   *http.Client
	base string
	bufs sync.Pool
}

func newClient(addr string) *client {
	return &client{
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     clients,
			MaxIdleConnsPerHost: clients,
			DisableCompression:  true, // the bench sets Accept-Encoding itself and reads the wire bytes
		}},
		base: "http://" + addr,
		bufs: sync.Pool{New: func() any { return new(bytes.Buffer) }},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// fetch sends one GET and reads the whole body. keep asks for a copy of
// the body; next is the X-Next-Cursor header.
func (c *client) fetch(path string, gzip, keep bool) (res result, next string) {
	hr, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		res.err = err
		return res, ""
	}
	if gzip {
		hr.Header.Set("Accept-Encoding", "gzip")
	}
	resp, err := c.hc.Do(hr)
	if err != nil {
		res.done, res.err = time.Now(), err
		return res, ""
	}
	buf := c.bufs.Get().(*bytes.Buffer)
	buf.Reset()
	_, err = io.Copy(buf, resp.Body)
	res.done = time.Now()
	resp.Body.Close()
	res.wire = buf.Len()
	res.gzipped = resp.Header.Get("Content-Encoding") == "gzip"
	switch {
	case err != nil:
		res.err = err
	case resp.StatusCode != http.StatusOK:
		res.err = fmt.Errorf("status %d: %.200s", resp.StatusCode, buf.Bytes())
	case buf.Len() == 0:
		res.err = fmt.Errorf("empty body")
	default:
		res.ok = true
		res.points, _ = strconv.Atoi(resp.Header.Get("X-Total-Points"))
		if keep {
			res.body = append([]byte(nil), buf.Bytes()...)
		}
	}
	c.bufs.Put(buf)
	return res, resp.Header.Get("X-Next-Cursor")
}

// do runs one generated request that fell due at due.
func (c *client) do(r request, due time.Time, keep bool) result {
	res, _ := c.fetch(r.path, true, keep)
	res.req, res.due = r, due
	if r.kind == kindLatest && res.ok {
		res.points = nTypes * nAZs // one entry a series of the region; no header says so
	}
	return res
}

// sampler picks one request in verifyOneIn for the model check.
type sampler struct{ n int }

func (s *sampler) pick() bool {
	s.n++
	return s.n%verifyOneIn == 1
}

// openLoop sends each request of the schedule at start + its due offset
// whether or not earlier ones have been answered, and times each from
// its due time: a server stall is charged to every request that fell due
// during it. The transport's connection cap queues what cannot be sent.
func openLoop(c *client, start time.Time, sched []request) []result {
	out := make([]result, len(sched))
	var wg sync.WaitGroup
	var pick sampler
	for i, r := range sched {
		due := start.Add(r.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		late := time.Since(due)
		keep := pick.pick()
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = c.do(r, due, keep)
			out[i].late = late
		}()
	}
	wg.Wait()
	return out
}

// closedLoop runs `clients` clients back to back until the deadline:
// each sends its next request when the previous answer is complete.
func closedLoop(c *client, g *generator, deadline time.Time, nowTick func(time.Time) int) []result {
	var mu sync.Mutex
	var out []result
	var pick sampler
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				now := time.Now()
				if !now.Before(deadline) {
					return
				}
				r := g.next(nowTick(now))
				mu.Lock()
				keep := pick.pick()
				mu.Unlock()
				res := c.do(r, now, keep)
				mu.Lock()
				out = append(out, res)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// warm sends n requests one after another, untimed.
func warm(c *client, g *generator, n, nowTick int) error {
	for range n {
		if res := c.do(g.next(nowTick), time.Now(), false); !res.ok {
			return fmt.Errorf("warm-up request %s: %w", res.req.path, res.err)
		}
	}
	return nil
}

// walk pages one region's whole history by cursor — each page asked for
// only once the previous one's X-Next-Cursor is in hand — and checks
// the concatenated pages against the model: every point exactly once.
// A walk cut short by the deadline is checked as far as it got. If the
// walk fails the check, every page of it counts as failed.
func walk(c *client, m *model, region int, lastTick int, deadline time.Time, maxPages int, gz *gunzipper) []result {
	r := request{kind: kindPage, typ: -1, region: region, toTick: lastTick}
	q := url.Values{"dataset": {dataset}, "region": {m.regions[region]}, "limit": {strconv.Itoa(pageLimit)}}
	r.path = "/api/v1/query?" + q.Encode()
	check := newStreamCheck(m, m.match(-1, region), 0, lastTick)
	var out []result
	fail := func(err error) []result {
		for i := range out {
			out[i].ok, out[i].err = false, err
		}
		return out
	}
	cursor := ""
	for len(out) < maxPages || maxPages == 0 {
		start := time.Now()
		if !start.Before(deadline) {
			return out
		}
		res, next := c.fetch(r.path+"&cursor="+url.QueryEscape(cursor), true, true)
		res.req, res.due = r, start
		body := res.body
		res.body = nil
		out = append(out, res)
		if !res.ok {
			return fail(res.err)
		}
		// The page's latency is recorded; now decode and check it.
		plain, err := gz.inflate(body, res.gzipped)
		if err != nil {
			return fail(err)
		}
		before := check.points
		if err := check.page(plain, lastTick); err != nil {
			return fail(fmt.Errorf("walk of %s, page %d: %w", m.regions[region], len(out), err))
		}
		out[len(out)-1].points = check.points - before
		if next == "" {
			if err := check.finish(lastTick); err != nil {
				return fail(fmt.Errorf("walk of %s ended early: %w", m.regions[region], err))
			}
			return out
		}
		cursor = next
	}
	return out
}

// walkers runs `clients` walkers until the deadline, each starting at
// its own region and moving to the next when a walk completes.
func walkers(c *client, m *model, seed uint64, deadline time.Time) []result {
	var mu sync.Mutex
	var out []result
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var gz gunzipper
			region := (int(seed%nRegions) + w*nRegions/clients) % nRegions
			for time.Now().Before(deadline) {
				pages := walk(c, m, region, baseTicks-1, deadline, 0, &gz)
				mu.Lock()
				out = append(out, pages...)
				mu.Unlock()
				region = (region + 1) % nRegions
			}
		}()
	}
	wg.Wait()
	return out
}
