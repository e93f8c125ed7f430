package main

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"time"
)

// runResult is everything one run of one workload measured.
type runResult struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   int                `json:"seconds"`
	Archive   string             `json:"archive"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Problems  []string           `json:"problems"`
	EndToEnd  map[string]float64 `json:"end_to_end"`
	PerLayer  map[string]float64 `json:"per_layer"`
	// Samples is the sample count behind each latency figure.
	Samples map[string]int `json:"samples"`
}

func (r *runResult) correct() bool { return len(r.Problems) == 0 }

func (r *runResult) problem(format string, a ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, a...))
}

// run is one run in progress.
type run struct {
	w       workload
	seed    uint64
	seconds int
	outDir  string
	m       *model
	res     *runResult

	builds []buildStats
	setups []float64 // seconds, one per set-up
	// The machine's speed (see speed.go) during each set-up, the paced
	// phase and the saturate phase.
	setupSpeeds          []float64
	pacedSpeed, satSpeed float64
	// buildWriteBytes is what the last build wrote, by /proc/self/io.
	buildWriteBytes int64

	dir    string
	srv    *serverProc
	rested procReport // the server right after its open, garbage collected
	tr     *tracer    // nil unless this is a traced run
	// flushedTick is the newest tick the store is known to hold at the
	// end: the last built one, or under live ingest the last one flushed.
	flushedTick int
	cl          *client
	gen         *generator
	gz          gunzipper
	scrMs       []float64
	paced       []result
	sat         []result
	satDur      time.Duration
}

func runWorkload(w workload, seed uint64, seconds int, traced bool, outDir string) (*runResult, error) {
	r := &run{
		w: w, seed: seed, seconds: seconds, outDir: outDir,
		res: &runResult{
			Workload: w.name, Seed: seed, Seconds: seconds, Archive: archiveVersion,
			EndToEnd: map[string]float64{}, PerLayer: map[string]float64{}, Samples: map[string]int{},
		},
	}
	ticks := baseTicks
	if w.live {
		// Room for the whole measured span plus slack, so the writer
		// never runs out of model before it is killed.
		ticks += liveRate * (seconds + 5)
	}
	r.m = newModel(seed, ticks)
	r.gen = newGenerator(r.m, w, seed)
	r.flushedTick = baseTicks - 1
	if traced {
		r.tr = &tracer{}
	}
	err := r.measure()
	if r.cl != nil {
		r.cl.close()
	}
	if r.srv != nil {
		r.srv.kill()
	}
	if r.dir != "" {
		os.RemoveAll(r.dir)
	}
	return r.res, err
}

func (r *run) liveTicks() int { return r.m.ticks() - baseTicks }

func (r *run) checkpointAfter() int64 {
	if r.w.live {
		return liveCheckpointBytes
	}
	return 0
}

// setUp builds one archive, serves it and warms it up, and records how
// long all of that took and how fast the machine was meanwhile.
func (r *run) setUp(rep int) error {
	sp := startSpeedometer()
	begin := time.Now()
	err := r.buildAndServe(rep)
	took, speed := time.Since(begin), sp.speed()
	if err != nil {
		return err
	}
	r.setups, r.setupSpeeds = append(r.setups, took.Seconds()), append(r.setupSpeeds, speed)
	return nil
}

func (r *run) buildAndServe(rep int) error {
	dir, err := freshDir(r.outDir, fmt.Sprintf("archive-%d-%d", os.Getpid(), rep))
	if err != nil {
		return err
	}
	r.dir = dir
	wrote := procSelfWriteBytes()
	st, err := buildArchive(dir, r.m, r.tr)
	if err != nil {
		return err
	}
	r.buildWriteBytes = procSelfWriteBytes() - wrote
	r.builds = append(r.builds, st)
	if r.srv, err = startServer(dir, r.seed, r.checkpointAfter(), r.liveTicks()); err != nil {
		return err
	}
	if err := waitReady(r.srv.addr); err != nil {
		return err
	}
	r.cl = newClient(r.srv.addr)
	// Resident size is the reopened store's, before any request has
	// filled a cache.
	if r.rested, err = r.srv.report(true); err != nil {
		return err
	}
	if r.w.rate > 0 {
		err = warm(r.cl, r.gen, r.w.warmup, baseTicks-1)
	} else {
		// The region the walkers reach last: its pages are long out of
		// the result cache by then.
		region := (int(r.seed%nRegions) + nRegions - 1) % nRegions
		pages := walk(r.cl, r.m, region, baseTicks-1, time.Now().Add(time.Minute), r.w.warmup, &r.gz)
		if last := pages[len(pages)-1]; !last.ok {
			err = fmt.Errorf("warm-up walk: %w", last.err)
		}
	}
	return err
}

// stopServer closes the server's store cleanly; the directory stays.
func (r *run) stopServer() (procReport, error) {
	r.cl.close()
	rep, err := r.srv.quit()
	r.cl, r.srv = nil, nil
	return rep, err
}

func (r *run) scrape() (scrape, error) {
	s, took, err := scrapeMetrics(r.srv.addr)
	r.scrMs = append(r.scrMs, ms(took))
	return s, err
}

func (r *run) measure() error {
	// A traced run reports no end-to-end metric, so it spends the time
	// of the second set-up on its traced pass.
	setUps := setupRepeats
	if r.tr != nil {
		setUps = 1
	}
	for rep := range setUps {
		if rep > 0 {
			if _, err := r.stopServer(); err != nil {
				return err
			}
			if err := os.RemoveAll(r.dir); err != nil {
				return err
			}
		}
		if err := r.setUp(rep); err != nil {
			return fmt.Errorf("set-up %d: %w", rep, err)
		}
	}
	o := observed{rested: r.rested}
	var err error
	if o.before, err = r.scrape(); err != nil {
		return err
	}

	// The timed phases.
	total := time.Duration(r.seconds) * time.Second
	pacedDur := time.Duration(float64(total) * pacedShare)
	if o.start, err = r.srv.report(false); err != nil {
		return err
	}
	start := time.Now().Add(20 * time.Millisecond)
	// nowTick is the archive's newest tick at a moment of the run.
	nowTick := func(at time.Time) int { return baseTicks - 1 }
	if r.w.live {
		nowTick = func(at time.Time) int {
			return min(r.m.ticks()-1, baseTicks-1+int(at.Sub(start).Seconds()*liveRate))
		}
		if err := r.srv.startWriter(start); err != nil {
			return err
		}
	}
	if r.w.rate > 0 {
		sched := r.gen.schedule(int(r.w.rate*pacedDur.Seconds()), func(due time.Duration) int { return nowTick(start.Add(due)) })
		sp := startSpeedometer()
		r.paced = openLoop(r.cl, start, sched)
		r.pacedSpeed = sp.speed()
		if o.mid, err = r.srv.report(false); err != nil {
			return err
		}
		satStart := time.Now()
		r.sat = closedLoop(r.cl, r.gen, start.Add(total), nowTick)
		r.satDur = time.Since(satStart)
	} else {
		// Walkers are closed-loop throughout: the one phase gives both
		// the page latencies and the saturated page rate.
		sp := startSpeedometer()
		r.paced = walkers(r.cl, r.m, r.seed, start.Add(total))
		r.satDur, r.pacedSpeed = time.Since(start), sp.speed()
	}
	if o.end, err = r.srv.report(r.w.live); err != nil {
		return err
	}
	if r.w.rate == 0 {
		o.mid = o.end
	}
	if o.after, err = r.scrape(); err != nil {
		return err
	}

	if r.w.live {
		// A coalesced request shares a read that began before it did, so
		// each one the server counted may be stale, and only those.
		r.verifyKept(func(due time.Time) int { return floorAt(o.end, due) }, int(delta(o.before, o.after, "spotlake_cache_coalesced_total")))
	} else {
		r.verifyKept(func(time.Time) int { return baseTicks - 1 }, 0)
	}

	// The end: a clean close, or a kill and a recovery check.
	o.final = o.end
	if r.w.live {
		r.cl.close()
		r.srv.kill()
		r.cl, r.srv = nil, nil
		if o.diskAtKill, err = dirBytes(r.dir); err != nil {
			return err
		}
		r.flushedTick = o.end.FlushedTick
		if o.recovered, o.recovery, err = r.checkRecovery(o.end); err != nil {
			return err
		}
	}
	if r.srv != nil {
		if o.final, err = r.stopServer(); err != nil {
			return err
		}
	}

	r.fill(o)
	if r.tr != nil {
		return r.trace()
	}
	return nil
}

// observed is what a run read off the server process: its reports right
// after the open (rested), at the start, middle and end of the timed
// phases, at its clean exit (final) and from the recovery server, the
// scrapes around the timed phases and after recovery, and the directory's
// size after the kill.
type observed struct {
	rested, start, mid, end, final, recovery procReport
	before, after, recovered                 scrape
	diskAtKill                               int64
}

// floorAt returns the last tick the live writer had acknowledged by
// time at: what a request due at that moment must be able to see.
func floorAt(rep procReport, at time.Time) int {
	n := sort.Search(len(rep.AckNs), func(i int) bool { return rep.AckNs[i] > at.UnixNano() })
	return baseTicks - 1 + n
}

// verifyKept decodes the responses kept for the model check and
// compares them, now that their latencies are long recorded. floor
// gives the last tick a request due at a given time must see; the first
// staleAllowed responses that are right but stop short of it pass.
func (r *run) verifyKept(floor func(due time.Time) int, staleAllowed int) {
	stale := 0
	for _, set := range [][]result{r.paced, r.sat} {
		for i := range set {
			res := &set[i]
			if res.body == nil {
				continue
			}
			plain, err := r.gz.inflate(res.body, res.gzipped)
			if err == nil {
				_, err = r.m.verify(&res.req, plain, floor(res.due))
			}
			var se *staleError
			if errors.As(err, &se) {
				if stale++; stale <= staleAllowed {
					err = nil
				}
			}
			r.res.PerLayer["archive.stale_reads"] = float64(stale)
			if err != nil {
				res.ok, res.err = false, err
			}
			res.body = nil
			r.res.Samples["model_checked"]++
		}
	}
}

// checkRecovery reopens the killed server's directory in a fresh server
// process and checks that every point acknowledged before the last
// successful Flush the dead server reported is there.
func (r *run) checkRecovery(last procReport) (scrape, procReport, error) {
	var err error
	if r.srv, err = startServer(r.dir, r.seed, 0, 0); err != nil {
		return nil, procReport{}, fmt.Errorf("recovery: %w", err)
	}
	ready := r.srv.ready
	ready.OpenMs = ms(r.srv.spawn) // exec to serving, the whole recovery
	r.cl = newClient(r.srv.addr)
	s, err := r.scrape()
	if err != nil {
		return nil, ready, err
	}
	// Everything since the checkpoint of the build: the WAL tail of the
	// build and all live ticks. Per series, the response must be the
	// model's points without a gap, through the flushed tick at least.
	want, have := 0, 0
	for region := range nRegions {
		req := request{kind: kindRecent, typ: -1, region: region, fromTick: buildTicks, toTick: r.m.ticks() - 1}
		req.path = fmt.Sprintf("/api/v1/query?dataset=%s&region=%s&from=%s", dataset, r.m.regions[region], rfc(buildTicks))
		res := r.cl.do(req, time.Now(), true)
		if !res.ok {
			return s, ready, fmt.Errorf("recovery scan: %w", res.err)
		}
		plain, err := r.gz.inflate(res.body, res.gzipped)
		if err != nil {
			return s, ready, err
		}
		expected, found, err := r.m.present(r.m.match(-1, region), plain, buildTicks, last.FlushedTick)
		if err != nil {
			return s, ready, fmt.Errorf("recovery scan: %w", err)
		}
		want, have = want+expected, have+found
		if _, err := r.m.verify(&req, plain, last.FlushedTick); err != nil {
			r.res.problem("recovery: %v", err)
		}
	}
	r.res.PerLayer["tsdb.recovered_ratio"] = ratio(float64(have), float64(want))
	return s, ready, nil
}
