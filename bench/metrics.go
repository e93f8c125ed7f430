package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// fill turns what the run collected into the named metrics. Sources, as
// in the README: C the client's own timings, S scrape deltas over the
// timed phases, P the server process's reports, B the spans the bench
// put around its own tsdb calls while building.
func (r *run) fill(o observed) {
	rested, r1, mid, r2 := o.rested, o.start, o.mid, o.end
	e, l, res := r.res.EndToEnd, r.res.PerLayer, r.res

	// C: the client.
	var lat, late []time.Duration
	perKind := make([][]time.Duration, numKinds)
	wire, points, lateSends := 0, 0, 0
	timed := append(append([]result(nil), r.paced...), r.sat...)
	for i := range timed {
		t := &timed[i]
		if !t.ok {
			if res.Failed++; res.Failed <= 3 {
				res.problem("%s failed: %v", t.req.path, t.err)
			}
			continue
		}
		wire += t.wire
		points += t.points
	}
	res.Attempted = len(timed)
	for i := range r.paced {
		t := &r.paced[i]
		late = append(late, t.late)
		if t.late > lateLimit {
			lateSends++
		}
		if t.ok {
			lat = append(lat, t.latency())
			perKind[t.req.kind] = append(perKind[t.req.kind], t.latency())
		}
	}
	share := ratio(float64(lateSends), float64(len(r.paced)))
	l["loadgen.send_late_share"] = share
	if share > lateShare {
		res.problem("generator-bound: %.1f%% of sends were more than %v late", 100*share, lateLimit)
	}
	satOK := 0
	for i := range r.sat {
		if r.sat[i].ok {
			satOK++
		}
	}
	if r.w.rate == 0 {
		satOK = len(lat) // walkers: the one phase is the saturated one
	}
	sorted := sortedMs(lat)
	res.Samples["read"] = len(sorted)
	// End-to-end timings are reported at reference speed (speed.go): a
	// duration times the speed of the phase it was measured in, a rate
	// divided by it. Per-layer timings are as measured.
	l["loadgen.speed_setup"] = median(r.setupSpeeds)
	l["loadgen.speed_paced"] = r.pacedSpeed
	res.Samples["saturate"] = satOK
	// An end-to-end percentile the sample cannot support makes the run
	// incorrect: read as the 0 a refusal leaves, it would be a perfect
	// latency.
	guarded := func(name string, sorted []float64, p, speed float64) {
		v, ok := percentile(sorted, p)
		if !ok {
			res.problem("%s: %d samples do not leave %d beyond the %gth percentile", name, len(sorted), minBeyond, 100*p)
		}
		e[name] = v * speed
	}
	e["ok_ratio"] = ratio(float64(res.Attempted-res.Failed), float64(res.Attempted))
	guarded("read_p50_ms", sorted, 0.50, r.pacedSpeed)
	guarded("read_p90_ms", sorted, 0.90, r.pacedSpeed)
	l["loadgen.saturated_rps"] = ratio(float64(satOK), r.satDur.Seconds())
	e["server_cpu_ms_per_req"] = ratio(mid.CPUMs-r1.CPUMs, float64(len(r.paced))) * r.pacedSpeed
	l["loadgen.sent"] = float64(res.Attempted)
	l["loadgen.verified"] = float64(res.Attempted - res.Failed)
	l["loadgen.send_late_p99_ms"] = pct(sortedMs(late), 0.99)
	l["loadgen.read_p99_ms"] = pct(sorted, 0.99)
	for k := range numKinds {
		l["loadgen."+kindNames[k]+"_p50_ms"] = pct(sortedMs(perKind[k]), 0.50)
		res.Samples[kindNames[k]] = len(perKind[k])
	}
	l["loadgen.resp_bytes_mean"] = ratio(float64(wire), float64(res.Attempted-res.Failed))
	l["obs.scrape_ms"] = mean(r.scrMs)

	// B: the builds.
	var backToBack []time.Duration
	var appendMs, appendAtRef, flushes, setups, reopens, checkpoints, closes, disk, buildRate []float64
	for i, took := range r.setups {
		setups = append(setups, took*r.setupSpeeds[i])
		for _, d := range r.builds[i].tail {
			appendAtRef = append(appendAtRef, ms(d)*r.setupSpeeds[i])
		}
	}
	for _, b := range r.builds {
		backToBack = append(backToBack, b.ticks...)
		for _, d := range b.tail {
			appendMs = append(appendMs, ms(d))
		}
		flushes = append(flushes, sortedMs(b.flushes)...)
		for _, d := range b.reopens {
			reopens = append(reopens, d.Seconds())
		}
		checkpoints = append(checkpoints, b.checkpoint.Seconds())
		closes = append(closes, ms(b.closed))
		disk = append(disk, float64(b.diskBytes)/float64(b.stored))
		buildRate = append(buildRate, ratio(buildTicks*nSeries, b.appendWall.Seconds()))
	}
	last := r.builds[len(r.builds)-1]
	tickMs := sortedMs(backToBack)
	e["setup_s"] = median(setups)
	l["tsdb.build_points_per_s"] = median(buildRate)
	l["tsdb.reopen_s"] = median(reopens)
	e["disk_bytes_per_point"] = median(disk)
	e["resident_bytes_per_point"] = ratio(float64(rested.HeapAlloc), float64(rested.Points))
	l["tsdb.append_ns_per_point"] = 1e6 * pct(tickMs, 0.50) / nSeries
	l["tsdb.dedup_stored_ratio"] = ratio(float64(last.stored), float64(baseTicks*nSeries))
	l["tsdb.checkpoint_full_s"] = median(checkpoints)
	l["tsdb.close_ms"] = median(closes)
	l["tsdb.open_ms"] = rested.OpenMs
	l["tsdb.disk_write_bytes_per_stored_point"] = ratio(float64(r.buildWriteBytes), float64(last.stored))

	// Paced appends, per tick of nSeries entries, from the tick's due time
	// to its acknowledgement: the builds' WAL tails on an idle store, or
	// under live ingest the writer's ticks that fell due in the paced
	// phase. A tick is on time if acknowledged before the next fell due.
	if r.w.live {
		appendMs, appendAtRef = appendMs[:0], appendAtRef[:0]
		for i := range min(len(r2.AckNs), int(liveRate*float64(r.seconds)*pacedShare)) {
			due := r2.WriterT0Ns + int64(float64(i)/liveRate*1e9)
			took := float64(r2.AckNs[i]-due) / 1e6
			appendMs, appendAtRef = append(appendMs, took), append(appendAtRef, took*r.pacedSpeed)
		}
		flushes = append(flushes, r2.FlushMs...)
		written := float64(r2.Points - r1.Points)
		l["tsdb.disk_write_bytes_per_stored_point"] = ratio(float64(r2.WriteBytes-r1.WriteBytes), written)
		// Where the kill falls between two checkpoints moves both of
		// these by a tenth, so they explain and do not guard.
		l["archive.resident_bytes_per_point_at_end"] = ratio(float64(r2.HeapAlloc), float64(r2.Points))
		l["tsdb.disk_bytes_per_point_at_kill"] = ratio(float64(o.diskAtKill), float64(o.recovery.Points))
		l["tsdb.recovery_after_kill_s"] = o.recovery.OpenMs / 1000
		if l["tsdb.recovered_ratio"] != 1 {
			res.problem("recovered %.6f of the points flushed before the kill", l["tsdb.recovered_ratio"])
		}
	}
	sort.Float64s(appendMs)
	sort.Float64s(appendAtRef)
	nTicks, onTime := len(appendMs), 0
	for _, d := range appendMs {
		if d <= 1000/liveRate {
			onTime++
		}
	}
	res.Samples["append"] = nTicks
	guarded("append_p50_ms", appendAtRef, 0.50, 1)
	e["append_on_time_ratio"] = ratio(float64(onTime), float64(nTicks))
	l["tsdb.append_p99_ms"] = pct(appendMs, 0.99)
	if n := len(appendMs); n > 0 {
		l["tsdb.append_max_ms"] = appendMs[n-1]
	}
	l["tsdb.append_late_ratio"] = 1 - e["append_on_time_ratio"]
	l["tsdb.flush_ms_p50"] = median(flushes)

	// P: the server process over the timed phases.
	span := float64(r2.AtNs-r1.AtNs) / 1e9
	l["archive.alloc_bytes_per_req"] = ratio(float64(r2.TotalAlloc-r1.TotalAlloc), float64(res.Attempted))
	l["archive.gc_pause_ms_per_s"] = ratio(float64(r2.PauseTotalNs-r1.PauseTotalNs)/1e6, span)
	l["archive.peak_rss_mb"] = float64(max(r2.MaxRSSKB, o.final.MaxRSSKB)) / 1024

	// S: scrape deltas over the timed phases.
	d := func(name string) float64 { return delta(o.before, o.after, name) }
	hits, misses := d("spotlake_cache_hits_total"), d("spotlake_cache_misses_total")
	l["archive.handler_ms_mean"] = 1000 * ratio(d("spotlake_http_request_duration_seconds_sum"), d("spotlake_http_request_duration_seconds_count"))
	l["archive.cache_hit_ratio"] = ratio(hits, hits+misses)
	l["archive.cache_invalidations"] = d("spotlake_cache_invalidations_total")
	l["archive.coalesced"] = d("spotlake_cache_coalesced_total")
	l["archive.admitted"] = d("spotlake_admission_admitted_total")
	l["archive.shed"] = d("spotlake_admission_shed_total")
	l["archive.throttled"] = d("spotlake_admission_throttled_total")
	if l["archive.shed"]+l["archive.throttled"] > 0 {
		res.problem("admission shed %v and throttled %v requests: two connections must never trip it", l["archive.shed"], l["archive.throttled"])
	}
	bh, bm := d("spotlake_blockcache_hits_total"), d("spotlake_blockcache_misses_total")
	l["tsdb.blockcache_hit_ratio"] = ratio(bh, bh+bm)
	// A series read looks its block up three times (two window bounds,
	// one copy), so only the first can miss and the ratio never falls
	// below 2/3; misses per request is the figure that shows reuse.
	l["tsdb.blockcache_misses_per_req"] = ratio(bm, float64(res.Attempted))
	l["tsdb.blockcache_evictions"] = d("spotlake_blockcache_evictions_total")
	l["tsdb.scanned_per_returned_point"] = ratio(d("spotlake_store_scanned_points_total"), float64(points))
	l["tsdb.maintenance_checkpoints"] = d("spotlake_maintenance_checkpoints_total")
	l["tsdb.sealed_blocks"] = o.after["spotlake_store_sealed_blocks"]
	l["tsdb.cold_points"] = o.after["spotlake_store_cold_points"]
	l["tsdb.cold_compressed_bytes_per_point"] = ratio(o.after["spotlake_store_cold_compressed_bytes"], o.after["spotlake_store_cold_points"])
	l["tsdb.replayed_wal_bytes"] = o.after["spotlake_store_replayed_wal_bytes"]
	if o.recovered != nil {
		l["tsdb.replayed_wal_bytes"] = o.recovered["spotlake_store_replayed_wal_bytes"]
	}
	if cre := o.after["spotlake_store_cold_read_errors_total"]; cre > 0 {
		res.problem("%v cold read errors", cre)
	}
}

// printTable writes every metric by name with its unit.
func (r *runResult) printTable(w io.Writer) {
	fmt.Fprintf(w, "# %s  seed %d  %d s  %s  attempted %d  failed %d\n", r.Workload, r.Seed, r.Seconds, r.Archive, r.Attempted, r.Failed)
	for _, set := range []struct {
		defs []metricDef
		vals map[string]float64
	}{{endToEnd, r.EndToEnd}, {perLayer, r.PerLayer}} {
		for _, d := range set.defs {
			if v, ok := set.vals[d.name]; ok {
				fmt.Fprintf(w, "%-42s %16.6g %s\n", d.name, v, d.unit)
			}
		}
	}
	names := make([]string, 0, len(r.Samples))
	for n := range r.Samples {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprint(w, "samples:")
	for _, n := range names {
		fmt.Fprintf(w, " %s=%d", n, r.Samples[n])
	}
	fmt.Fprintln(w)
	for _, p := range r.Problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
}
