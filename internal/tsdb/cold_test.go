package tsdb

// Tests for the cold block tier: codec round trips, differential
// equality between a sealed store and never-sealed references (including
// cursor walks that cross the tier boundary, and under -race with a
// concurrent writer), the seal-boundary crash matrix, the bound the byte
// trigger puts on hot growth, and recovery/accounting invariants.

import (
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simrand"
)

// sealKeys is a small key universe that gives each series enough depth
// to seal multiple blocks under the tiny test block sizes.
func sealKeys() []SeriesKey {
	return []SeriesKey{
		{Dataset: DatasetPrice, Type: "m5.xlarge", Region: "us-east-1", AZ: "us-east-1a"},
		{Dataset: DatasetPrice, Type: "c5.large", Region: "eu-west-1", AZ: "eu-west-1b"},
		{Dataset: DatasetPlacementScore, Type: "p3.8xlarge", Region: "us-east-1", AZ: ""},
		{Dataset: DatasetInterruptFree, Type: "r5.2xlarge", Region: "ap-northeast-2", AZ: "ap-northeast-2c"},
	}
}

// sealEntries builds n time-ordered entries round-robined over sealKeys,
// with occasional equal-timestamp runs so cursor positions inside a run
// get exercised, and values drawn from a small set (the compressible
// shape real spot prices have).
func sealEntries(n, startSec int) []Entry {
	keys := sealKeys()
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		sec := startSec + i
		if (i/len(keys))%7 == 3 {
			// Duplicate the same series' previous timestamp: equal-timestamp
			// runs are legal, and cursor positions inside them must resolve.
			sec -= len(keys)
		}
		out = append(out, Entry{
			Key:   keys[i%len(keys)],
			At:    t0.Add(time.Duration(sec) * 4 * time.Second),
			Value: float64((i / 7) % 5),
		})
	}
	return out
}

// TestBlockCodecRoundTrip drives encodeBlock/decodeBlock over value and
// timestamp shapes chosen to hit every dod bucket and XOR branch.
func TestBlockCodecRoundTrip(t *testing.T) {
	mk := func(n int, at func(i int) time.Time, v func(i int) float64) []sample {
		pts := make([]sample, n)
		for i := range pts {
			pts[i] = sample{ns: at(i).UnixNano(), v: v(i)}
		}
		return pts
	}
	at := func(d time.Duration) int64 { return t0.Add(d).UnixNano() }
	everySec := func(i int) time.Time { return t0.Add(time.Duration(i) * time.Second) }
	cases := map[string][]sample{
		"single":   mk(1, everySec, func(int) float64 { return 3.25 }),
		"constant": mk(500, everySec, func(int) float64 { return 0.0912 }),
		"steps":    mk(500, everySec, func(i int) float64 { return float64(i / 50) }),
		"ramp":     mk(300, everySec, func(i int) float64 { return 0.001 * float64(i) }),
		"jitter": mk(400, func(i int) time.Time {
			return t0.Add(time.Duration(i)*time.Minute + time.Duration(i*i%977)*time.Millisecond)
		}, func(i int) float64 { return math.Sin(float64(i)) }),
		"dups": mk(64, func(i int) time.Time { return t0.Add(time.Duration(i/4) * time.Hour) },
			func(i int) float64 { return float64(i % 3) }),
		"extremes": {
			{ns: at(0), v: 0},
			{ns: at(time.Nanosecond), v: math.Inf(1)},
			{ns: at(365 * 24 * time.Hour), v: math.SmallestNonzeroFloat64},
			{ns: at(400 * 24 * time.Hour), v: -math.MaxFloat64},
			{ns: at(400 * 24 * time.Hour), v: math.Copysign(0, -1)},
		},
		"range-limits": {
			{ns: minInstant.UnixNano(), v: 1},
			{ns: maxInstant.UnixNano(), v: 2},
		},
	}
	for name, pts := range cases {
		eb := encodeBlock(pts)
		if int(eb.count) != len(pts) {
			t.Fatalf("%s: encoded count %d, want %d", name, eb.count, len(pts))
		}
		if eb.minAt != pts[0].ns || eb.maxAt != pts[len(pts)-1].ns {
			t.Fatalf("%s: encoded extent [%d, %d] disagrees with points", name, eb.minAt, eb.maxAt)
		}
		got, err := decodeBlock(nil, eb.data, len(pts), noHorizon)
		if err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		for i := range pts {
			if got[i].ns != pts[i].ns || math.Float64bits(got[i].v) != math.Float64bits(pts[i].v) {
				t.Fatalf("%s: point %d = %v (bits %x), want %v (bits %x)",
					name, i, got[i], math.Float64bits(got[i].v), pts[i], math.Float64bits(pts[i].v))
			}
		}
		// A grossly wrong count must error, not mis-decode or over-read.
		// (Off-by-one counts can hide inside the final byte's bit padding —
		// which is why the count lives in the CRC-protected index, never
		// in the stream itself.)
		if _, err := decodeBlock(nil, eb.data, len(pts)+64, noHorizon); err == nil {
			t.Fatalf("%s: decode with inflated count succeeded", name)
		}
	}
}

// jitteredBlockPoints is archiveBlockPoints with up to a millisecond of
// random jitter on each timestamp: a series whose block time unit is 1.
func jitteredBlockPoints(seed uint64, n int) []sample {
	pts := archiveBlockPoints(seed, n)
	rng := simrand.New(seed).Stream("jitter")
	for i := range pts {
		pts[i].ns += int64(rng.Intn(1e6))
	}
	return pts
}

// TestBlockBytesPerStoredPoint pins what the block time unit and value
// mode buy and cost, over 64 blocks of 512 points each:
//   - archive-shaped change-only blocks (a 10-minute cadence, so a
//     600 s unit, and integer values, so scaled mode) take at most 1.83
//     bytes a point; with every value XORed, as block file version 2
//     did, they took 2.97, and counted in nanoseconds, as version 1 did,
//     7.55;
//   - jittered blocks (unit 1) take at most 1 bit a point and 1 bit a
//     block more than version 1's 267 284 bytes: the widest dod bucket's
//     extra prefix bit and the mode bit;
//   - a one-point block is its two raw 64-bit fields, with no unit and
//     no value mode.
func TestBlockBytesPerStoredPoint(t *testing.T) {
	const blocks = 64
	measure := func(gen func(seed uint64, n int) []sample) (size, points int) {
		for seed := uint64(1); seed <= blocks; seed++ {
			pts := gen(seed, 512)
			size += len(encodeBlock(pts).data)
			points += len(pts)
		}
		return size, points
	}
	size, points := measure(archiveBlockPoints)
	if perPoint := float64(size) / float64(points); perPoint > 1.83 {
		t.Errorf("archive-shaped blocks: %.3f B/point, want at most 1.83", perPoint)
	}
	const version1JitterBytes = 267284
	size, points = measure(jitteredBlockPoints)
	if limit := version1JitterBytes + (points+blocks)/8; size > limit {
		t.Errorf("jittered blocks: %d bytes for %d points, want at most %d (version 1's %d plus a bit a point and a block)",
			size, points, limit, version1JitterBytes)
	}
	if n := len(encodeBlock([]sample{{ns: t0.UnixNano(), v: 1}}).data); n != 16 {
		t.Errorf("one-point block: %d bytes, want 16", n)
	}
}

// sealedOpts are the tiny tiers the differential tests run under: a
// 4-point hot tail, 8-point blocks, and a cache small enough to evict.
func sealedOpts() tuning {
	return tuning{Options: Options{BlockCacheBytes: 1 << 12}, shards: 4, hotTail: 4, blockPoints: 8}
}

// blockCacheCases are the block-cache sizes the differential tests run
// under: sealedOpts' evicting cache, and none, where every read of a
// block after its first full decode ends its decode at the read's
// horizon.
var blockCacheCases = []struct {
	name  string
	bytes int64
}{{"evicting-cache", sealedOpts().BlockCacheBytes}, {"no-cache", -1}}

// walkCursor pages through the series with QueryAfter, advancing a
// keyset cursor exactly the way the archive's pagination does, and
// returns the concatenation of all pages plus the page count.
func walkCursor(db *DB, k SeriesKey, to time.Time, page int) ([]Point, int) {
	var out []Point
	var after time.Time
	seq := 0
	pages := 0
	for {
		pts := noerr(db.QueryAfter(k, after, seq, to, page))
		if len(pts) == 0 {
			return out, pages
		}
		pages++
		for _, p := range pts {
			if p.At.Equal(after) {
				seq++
			} else {
				after, seq = p.At, 1
			}
		}
		out = append(out, pts...)
	}
}

// TestSealedStoreMatchesReference drives a sealing store, a never-sealed
// memory store, and the naive reference through the same workload with
// interleaved checkpoints, and demands every read path agree exactly —
// including float paths (same arithmetic, so bitwise equality), rollup
// folds, and cursor walks whose pages straddle the hot/cold boundary —
// under each of blockCacheCases.
func TestSealedStoreMatchesReference(t *testing.T) {
	for _, c := range blockCacheCases {
		t.Run(c.name, func(t *testing.T) { sealedStoreMatchesReference(t, c.bytes) })
	}
}

func sealedStoreMatchesReference(t *testing.T, cacheBytes int64) {
	dir := t.TempDir()
	opts := sealedOpts()
	opts.BlockCacheBytes = cacheBytes
	db, err := openTuned(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	mem, err := openTuned("", opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefDB()

	apply := func(entries []Entry) {
		t.Helper()
		if n, err := db.AppendBatch(entries); err != nil || n != len(entries) {
			t.Fatalf("sealed stored %d, err %v", n, err)
		}
		if n, err := mem.AppendBatch(entries); err != nil || n != len(entries) {
			t.Fatalf("memory stored %d, err %v", n, err)
		}
		refApplyAll(t, ref, entries)
	}

	compare := func(stage string) {
		t.Helper()
		end := t0.Add(1000 * time.Hour)
		assertSameContents(t, contents(db), refContents(ref))
		for _, k := range sealKeys() {
			all := noerr(mem.Query(k, time.Time{}, end))
			// Cursor walk in small pages: boundaries land inside cold
			// blocks, inside the hot tail, and across the seam.
			got, pages := walkCursor(db, k, end, 5)
			if len(got) != len(all) {
				t.Fatalf("%s: %v cursor walk returned %d points over %d pages, want %d", stage, k, len(got), pages, len(all))
			}
			for i := range all {
				if !got[i].At.Equal(all[i].At) || got[i].Value != all[i].Value {
					t.Fatalf("%s: %v cursor walk point %d = %v, want %v", stage, k, i, got[i], all[i])
				}
			}
			if len(all) == 0 {
				continue
			}
			// Window reads anchored at points around the tier boundary.
			for _, i := range []int{0, len(all) / 3, len(all) / 2, len(all) - 1} {
				from, to := all[i].At, all[min(i+17, len(all)-1)].At
				if g, w := noerr(db.CountAfter(k, from, 0, to)), noerr(mem.CountAfter(k, from, 0, to)); g != w {
					t.Fatalf("%s: %v window CountAfter[%d] = %d, want %d", stage, k, i, g, w)
				}
				if g, w := noerr(db.QueryAfter(k, from, 0, to, 11)), noerr(mem.QueryAfter(k, from, 0, to, 11)); len(g) != len(w) {
					t.Fatalf("%s: %v window QueryAfter[%d] = %d points, want %d", stage, k, i, len(g), len(w))
				}
				if g, w := noerr(db.CountAfter(k, from, 1, end)), noerr(mem.CountAfter(k, from, 1, end)); g != w {
					t.Fatalf("%s: %v CountAfter[%d] = %d, want %d", stage, k, i, g, w)
				}
				gv, gok := noerr2(db.ValueAt(k, from.Add(time.Second)))
				wv, wok := noerr2(mem.ValueAt(k, from.Add(time.Second)))
				if gok != wok || math.Float64bits(gv) != math.Float64bits(wv) {
					t.Fatalf("%s: %v ValueAt[%d] = (%v,%v), want (%v,%v)", stage, k, i, gv, gok, wv, wok)
				}
				gm, gok2 := noerr2(db.WindowMean(k, from, to.Add(time.Second)))
				wm, wok2 := noerr2(mem.WindowMean(k, from, to.Add(time.Second)))
				if gok2 != wok2 || math.Float64bits(gm) != math.Float64bits(wm) {
					t.Fatalf("%s: %v WindowMean[%d] = (%v,%v), want (%v,%v)", stage, k, i, gm, gok2, wm, wok2)
				}
				// Rollup folds over the same windows, and a cursor resume
				// that skips the bucket at its position.
				for _, res := range []time.Duration{time.Hour, 24 * time.Hour} {
					gt, _ := db.Tier(res, AggMean)
					wt, _ := mem.Tier(res, AggMean)
					if g, w := noerr(gt.Query(k, from, to)), noerr(wt.Query(k, from, to)); !samePoints(g, w) {
						t.Fatalf("%s: %v %v tier window[%d] = %v, want %v", stage, k, res, i, g, w)
					}
					if g, w := noerr(gt.CountAfter(k, from, 1, end)), noerr(wt.CountAfter(k, from, 1, end)); g != w {
						t.Fatalf("%s: %v %v tier CountAfter[%d] = %d, want %d", stage, k, res, i, g, w)
					}
					if g, w := noerr(gt.QueryAfter(k, from, 1, end, 2)), noerr(wt.QueryAfter(k, from, 1, end, 2)); !samePoints(g, w) {
						t.Fatalf("%s: %v %v tier resume[%d] = %v, want %v", stage, k, res, i, g, w)
					}
				}
			}
			gg := noerr(db.Grid(k, all[0].At, all[len(all)-1].At, 97*time.Second))
			wg := noerr(mem.Grid(k, all[0].At, all[len(all)-1].At, 97*time.Second))
			if len(gg) != len(wg) {
				t.Fatalf("%s: %v Grid length %d, want %d", stage, k, len(gg), len(wg))
			}
			for i := range wg {
				if math.Float64bits(gg[i]) != math.Float64bits(wg[i]) {
					t.Fatalf("%s: %v Grid[%d] = %v, want %v", stage, k, i, gg[i], wg[i])
				}
			}
			gc, wc := noerr(db.ChangeIntervals(k)), noerr(mem.ChangeIntervals(k))
			if len(gc) != len(wc) {
				t.Fatalf("%s: %v ChangeIntervals length %d, want %d", stage, k, len(gc), len(wc))
			}
			for i := range wc {
				if gc[i] != wc[i] {
					t.Fatalf("%s: %v ChangeIntervals[%d] = %v, want %v", stage, k, i, gc[i], wc[i])
				}
			}
			gl, glok := noerr2(db.Last(k))
			wl, wlok := noerr2(mem.Last(k))
			if glok != wlok || !gl.At.Equal(wl.At) || gl.Value != wl.Value {
				t.Fatalf("%s: %v Last = (%v,%v), want (%v,%v)", stage, k, gl, glok, wl, wlok)
			}
		}
	}

	// Three rounds of append → seal → read, so later rounds append after
	// sealed history and re-seal on top of existing blocks.
	n := 0
	for round := 0; round < 3; round++ {
		batch := sealEntries(400, n*2)
		n += 400
		apply(batch)
		compare(fmt.Sprintf("round %d pre-seal", round))
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		compare(fmt.Sprintf("round %d post-seal", round))
	}
	if db.SealedBlocks() == 0 || db.ColdPointCount() == 0 {
		t.Fatalf("workload sealed nothing: %d blocks, %d cold points", db.SealedBlocks(), db.ColdPointCount())
	}
	if hot, total := db.HotPointCount(), int64(db.PointCount()); hot+db.ColdPointCount() != total {
		t.Fatalf("hot %d + cold %d != total %d", hot, db.ColdPointCount(), total)
	}
	if misses, hits := db.bcache.misses.Value(), db.bcache.hits.Value(); misses == 0 || hits == 0 && cacheBytes > 0 {
		t.Fatalf("cold reads never exercised the block cache: %d misses, %d hits", misses, hits)
	}

	// Recovery: reopen from disk (index-only block open + hot snapshot +
	// WAL tail) and run the full comparison again.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = openTuned(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	defer mem.Close()
	if db.SealedBlocks() == 0 {
		t.Fatal("reopen lost the sealed blocks")
	}
	compare("reopened")
}

// TestSealedConcurrentReadsExact runs (under -race) a writer appending
// live points, a checkpointer sealing underneath it, and readers
// asserting that an immutable historical window — one that crosses the
// tier boundary as seals land — returns exactly the same answers on
// every read, through every read primitive: points, cursor walks, step
// lookups, window means, grids and the frozen prefix of the change
// intervals are compared with values computed before the writer starts,
// and Last with the point the writer stored at its timestamp. It runs
// under each of blockCacheCases.
func TestSealedConcurrentReadsExact(t *testing.T) {
	for _, c := range blockCacheCases {
		t.Run(c.name, func(t *testing.T) { sealedConcurrentReadsExact(t, c.bytes) })
	}
}

func sealedConcurrentReadsExact(t *testing.T, cacheBytes int64) {
	dir := t.TempDir()
	opts := sealedOpts()
	opts.BlockCacheBytes = cacheBytes
	db, err := openTuned(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	k := sealKeys()[0]
	const frozen = 320
	want := make([]Point, 0, frozen)
	for i := 0; i < frozen; i++ {
		p := Point{At: t0.Add(time.Duration(i) * time.Second), Value: float64(i % 4)}
		if err := db.Append(k, p.At, p.Value); err != nil {
			t.Fatal(err)
		}
		want = append(want, p)
	}
	frozenEnd := want[frozen-1].At
	// Every point the store will ever hold, indexed by second from t0.
	const live = 3000
	all := append([]Point(nil), want...)
	for i := 0; i < live; i++ {
		all = append(all, Point{At: frozenEnd.Add(time.Duration(i+1) * time.Second), Value: float64(i % 7)})
	}

	// Frozen answers, taken while every point is still hot.
	type probe struct{ from, to time.Time }
	probes := []probe{{t0, frozenEnd}, {t0.Add(-time.Minute), t0.Add(37 * time.Second)},
		{t0.Add(37 * time.Second), t0.Add(211 * time.Second)}, {t0.Add(250 * time.Second), frozenEnd}}
	var wantVals, wantMeans []float64
	var wantGrids [][]float64
	for _, p := range probes {
		v, _ := noerr2(db.ValueAt(k, p.to))
		m, _ := noerr2(db.WindowMean(k, p.from, p.to))
		wantVals, wantMeans = append(wantVals, v), append(wantMeans, m)
		wantGrids = append(wantGrids, noerr(db.Grid(k, p.from, p.to, 3*time.Second)))
	}
	wantIntervals := noerr(db.ChangeIntervals(k))
	sameBits := func(a, b []float64) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				return false
			}
		}
		return true
	}
	// stepReads re-asks every frozen question; "" means all answers hold.
	stepReads := func() string {
		for i, p := range probes {
			if v, ok, err := db.ValueAt(k, p.to); err != nil || !ok || math.Float64bits(v) != math.Float64bits(wantVals[i]) {
				return fmt.Sprintf("ValueAt(%v) = (%v, %v, %v), want %v", p.to, v, ok, err, wantVals[i])
			}
			if m, ok, err := db.WindowMean(k, p.from, p.to); err != nil || !ok || math.Float64bits(m) != math.Float64bits(wantMeans[i]) {
				return fmt.Sprintf("WindowMean(%v, %v) = (%v, %v, %v), want %v", p.from, p.to, m, ok, err, wantMeans[i])
			}
			if g, err := db.Grid(k, p.from, p.to, 3*time.Second); err != nil || !sameBits(g, wantGrids[i]) {
				return fmt.Sprintf("Grid(%v, %v) differs (err %v)", p.from, p.to, err)
			}
		}
		ci, err := db.ChangeIntervals(k)
		if err != nil || len(ci) < len(wantIntervals) {
			return fmt.Sprintf("ChangeIntervals: %d intervals, err %v", len(ci), err)
		}
		for i := range wantIntervals {
			if ci[i] != wantIntervals[i] {
				return fmt.Sprintf("ChangeIntervals[%d] = %v, want %v", i, ci[i], wantIntervals[i])
			}
		}
		p, ok, err := db.Last(k)
		if i := int(p.At.Sub(t0) / time.Second); err != nil || !ok || i < frozen-1 || i >= len(all) ||
			!p.At.Equal(all[i].At) || p.Value != all[i].Value {
			return fmt.Sprintf("Last = (%v, %v, %v), not a stored point at or after the frozen end", p, ok, err)
		}
		return ""
	}

	var wg sync.WaitGroup
	writerDone := make(chan struct{})
	errCh := make(chan error, 4)
	report := func(err error) {
		select {
		case errCh <- err:
		default:
		}
	}
	// The writer waits halfway for the first checkpoint, so at least one
	// seal lands while appends remain, however the goroutines are
	// scheduled.
	firstCP := make(chan struct{})
	wg.Add(1)
	go func() { // writer: live appends beyond the frozen window
		defer wg.Done()
		defer close(writerDone)
		for i, p := range all[frozen:] {
			if i == live/2 {
				<-firstCP
			}
			if err := db.Append(k, p.At, p.Value); err != nil {
				report(fmt.Errorf("live append %d: %w", i, err))
				return
			}
		}
	}()
	wg.Add(1)
	go func() { // checkpointer: seals repeatedly while reads and writes run
		defer wg.Done()
		for n := 0; ; n++ {
			err := db.Checkpoint()
			if n == 0 {
				close(firstCP)
			}
			if err != nil {
				report(fmt.Errorf("concurrent checkpoint: %w", err))
				return
			}
			select {
			case <-writerDone:
				return
			default:
			}
		}
	}()
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) { // readers: the frozen window must never change
			defer wg.Done()
			for it := 0; ; it++ {
				select {
				case <-writerDone:
					return
				default:
				}
				got := noerr(db.Query(k, t0, frozenEnd))
				if len(got) != frozen {
					report(fmt.Errorf("reader %d it %d: frozen window has %d points, want %d", r, it, len(got), frozen))
					return
				}
				for i := range got {
					if !got[i].At.Equal(want[i].At) || got[i].Value != want[i].Value {
						report(fmt.Errorf("reader %d it %d: point %d = %v, want %v", r, it, i, got[i], want[i]))
						return
					}
				}
				if pts, _ := walkCursor(db, k, frozenEnd, 7); len(pts) != frozen {
					report(fmt.Errorf("reader %d it %d: cursor walk returned %d points, want %d", r, it, len(pts), frozen))
					return
				}
				if msg := stepReads(); msg != "" {
					report(fmt.Errorf("reader %d it %d: %s", r, it, msg))
					return
				}
			}
		}(r)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatal(err)
	default:
	}
	if db.SealedBlocks() == 0 {
		t.Fatal("concurrent run sealed nothing; the race surface was not exercised")
	}
}

// TestSealCrashMatrix extends the crash matrix across the seal protocol's
// durable boundaries — block data write, block index write, block file
// commit, manifest commit, covered-WAL unlink — × before/after fsync,
// asserting recovery after each cell is exactly the reference state, and
// that the store seals its way out of the crashed state.
func TestSealCrashMatrix(t *testing.T) {
	cells := []struct {
		point  string
		mutate func(t *testing.T, env *matrixEnv)
	}{
		{point: "checkpoint:blocks:data-written",
			mutate: func(t *testing.T, env *matrixEnv) {
				// The index never started: freeze the temp file right after
				// its data section (the write stopped mid-file).
				truncateHalf(t, env.dir, "blocks-*.blk.tmp")
			}},
		{point: "checkpoint:blocks:before-sync",
			mutate: func(t *testing.T, env *matrixEnv) {
				truncateHalf(t, env.dir, "blocks-*.blk.tmp")
			}},
		{point: "checkpoint:blocks:synced"},
		{point: "checkpoint:blocks:committed"},
		{point: "checkpoint:snapshot:before-sync",
			mutate: func(t *testing.T, env *matrixEnv) {
				truncateHalf(t, env.dir, "checkpoint-*.snap.tmp")
			}},
		{point: "checkpoint:snapshot:committed"},
		{point: "checkpoint:manifest:before-sync",
			mutate: func(t *testing.T, env *matrixEnv) {
				truncateHalf(t, env.dir, manifestName+".tmp")
			}},
		{point: "checkpoint:manifest:committed"},
		{point: "checkpoint:delete:before-sync",
			mutate: func(t *testing.T, env *matrixEnv) {
				// The covered-WAL unlinks never became durable.
				for name, raw := range env.preCopies {
					p := filepath.Join(env.dir, name)
					if _, err := os.Stat(p); errors.Is(err, os.ErrNotExist) {
						if err := os.WriteFile(p, raw, 0o644); err != nil {
							t.Fatal(err)
						}
					}
				}
			}},
		{point: "checkpoint:delete:after-sync"},
	}

	for _, cell := range cells {
		cell := cell
		t.Run(cell.point, func(t *testing.T) {
			dir := t.TempDir()
			opts := sealedOpts()
			db, err := openTuned(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			ref := newRefDB()

			// Workload A and a clean checkpoint: the crashed seal below has
			// committed blocks and a committed manifest to fall back to.
			a := sealEntries(400, 0)
			if n, err := db.AppendBatch(a); err != nil || n != len(a) {
				t.Fatalf("stored %d, err %v", n, err)
			}
			refApplyAll(t, ref, a)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if db.SealedBlocks() == 0 {
				t.Fatal("baseline checkpoint sealed nothing; the matrix would not cross seal boundaries")
			}
			b := sealEntries(400, 800)
			if n, err := db.AppendBatch(b); err != nil || n != len(b) {
				t.Fatalf("stored %d, err %v", n, err)
			}
			refApplyAll(t, ref, b)
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}
			assertSameContents(t, contents(db), refContents(ref))
			want := refContents(ref)
			env := &matrixEnv{dir: dir, preCopies: copySegments(t, dir)}

			db.testCrash = func(point string) error {
				if point == cell.point {
					return errCrashPoint
				}
				return nil
			}
			if err := db.Checkpoint(); !errors.Is(err, errCrashPoint) {
				t.Fatalf("%s: checkpoint returned %v, want injected crash", cell.point, err)
			}
			db.testCrash = nil
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			if cell.mutate != nil {
				cell.mutate(t, env)
			}

			re, err := openTuned(dir, opts)
			if err != nil {
				t.Fatalf("reopen after %s: %v", cell.point, err)
			}
			assertSameContents(t, contents(re), want)
			// The store must seal its way out of the crashed state and
			// still recover exactly.
			if err := re.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after %s: %v", cell.point, err)
			}
			if re.SealedBlocks() == 0 {
				t.Fatalf("%s: store lost the ability to seal", cell.point)
			}
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re2, err := openTuned(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			assertSameContents(t, contents(re2), want)
		})
	}
}

// TestSealAbortsOnUnreadableBlockFile damages the block file right after
// its rename, before the manifest that would name it: the checkpoint must
// read the file back, fail, and leave the old manifest authoritative —
// nothing attached, nothing trimmed from memory, and a reopen (which
// reaps the orphan) exact.
func TestSealAbortsOnUnreadableBlockFile(t *testing.T) {
	dir := t.TempDir()
	opts := sealedOpts()
	db, err := openTuned(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefDB()
	a := sealEntries(400, 0)
	if n, err := db.AppendBatch(a); err != nil || n != len(a) {
		t.Fatalf("stored %d, err %v", n, err)
	}
	refApplyAll(t, ref, a)
	want := refContents(ref)

	db.testCrash = func(point string) error {
		if point == "checkpoint:blocks:committed" {
			// One flipped bit inside the index section, which sits just
			// ahead of the footer.
			path := filepath.Join(dir, blockFileName(1))
			raw, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			raw[len(raw)-blockFooterLen-1] ^= 0x01
			return os.WriteFile(path, raw, 0o644)
		}
		return nil
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint committed a block file whose index does not read back")
	}
	db.testCrash = nil
	if db.SealedBlocks() != 0 || db.ColdPointCount() != 0 || db.HotPointCount() != int64(len(a)) {
		t.Fatalf("aborted seal attached state: %d blocks, %d cold points, %d hot points (want 0, 0, %d)",
			db.SealedBlocks(), db.ColdPointCount(), db.HotPointCount(), len(a))
	}
	if len(db.man.Blocks) != 0 {
		t.Fatalf("manifest names blocks %v after an aborted seal", db.man.Blocks)
	}
	assertSameContents(t, contents(db), want)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := openTuned(dir, opts)
	if err != nil {
		t.Fatalf("reopen after aborted seal: %v", err)
	}
	defer re.Close()
	assertSameContents(t, contents(re), want)
	// The store seals its way out: the retry overwrites the orphan.
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if re.SealedBlocks() == 0 {
		t.Fatal("store lost the ability to seal")
	}
	assertSameContents(t, contents(re), want)
}

// TestSealTriggerMaintenance pins the bound the byte trigger puts on hot
// memory, the one the hot-point knob used to promise: every stored point
// counts at least 10 bytes toward the trigger (pointCharge), however few
// its WAL entry takes, and the batch that crosses the trigger
// checkpoints before it returns, so with nothing calling Checkpoint, hot
// points grown since the last checkpoint stay below
// CheckpointAfterBytes / 10 B after every batch — and the checkpoints
// the trigger forces do seal.
func TestSealTriggerMaintenance(t *testing.T) {
	const threshold, batchLen = 4096, 8
	dir := t.TempDir()
	opts := sealedOpts()
	opts.CheckpointAfterBytes = threshold
	db, err := openTuned(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	k := sealKeys()[0]
	const recSize = 10 // the least a stored point counts toward the trigger
	var floor int64    // hot points right after the last checkpoint
	var checkpoints uint64
	for i := 0; i < 1600; i += batchLen {
		batch := make([]Entry, batchLen)
		for j := range batch {
			batch[j] = Entry{Key: k, At: t0.Add(time.Duration(i+j) * time.Second), Value: float64((i + j) % 3)}
		}
		if n, err := db.AppendBatch(batch); err != nil || n != batchLen {
			t.Fatalf("batch at %d: stored %d, err %v", i, n, err)
		}
		hot := db.HotPointCount()
		if cp := db.maintCP.Value(); cp != checkpoints {
			// Enforcement runs after the batch stored, so the checkpoint
			// covered all of it.
			checkpoints, floor = cp, hot
		}
		if grown := hot - floor; grown*recSize >= threshold {
			t.Fatalf("after batch at %d: %d hot points grown since the last checkpoint, want < %d/%d", i, grown, threshold, recSize)
		}
	}
	if cp, errs := db.maintCP.Value(), db.maintErrs.Value(); cp < 2 || errs != 0 {
		t.Fatalf("byte trigger did not drive maintenance: %d checkpoints, %d errors", cp, errs)
	}
	if db.SealedBlocks() == 0 || db.HotPointCount() >= 1600 {
		t.Fatalf("byte-triggered maintenance sealed nothing: %d blocks, %d of 1600 points hot",
			db.SealedBlocks(), db.HotPointCount())
	}
}

// TestSealAccountingAndReap pins the bookkeeping around a seal: manifest
// carries the block list, counters survive reopen, orphan block files
// from a crashed seal are reaped, and a hot tail longer than every
// series never seals.
func TestSealAccountingAndReap(t *testing.T) {
	dir := t.TempDir()
	opts := sealedOpts()
	db, err := openTuned(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	a := sealEntries(600, 0)
	if n, err := db.AppendBatch(a); err != nil || n != len(a) {
		t.Fatalf("stored %d, err %v", n, err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	blocks, coldPts, coldBytes := db.SealedBlocks(), db.ColdPointCount(), db.coldCompressedBytes()
	if blocks == 0 || coldPts == 0 || coldBytes == 0 {
		t.Fatalf("seal accounted nothing: %d blocks, %d points, %d bytes", blocks, coldPts, coldBytes)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// An orphan block file (crashed seal: renamed but never committed to
	// the manifest) must be reaped on open and never loaded.
	orphan := filepath.Join(dir, blockFileName(99))
	if err := os.WriteFile(orphan, []byte("orphan of a crashed seal"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := openTuned(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.SealedBlocks(); got != blocks {
		t.Fatalf("reopen restored %d blocks, want %d", got, blocks)
	}
	if got := re.ColdPointCount(); got != coldPts {
		t.Fatalf("reopen restored %d cold points, want %d", got, coldPts)
	}
	if got := re.coldCompressedBytes(); got != coldBytes {
		t.Fatalf("reopen restored %d cold bytes, want %d", got, coldBytes)
	}
	if _, err := os.Stat(orphan); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("orphan block file survived open (err=%v)", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// A tail longer than every series: the same workload stays unsealed.
	dir2 := t.TempDir()
	off := sealedOpts()
	off.hotTail = len(a)
	db2, err := openTuned(dir2, off)
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	if n, err := db2.AppendBatch(a); err != nil || n != len(a) {
		t.Fatalf("stored %d, err %v", n, err)
	}
	if err := db2.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db2.SealedBlocks() != 0 || db2.ColdPointCount() != 0 {
		t.Fatalf("a tail longer than the series sealed %d blocks / %d points", db2.SealedBlocks(), db2.ColdPointCount())
	}
}

// TestBlockDecodeMetrics pins the decode stage's exposition: every
// block-cache miss adds one spotlake_block_decode_seconds observation and
// its block's points to spotlake_block_decoded_points_total, hits add
// nothing, and a read of an unsealed block, which memory holds, adds one
// observation and its points without touching the cache.
func TestBlockDecodeMetrics(t *testing.T) {
	db, err := openTuned(t.TempDir(), sealedOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.AppendBatch(sealEntries(600, 0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	RegisterMetrics(reg, func() *DB { return db })
	scrape := func() (decodes, points float64) {
		for _, s := range reg.Samples() {
			switch s.Name {
			case "spotlake_block_decode_seconds_count":
				decodes = s.Value
			case "spotlake_block_decoded_points_total":
				points = s.Value
			}
		}
		return decodes, points
	}
	key := sealKeys()[0]
	h, sh := db.locate(key)
	s := sh.find(h, key)
	sealedEnd := time.Unix(0, s.blocks[s.sealed-1].maxAt)
	unsealed := blocksN(s.blocks) - blocksN(s.blocks[:s.sealed])
	for round := 0; round < 2; round++ {
		decodes0, points0 := scrape()
		misses0 := db.bcache.misses.Value()
		if _, err := db.Query(key, t0, sealedEnd); err != nil {
			t.Fatal(err)
		}
		decodes, points := scrape()
		misses := db.bcache.misses.Value() - misses0
		if decodes-decodes0 != float64(misses) {
			t.Fatalf("round %d: %v decode observations for %d cache misses", round, decodes-decodes0, misses)
		}
		// sealedOpts blocks hold 1..8 points.
		if got := points - points0; got < float64(misses) || got > float64(8*misses) {
			t.Fatalf("round %d: %v points decoded from %d missed blocks", round, got, misses)
		}
		if round == 0 && misses == 0 {
			t.Fatal("the first cold query missed no block")
		}
	}
	if len(s.blocks) != s.sealed+1 || len(s.points) != 0 {
		t.Fatalf("checkpoint left %d blocks (%d sealed) and %d raw points; want one unsealed block and no raw point",
			len(s.blocks), s.sealed, len(s.points))
	}
	for round := 0; round < 2; round++ {
		decodes0, points0 := scrape()
		hits0, misses0 := db.bcache.hits.Value(), db.bcache.misses.Value()
		if _, err := db.Query(key, sealedEnd.Add(time.Nanosecond), t0.Add(24*time.Hour)); err != nil {
			t.Fatal(err)
		}
		decodes, points := scrape()
		if db.bcache.hits.Value() != hits0 || db.bcache.misses.Value() != misses0 {
			t.Fatalf("round %d: a read of the unsealed tail went through the block cache", round)
		}
		if decodes-decodes0 != 1 || points-points0 != float64(unsealed) {
			t.Fatalf("round %d: the unsealed block (%d points) read as %v decodes of %v points", round, unsealed, decodes-decodes0, points-points0)
		}
	}
}

// TestSealedAppendOrderingGuard pins the out-of-order check against a
// series with sealed history: the guard reads the series' newest point,
// whichever tier holds it, and must not accept a point that travels back
// in time behind the blocks.
func TestSealedAppendOrderingGuard(t *testing.T) {
	dir := t.TempDir()
	opts := sealedOpts()
	db, err := openTuned(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	k := sealKeys()[0]
	for i := 0; i < 100; i++ {
		if err := db.Append(k, t0.Add(time.Duration(i)*time.Minute), float64(i%2)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.SealedBlocks() == 0 {
		t.Fatal("workload sealed nothing")
	}
	// In order after the hot tail: fine.
	if err := db.Append(k, t0.Add(100*time.Minute), 1); err != nil {
		t.Fatal(err)
	}
	// Before the hot tail (and before sealed history): rejected.
	if err := db.Append(k, t0.Add(-time.Minute), 1); err == nil {
		t.Fatal("append before sealed history succeeded")
	}
	// Equal to the newest timestamp: accepted (equal-timestamp runs are
	// legal), exactly as on a never-sealed store.
	if err := db.Append(k, t0.Add(100*time.Minute), 2); err != nil {
		t.Fatal(err)
	}
}
