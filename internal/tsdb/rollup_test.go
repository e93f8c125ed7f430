package tsdb

// Differential tests for the rollup tiers: every tier must bitwise-equal
// recomputing its aggregate from the raw points, across the hot/cold
// boundary, across reopen, and after a crash anywhere in the rollup
// snapshot's write.

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// rollupOpts seals aggressively like sealedOpts but with block sizes
// that put several blocks per series so builds cross block boundaries.
func rollupOpts() Options {
	return Options{Shards: 4, RotateBytes: 1 << 16, HotTailPoints: 4, BlockPoints: 16, BlockCacheBytes: 1 << 14}
}

// rollupEntries builds a multi-day workload over a few series: points
// every 10 simulated minutes with drifting values, so 1h buckets hold
// ~6 points and 1d buckets ~144.
func rollupEntries(n, start int) []Entry {
	keys := sealKeys()
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		step := start + i/len(keys)
		out = append(out, Entry{
			Key:   keys[i%len(keys)],
			At:    t0.Add(time.Duration(step) * 10 * time.Minute),
			Value: float64((i*7)%23) + float64(i%5)/8,
		})
	}
	return out
}

// coldLastAt reads a series' cold high-water mark (white-box: the build
// only finalizes buckets strictly below bucketStart(lastAt, res)).
func coldLastAt(db *DB, k SeriesKey) (time.Time, bool) {
	sh := &db.shards[db.shardIndex(k)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	s := sh.series[k]
	if s == nil || s.cold == nil || s.cold.n == 0 {
		return time.Time{}, false
	}
	return time.Unix(0, s.cold.lastAt).UTC(), true
}

// recomputeRollup aggregates raw points into res buckets, keeping only
// final buckets (start < finalEnd), accumulating in time order exactly
// like the builder so mean is bitwise comparable.
func recomputeRollup(raw []Point, res time.Duration, agg Agg, finalEnd int64) []Point {
	var out []Point
	var start int64
	var minV, maxV, sum, last float64
	n := 0
	flush := func() {
		if n == 0 {
			return
		}
		var v float64
		switch agg {
		case AggMin:
			v = minV
		case AggMax:
			v = maxV
		case AggMean:
			v = sum / float64(n)
		case AggLast:
			v = last
		}
		out = append(out, Point{At: time.Unix(0, start).UTC(), Value: v})
		n = 0
	}
	for _, p := range raw {
		at := p.At.UnixNano()
		bs := bucketStart(at, res)
		if bs >= finalEnd {
			break
		}
		if n > 0 && bs != start {
			flush()
		}
		if n == 0 {
			start, minV, maxV, sum = bs, p.Value, p.Value, 0
		}
		if p.Value < minV {
			minV = p.Value
		}
		if p.Value > maxV {
			maxV = p.Value
		}
		sum += p.Value
		last = p.Value
		n++
	}
	flush()
	return out
}

// assertRollupsMatch recomputes every (series, res, agg) rollup from the
// store's raw points and compares it bitwise against the rollup store.
func assertRollupsMatch(t *testing.T, db *DB) {
	t.Helper()
	ref := make(map[SeriesKey][]Point)
	for _, k := range db.Keys(KeyFilter{}) {
		ref[k] = noerr(db.Query(k, time.Time{}, t0.Add(100000*time.Hour)))
	}
	assertRollupsMatchRef(t, db, ref)
}

// assertRollupsMatchRef is assertRollupsMatch against an external raw
// reference — needed once retention has dropped raw history the rollups
// were (correctly) built from.
func assertRollupsMatchRef(t *testing.T, db *DB, ref map[SeriesKey][]Point) {
	t.Helper()
	end := t0.Add(100000 * time.Hour)
	if db.rollupBkts.Load() == 0 {
		t.Fatal("rollup tiers are empty; the differential would pass vacuously")
	}
	for _, k := range db.Keys(KeyFilter{}) {
		raw := ref[k]
		lastCold, sealed := coldLastAt(db, k)
		for _, res := range rollupResolutions {
			var finalEnd int64
			if sealed {
				finalEnd = bucketStart(lastCold.UnixNano(), res)
			}
			for _, agg := range rollupAggs {
				tier, ok := db.Tier(res, agg)
				if !ok {
					t.Fatalf("store has no %s/%s tier", ResName(res), agg)
				}
				got := noerr(tier.Query(k, time.Time{}, end))
				want := recomputeRollup(raw, res, agg, finalEnd)
				if !sealed {
					want = nil
				}
				if len(got) != len(want) {
					t.Fatalf("%v %s/%s: %d rollup points, want %d", k, ResName(res), agg, len(got), len(want))
				}
				for i := range got {
					if !got[i].At.Equal(want[i].At) || got[i].Value != want[i].Value {
						t.Fatalf("%v %s/%s bucket %d: got (%v, %v), want (%v, %v)",
							k, ResName(res), agg, i, got[i].At, got[i].Value, want[i].At, want[i].Value)
					}
				}
			}
		}
	}
}

func TestRollupDifferential(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithOptions(dir, rollupOpts())
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1: ~3 days of data, sealed once.
	a := rollupEntries(1800, 0)
	if n, err := db.AppendBatch(a); err != nil || n != len(a) {
		t.Fatalf("stored %d, err %v", n, err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	assertRollupsMatch(t, db)

	// Phase 2: incremental extension — the build must resume from the
	// high-water mark, not recompute (recomputation would still match,
	// but duplicates would not).
	b := rollupEntries(1200, 450)
	if n, err := db.AppendBatch(b); err != nil || n != len(b) {
		t.Fatalf("stored %d, err %v", n, err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	assertRollupsMatch(t, db)

	// Phase 3: reopen. The tiers come back from the committed rollup
	// snapshot alone, and everything must still match.
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db, err = OpenWithOptions(dir, rollupOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	assertRollupsMatch(t, db)

	// A second checkpoint with no new raw data must not grow rollups.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	assertRollupsMatch(t, db)
}

// TestRollupCrashMidBuild crashes the checkpoint at every boundary of the
// rollup snapshot's write — temp file written, synced, renamed — and at
// the manifest commit that would adopt it. Blocks and buckets commit
// together or not at all: the reopened store holds the pre-crash raw
// contents, tiers that match them bitwise (the previous snapshot's, or
// the new one's once the manifest committed), and seals its way forward.
func TestRollupCrashMidBuild(t *testing.T) {
	for _, point := range []string{
		"checkpoint:rollups:before-sync",
		"checkpoint:rollups:synced",
		"checkpoint:rollups:committed",
		"checkpoint:manifest:synced",
		"checkpoint:manifest:committed",
	} {
		t.Run(point, func(t *testing.T) {
			dir := t.TempDir()
			opts := rollupOpts()
			db, err := OpenWithOptions(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			a := rollupEntries(1800, 0)
			if n, err := db.AppendBatch(a); err != nil || n != len(a) {
				t.Fatalf("stored %d, err %v", n, err)
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			b := rollupEntries(1200, 450)
			if n, err := db.AppendBatch(b); err != nil || n != len(b) {
				t.Fatalf("stored %d, err %v", n, err)
			}
			want := contents(db)
			db.testCrash = func(p string) error {
				if p == point {
					return errCrashPoint
				}
				return nil
			}
			if err := db.Checkpoint(); !errors.Is(err, errCrashPoint) {
				t.Fatalf("checkpoint returned %v, want injected crash", err)
			}
			db.testCrash = nil
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := OpenWithOptions(dir, opts)
			if err != nil {
				t.Fatalf("reopen after %s: %v", point, err)
			}
			assertSameContents(t, contents(re), want)
			assertRollupsMatch(t, re)
			if err := re.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after %s: %v", point, err)
			}
			assertRollupsMatch(t, re)
			if err := re.Close(); err != nil {
				t.Fatal(err)
			}
			re2, err := OpenWithOptions(dir, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re2.Close()
			assertSameContents(t, contents(re2), want)
			assertRollupsMatch(t, re2)
		})
	}
}

// TestRollupScanRatio is the acceptance bound: a 90-day window at 1h
// resolution must scan at least 50x fewer points than raw.
func TestRollupScanRatio(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 2, RotateBytes: 4 << 20, HotTailPoints: 4, BlockPoints: 512, BlockCacheBytes: 1 << 20}
	db, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	k := SeriesKey{Dataset: DatasetPrice, Type: "m5.xlarge", Region: "us-east-1", AZ: "us-east-1a"}
	const days = 90
	const perDay = 24 * 60 // one point per minute
	batch := make([]Entry, 0, perDay)
	for d := 0; d < days; d++ {
		batch = batch[:0]
		for i := 0; i < perDay; i++ {
			at := t0.Add(time.Duration(d*perDay+i) * time.Minute)
			batch = append(batch, Entry{Key: k, At: at, Value: float64((d*perDay + i) % 97)})
		}
		if n, err := db.AppendBatch(batch); err != nil || n != len(batch) {
			t.Fatalf("day %d: stored %d, err %v", d, n, err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	from, to := t0, t0.Add(days*24*time.Hour)
	s0 := db.ScannedPoints()
	raw := noerr(db.Query(k, from, to))
	rawScanned := db.ScannedPoints() - s0

	tier, ok := db.Tier(Res1h, AggMean)
	if !ok {
		t.Fatal("sealing store has no 1h tier")
	}
	r0 := db.ScannedPoints()
	hourly := noerr(tier.Query(k, from, to))
	rollScanned := db.ScannedPoints() - r0

	if len(raw) != days*perDay {
		t.Fatalf("raw window holds %d points, want %d", len(raw), days*perDay)
	}
	if len(hourly) == 0 || rollScanned == 0 {
		t.Fatalf("1h tier served nothing (points %d, scanned %d)", len(hourly), rollScanned)
	}
	if rawScanned < 50*rollScanned {
		t.Fatalf("raw scanned %d points vs 1h %d: ratio %.1fx, want >= 50x",
			rawScanned, rollScanned, float64(rawScanned)/float64(rollScanned))
	}
}

// rollupCodecRecords builds seriesN records of bucketsN buckets per
// resolution, with gaps and negative starts so varint deltas and signs
// both get exercised.
func rollupCodecRecords(seriesN, bucketsN int) []rollupRecord {
	recs := make([]rollupRecord, seriesN)
	for i := range recs {
		k := SeriesKey{Dataset: DatasetPrice, Type: fmt.Sprintf("m%d.large", i), Region: "us-east-1", AZ: "us-east-1a"}
		recs[i] = rollupRecord{key: k, canon: k.String()}
		for r, res := range rollupResolutions {
			start := int64(res) * int64(i*7-3)
			for j := 0; j < bucketsN; j++ {
				start += int64(res) * int64(1+j%3*50)
				recs[i].old[r] = append(recs[i].old[r], bucket{start: start, v: [len(rollupAggs)]float64{float64(j), float64(j) + 9, float64(j) + 0.3, -float64(i)}})
			}
		}
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].canon < recs[j].canon })
	return recs
}

// TestRollupSnapshotRoundTrip: records decode to what was encoded, a
// seal's add half lands after the committed buckets, and every
// single-byte flip of the encoding is refused.
func TestRollupSnapshotRoundTrip(t *testing.T) {
	recs := rollupCodecRecords(3, 5)
	split := recs[1]
	for r := range split.old {
		split.old[r], split.add[r] = split.old[r][:2], split.old[r][2:]
	}
	var whole, halves bytes.Buffer
	if err := encodeRollups(&whole, recs); err != nil {
		t.Fatal(err)
	}
	if err := encodeRollups(&halves, []rollupRecord{recs[0], split, recs[2]}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(whole.Bytes(), halves.Bytes()) {
		t.Fatal("old+add encodes differently from the same buckets committed")
	}
	got, err := decodeRollups(bytes.NewReader(whole.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(recs) {
		t.Fatalf("decoded %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if got[i].key != recs[i].key || !reflect.DeepEqual(got[i].old, recs[i].old) {
			t.Fatalf("record %d: got %v %v, want %v %v", i, got[i].key, got[i].old, recs[i].key, recs[i].old)
		}
	}
	raw := whole.Bytes()
	for i := range raw {
		flipped := bytes.Clone(raw)
		flipped[i] ^= 0x01
		if _, err := decodeRollups(bytes.NewReader(flipped)); err == nil {
			t.Fatalf("a flipped bit in byte %d of %d decoded cleanly", i, len(raw))
		}
	}
	for n := range len(raw) {
		if _, err := decodeRollups(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("a %d-byte prefix of a %d-byte snapshot decoded cleanly", n, len(raw))
		}
	}
}

// TestCorruptRollupSnapshotFailsOpen: the rollup snapshot is the only
// copy of buckets retention may have dropped the raw points of, so a
// damaged one refuses the open instead of serving tiers with holes.
func TestCorruptRollupSnapshotFailsOpen(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithOptions(dir, rollupOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AppendBatch(rollupEntries(1800, 0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	name := db.man.Rollups
	if name == "" || db.rollupBytes.Load() == 0 {
		t.Fatalf("a sealing checkpoint committed no rollup snapshot (%q, %d bytes)", name, db.rollupBytes.Load())
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if re, err := OpenWithOptions(dir, rollupOpts()); err == nil {
		re.Close()
		t.Fatal("open served a store over a corrupt rollup snapshot")
	} else if !strings.Contains(err.Error(), "loading rollup snapshot") {
		t.Fatalf("open failed with %v, want the rollup snapshot load error", err)
	}
}

// TestCheckpointAndRollupMetrics: spotlake_checkpoint_seconds observes
// each committed checkpoint (a crashed one is not observed), and the two
// rollup gauges report the buckets every tier serves and the committed
// snapshot's size on disk — after the build and again after a reopen
// loads them back.
func TestCheckpointAndRollupMetrics(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithOptions(dir, rollupOpts())
	if err != nil {
		t.Fatal(err)
	}
	scrape := func(db *DB) map[string]float64 {
		reg := obs.NewRegistry()
		RegisterMetrics(reg, func() *DB { return db })
		out := make(map[string]float64)
		for _, s := range reg.Samples() {
			out[s.Name] = s.Value
		}
		return out
	}
	check := func(db *DB, checkpoints float64) {
		t.Helper()
		m := scrape(db)
		if got := m["spotlake_checkpoint_seconds_count"]; got != checkpoints {
			t.Errorf("spotlake_checkpoint_seconds_count = %v, want %v", got, checkpoints)
		}
		served := 0
		end := t0.Add(100000 * time.Hour)
		for _, res := range rollupResolutions {
			tier, _ := db.Tier(res, AggLast)
			for _, k := range db.Keys(KeyFilter{}) {
				served += len(noerr(tier.Query(k, time.Time{}, end)))
			}
		}
		if served == 0 || m["spotlake_rollup_buckets"] != float64(served) {
			t.Errorf("spotlake_rollup_buckets = %v, the tiers serve %d buckets", m["spotlake_rollup_buckets"], served)
		}
		st, err := os.Stat(filepath.Join(dir, db.man.Rollups))
		if err != nil {
			t.Fatal(err)
		}
		if m["spotlake_rollup_snapshot_bytes"] != float64(st.Size()) {
			t.Errorf("spotlake_rollup_snapshot_bytes = %v, %s holds %d", m["spotlake_rollup_snapshot_bytes"], db.man.Rollups, st.Size())
		}
	}
	if _, err := db.AppendBatch(rollupEntries(1800, 0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check(db, 1)
	if _, err := db.AppendBatch(rollupEntries(1200, 450)); err != nil {
		t.Fatal(err)
	}
	db.testCrash = func(p string) error {
		if p == "checkpoint:manifest:before-sync" {
			return errCrashPoint
		}
		return nil
	}
	if err := db.Checkpoint(); !errors.Is(err, errCrashPoint) {
		t.Fatalf("checkpoint returned %v, want injected crash", err)
	}
	db.testCrash = nil
	check(db, 1)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check(db, 2)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWithOptions(dir, rollupOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, 0)
}

// TestRollupReadsDuringSeals reads every tier while a writer appends and
// checkpoints: a bucket, once served, never changes, so every answer a
// reader saw must be a prefix of the final tier, bit for bit. Run under
// -race it also checks that seals append to the tiers readers capture
// without a data race.
func TestRollupReadsDuringSeals(t *testing.T) {
	db, err := OpenWithOptions(t.TempDir(), rollupOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.AppendBatch(rollupEntries(600, 0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	end := t0.Add(100000 * time.Hour)
	type seen struct {
		k   SeriesKey
		r   int
		pts []Point
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	observed := make([][]seen, 2)
	for g := range observed {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				for _, k := range sealKeys() {
					for r, res := range rollupResolutions {
						tier, _ := db.Tier(res, AggMean)
						pts, err := tier.Query(k, time.Time{}, end)
						if err != nil {
							t.Error(err)
							return
						}
						if n, _ := tier.CountAfter(k, time.Time{}, 0, end); n < len(pts) {
							t.Errorf("%v %s: CountAfter %d after Query served %d", k, ResName(res), n, len(pts))
							return
						}
						observed[g] = append(observed[g], seen{k, r, pts})
					}
				}
			}
		}(g)
	}
	for round := 1; round <= 6; round++ {
		if _, err := db.AppendBatch(rollupEntries(300, 150*round)); err != nil {
			t.Error(err)
			break
		}
		if err := db.Checkpoint(); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	final := make(map[SeriesKey][len(rollupResolutions)][]Point)
	for _, k := range sealKeys() {
		var tiers [len(rollupResolutions)][]Point
		for r, res := range rollupResolutions {
			tier, _ := db.Tier(res, AggMean)
			tiers[r] = noerr(tier.Query(k, time.Time{}, end))
		}
		final[k] = tiers
	}
	reads := 0
	for _, obs := range observed {
		for _, o := range obs {
			want := final[o.k][o.r]
			if len(o.pts) > len(want) {
				t.Fatalf("%v %s: a reader saw %d buckets, the final tier holds %d", o.k, ResName(rollupResolutions[o.r]), len(o.pts), len(want))
			}
			for i, p := range o.pts {
				if !p.At.Equal(want[i].At) || math.Float64bits(p.Value) != math.Float64bits(want[i].Value) {
					t.Fatalf("%v %s bucket %d changed after it was served: %v then %v", o.k, ResName(rollupResolutions[o.r]), i, p, want[i])
				}
			}
			reads++
		}
	}
	if reads == 0 {
		t.Fatal("readers made no reads")
	}
	assertRollupsMatch(t, db)
}
