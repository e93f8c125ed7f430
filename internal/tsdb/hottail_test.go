package tsdb

// Tests for the unsealed tail held in memory as the checkpoint's own
// encoded blocks: reads through a view captured before a checkpoint
// swaps them, the newest point read without a decode, and the memory the
// tail holds.

import (
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// tiersOf returns how many of k's points are sealed, and how many its
// blocks hold in all: the sealed → encoded boundary and the encoded →
// raw one.
func tiersOf(db *DB, k SeriesKey) (sealedN, blockN, rawN int) {
	h, sh := db.locate(k)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	s := sh.find(h, k)
	return blocksN(s.blocks[:s.sealed]), blocksN(s.blocks), len(s.points)
}

// TestViewSurvivesCheckpointSwap captures a series' view while its points
// span all three tiers — sealed blocks on disk, the last checkpoint's
// blocks in memory, the raw tail — then lets a checkpoint seal part of
// the tail and swap the rest to new blocks in memory under it while
// appends go on. Reads through the captured view, during the swap and
// after it, must answer exactly what the view held: windows whose edges
// fall on either side of each boundary, and cursor walks whose pages
// straddle them. Afterwards the store's own reads must match the
// reference across the new boundaries. Meant for -race; it runs under
// each of blockCacheCases.
func TestViewSurvivesCheckpointSwap(t *testing.T) {
	for _, c := range blockCacheCases {
		t.Run(c.name, func(t *testing.T) { viewSurvivesCheckpointSwap(t, c.bytes) })
	}
}

func viewSurvivesCheckpointSwap(t *testing.T, cacheBytes int64) {
	opts := sealedOpts()
	opts.BlockCacheBytes = cacheBytes
	db, err := openTuned(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	ref := newRefDB()
	apply := func(entries []Entry) {
		t.Helper()
		if n, err := db.AppendBatch(entries); err != nil || n != len(entries) {
			t.Fatalf("stored %d, err %v", n, err)
		}
		refApplyAll(t, ref, entries)
	}
	apply(sealEntries(400, 0))
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	apply(sealEntries(120, 400))

	k := sealKeys()[0]
	sealedN, blockN, rawN := tiersOf(db, k)
	if sealedN == 0 || blockN == sealedN || rawN == 0 {
		t.Fatalf("tiers %d sealed, %d encoded, %d raw points: want all three", sealedN, blockN-sealedN, rawN)
	}
	v := db.view(k)
	want := append([]Point(nil), ref.series[k]...)
	if len(want) != blockN+rawN {
		t.Fatalf("view holds %d points, reference %d", blockN+rawN, len(want))
	}
	// Window edges on both sides of each boundary, and at the ends.
	var edges []int
	for _, b := range []int{0, sealedN, blockN, len(want)} {
		edges = append(edges, max(b-1, 0), min(b, len(want)-1))
	}
	viewReads := func() error {
		for _, i := range edges {
			for _, j := range edges {
				if j < i {
					continue
				}
				from, to := want[i].At, want[j].At
				got, err := db.queryAfter(v, from.UnixNano(), 0, to.UnixNano(), -1)
				if err != nil {
					return err
				}
				if w := ref.query(k, from, to); !samePoints(got, w) {
					return fmt.Errorf("window [%d, %d] read %d points, want %d", i, j, len(got), len(w))
				}
			}
		}
		for _, page := range []int{3, 7} {
			var got []Point
			after, seq := int64(math.MinInt64), 0
			for {
				pts, err := db.queryAfter(v, after, seq, math.MaxInt64, page)
				if err != nil {
					return err
				}
				if len(pts) == 0 {
					break
				}
				for _, p := range pts {
					if ns := p.At.UnixNano(); ns == after {
						seq++
					} else {
						after, seq = ns, 1
					}
				}
				got = append(got, pts...)
			}
			if !samePoints(got, want) {
				return fmt.Errorf("cursor walk in pages of %d read %d points, want %d", page, len(got), len(want))
			}
		}
		return nil
	}
	if err := viewReads(); err != nil {
		t.Fatalf("before the swap: %v", err)
	}

	more := sealEntries(200, 520)
	done := make(chan struct{})
	errCh := make(chan error, 3)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		if err := db.Checkpoint(); err != nil {
			errCh <- err
		}
		close(done)
	}()
	go func() {
		defer wg.Done()
		if _, err := db.AppendBatch(more); err != nil {
			errCh <- err
		}
	}()
	reads := 0
	for running := true; running; reads++ {
		select {
		case <-done:
			running = false
		default:
		}
		if err := viewReads(); err != nil {
			t.Fatalf("read %d, during the swap: %v", reads, err)
		}
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	refApplyAll(t, ref, more)
	if err := viewReads(); err != nil {
		t.Fatalf("after the swap: %v", err)
	}
	if s2, b2, _ := tiersOf(db, k); s2 <= sealedN || b2 < len(want) {
		t.Fatalf("the checkpoint left %d sealed and %d block points, want more than %d and at least %d", s2, b2, sealedN, len(want))
	}

	// The store's own reads across the new boundaries.
	end := t0.Add(1000 * time.Hour)
	for _, k := range sealKeys() {
		all := ref.series[k]
		for _, page := range []int{3, 7} {
			if got, _ := walkCursor(db, k, end, page); !samePoints(got, all) {
				t.Fatalf("%v: cursor walk in pages of %d read %d points, want %d", k, page, len(got), len(all))
			}
		}
		sealedN, blockN, _ := tiersOf(db, k)
		for _, b := range []int{sealedN, blockN} {
			lo, hi := max(b-5, 0), min(b+5, len(all)-1)
			if got := noerr(db.Query(k, all[lo].At, all[hi].At)); !samePoints(got, ref.query(k, all[lo].At, all[hi].At)) {
				t.Fatalf("%v: window around point %d read %v", k, b, got)
			}
		}
	}
}

// TestLastNeverDecodes: after a checkpoint, and after a reopen whose WAL
// tail is empty, every series' newest point lives in a block — sealed or
// held in memory — and none is raw. Last, the AppendIfChanged dedup
// check and the out-of-order guard must still agree with refDB, and they
// read series.last: spotlake_block_decoded_points_total does not move.
func TestLastNeverDecodes(t *testing.T) {
	dir := t.TempDir()
	opts := sealedOpts()
	db, err := openTuned(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefDB()
	entries := sealEntries(600, 0)
	if n, err := db.AppendBatch(entries); err != nil || n != len(entries) {
		t.Fatalf("stored %d, err %v", n, err)
	}
	refApplyAll(t, ref, entries)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	decoded := func() float64 {
		reg := obs.NewRegistry()
		RegisterMetrics(reg, func() *DB { return db })
		for _, s := range reg.Samples() {
			if s.Name == "spotlake_block_decoded_points_total" {
				return s.Value
			}
		}
		t.Fatal("no spotlake_block_decoded_points_total sample")
		return 0
	}
	check := func(stage string) {
		t.Helper()
		if db.ColdPointCount() == 0 {
			t.Fatalf("%s: nothing sealed", stage)
		}
		before := decoded()
		for _, k := range sealKeys() {
			if _, _, raw := tiersOf(db, k); raw != 0 {
				t.Fatalf("%s: %v holds %d raw points, want none", stage, k, raw)
			}
			got, ok := noerr2(db.Last(k))
			want, wok := ref.last(k)
			if ok != wok || !got.At.Equal(want.At) || got.Value != want.Value {
				t.Fatalf("%s: Last(%v) = %v, %v; reference %v, %v", stage, k, got, ok, want, wok)
			}
			at := want.At.Add(time.Minute)
			stored, err := db.AppendIfChanged(k, at, want.Value)
			wstored, werr := ref.appendIfChanged(k, at, want.Value)
			if stored != wstored || (err == nil) != (werr == nil) || stored {
				t.Fatalf("%s: AppendIfChanged(%v, the last value) = %v, %v; reference %v, %v", stage, k, stored, err, wstored, werr)
			}
			early := want.At.Add(-time.Nanosecond)
			if err, werr := db.Append(k, early, 1), ref.append(k, early, 1); err == nil || werr == nil {
				t.Fatalf("%s: Append(%v) before the last point: %v; reference %v", stage, k, err, werr)
			}
		}
		if after := decoded(); after != before {
			t.Fatalf("%s: Last, dedup and the out-of-order guard decoded %v points", stage, after-before)
		}
	}
	check("after Checkpoint")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = openTuned(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.ReplayedWALBytes() != 0 {
		t.Fatalf("reopen replayed %d WAL bytes, want an empty tail", db.ReplayedWALBytes())
	}
	check("after reopen")
	// A changed value still stores, after the last point.
	for _, k := range sealKeys() {
		last, _ := ref.last(k)
		at := last.At.Add(time.Minute)
		stored, err := db.AppendIfChanged(k, at, last.Value+1)
		if wstored, werr := ref.appendIfChanged(k, at, last.Value+1); stored != wstored || err != nil || werr != nil || !stored {
			t.Fatalf("AppendIfChanged(%v, a new value) = %v, %v; reference %v, %v", k, stored, err, wstored, werr)
		}
	}
	assertSameContents(t, contents(db), refContents(ref))
}

// TestLastOfSealedOnlySeries opens a layout no checkpoint writes: a
// MANIFEST that names the sealed block files but no checkpoint, so every
// series' points are all sealed and nothing at open names its newest
// point. Open must take it from the series' last sealed block: Last
// answers it, the out-of-order guard holds behind it and dedup compares
// with it.
func TestLastOfSealedOnlySeries(t *testing.T) {
	dir := t.TempDir()
	opts := sealedOpts()
	db, err := openTuned(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := db.AppendBatch(sealEntries(600, 0)); err != nil || n != 600 {
		t.Fatalf("stored %d, err %v", n, err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := make(map[SeriesKey]Point)
	for _, k := range sealKeys() {
		sealedN, _, _ := tiersOf(db, k)
		want[k] = noerr(db.Query(k, t0, t0.Add(1000*time.Hour)))[sealedN-1]
	}
	m := db.man
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	m.Checkpoint = ""
	if err := writeManifest(dir, m, nil); err != nil {
		t.Fatal(err)
	}
	if db, err = openTuned(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	for _, k := range sealKeys() {
		w := want[k]
		if got, ok := noerr2(db.Last(k)); !ok || !got.At.Equal(w.At) || got.Value != w.Value {
			t.Fatalf("Last(%v) = %v, %v; want the last sealed point %v", k, got, ok, w)
		}
		if err := db.Append(k, w.At.Add(-time.Nanosecond), 1); err == nil {
			t.Fatalf("%v: an append behind the last sealed point was accepted", k)
		}
		if stored := noerr(db.AppendIfChanged(k, w.At.Add(time.Minute), w.Value)); stored {
			t.Fatalf("%v: the last sealed point's value was stored again", k)
		}
	}
}

// checkpointDataBytes returns the size of the data section of the
// store's committed checkpoint file: its blocks' encoded bytes.
func checkpointDataBytes(t *testing.T, db *DB) int64 {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(db.dir, db.man.Checkpoint))
	if err != nil {
		t.Fatal(err)
	}
	return int64(binary.LittleEndian.Uint64(raw[len(raw)-blockFooterLen:])) - int64(blockHeaderLen)
}

// TestHotBytesBound pins spotlake_store_hot_bytes on an archive-shaped
// store — change-only series on a 10-minute grid, some of them long
// enough to seal: right after a checkpoint the unsealed points hold
// exactly the checkpoint file's data section, and after a reopen that
// replays a WAL tail, at most that plus 32 B (two samples' capacity) for
// each point stored since the checkpoint.
func TestHotBytesBound(t *testing.T) {
	dir := t.TempDir()
	opts := tuning{shards: 4, hotTail: 32, blockPoints: 64}
	db, err := openTuned(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	const seriesN = 64
	keys := make([]SeriesKey, seriesN)
	for i := range keys {
		keys[i] = SeriesKey{Dataset: DatasetPlacementScore, Type: fmt.Sprintf("m%d.large", i), Region: "us-east-1", AZ: "us-east-1a"}
	}
	tick := func(n int) int {
		batch := make([]Entry, seriesN)
		for i, k := range keys {
			// Series i changes every (i%8)+1 ticks.
			batch[i] = Entry{Key: k, At: t0.Add(time.Duration(n) * 10 * time.Minute), Value: float64(n / (i%8 + 1) % 10)}
		}
		stored, err := db.AppendBatchIfChanged(batch)
		if err != nil {
			t.Fatal(err)
		}
		return stored
	}
	for n := 0; n < 600; n++ {
		tick(n)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.ColdPointCount() == 0 {
		t.Fatal("nothing sealed")
	}
	data := checkpointDataBytes(t, db)
	if got := db.hotBytes(); got != data {
		t.Fatalf("after Checkpoint: hot bytes %d, want the checkpoint's %d data bytes", got, data)
	}
	since := 0
	for n := 600; n < 700; n++ {
		since += tick(n)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = openTuned(dir, opts); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	reg := obs.NewRegistry()
	RegisterMetrics(reg, func() *DB { return db })
	var gauge float64
	for _, s := range reg.Samples() {
		if s.Name == "spotlake_store_hot_bytes" {
			gauge = s.Value
		}
	}
	if bound := data + 2*sampleBytes*int64(since); since == 0 || gauge < float64(data) || gauge > float64(bound) {
		t.Fatalf("after reopen with %d points since the checkpoint: spotlake_store_hot_bytes %v, want %d..%d", since, gauge, data, bound)
	}
}
