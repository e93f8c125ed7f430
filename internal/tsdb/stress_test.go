package tsdb

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// TestConcurrentStress runs writer goroutines (plain, dedup, and batched
// appends) interleaved with readers exercising Query, Last, ValueAt, Keys
// and the aggregate counters. Run under -race in CI. After the dust
// settles it asserts that no point was lost and every series is strictly
// time-ordered.
func TestConcurrentStress(t *testing.T) {
	const (
		writers        = 8
		readers        = 4
		perWriter      = 400
		seriesPerWrite = 4 // each writer owns this many series
	)
	db, err := openTuned("", tuning{shards: 8})
	if err != nil {
		t.Fatal(err)
	}

	keyFor := func(w, s int) SeriesKey {
		return SeriesKey{
			Dataset: DatasetPlacementScore,
			Type:    fmt.Sprintf("w%d.s%d", w, s),
			Region:  "us-east-1",
			AZ:      "us-east-1a",
		}
	}

	var writerWG, readerWG sync.WaitGroup
	stop := make(chan struct{})

	// Readers hammer the query paths the whole time.
	for r := 0; r < readers; r++ {
		readerWG.Add(1)
		go func(r int) {
			defer readerWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				k := keyFor(i%writers, i%seriesPerWrite)
				db.Query(k, t0, t0.Add(time.Duration(perWriter)*time.Second))
				db.Last(k)
				db.ValueAt(k, t0.Add(time.Duration(i%perWriter)*time.Second))
				if i%64 == 0 {
					db.Keys(KeyFilter{Dataset: DatasetPlacementScore})
					db.SeriesCount()
					db.PointCount()
					db.MaxTime()
				}
			}
		}(r)
	}

	// Writers: each owns disjoint series, so per-series ordering is under
	// its sole control; shards are shared across writers.
	var werr sync.Map
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < perWriter; i++ {
				at := t0.Add(time.Duration(i) * time.Second)
				switch w % 3 {
				case 0: // point-at-a-time appends
					for s := 0; s < seriesPerWrite; s++ {
						if err := db.Append(keyFor(w, s), at, float64(i)); err != nil {
							werr.Store(w, err)
							return
						}
					}
				case 1: // batched appends, one batch per tick
					batch := make([]Entry, 0, seriesPerWrite)
					for s := 0; s < seriesPerWrite; s++ {
						batch = append(batch, Entry{Key: keyFor(w, s), At: at, Value: float64(i)})
					}
					if n, err := db.AppendBatch(batch); err != nil || n != seriesPerWrite {
						werr.Store(w, fmt.Errorf("batch stored %d, err %v", n, err))
						return
					}
				default: // dedup appends with always-changing values
					for s := 0; s < seriesPerWrite; s++ {
						ok, err := db.AppendIfChanged(keyFor(w, s), at, float64(i))
						if err != nil || !ok {
							werr.Store(w, fmt.Errorf("dedup stored=%v, err %v", ok, err))
							return
						}
					}
				}
			}
		}(w)
	}

	// Wait for the writers, then release the readers.
	writerWG.Wait()
	close(stop)
	readerWG.Wait()

	werr.Range(func(k, v any) bool {
		t.Errorf("writer %v: %v", k, v)
		return true
	})
	if t.Failed() {
		return
	}

	// No lost points: every writer stored perWriter points in each series.
	wantPoints := writers * seriesPerWrite * perWriter
	if got := db.PointCount(); got != wantPoints {
		t.Errorf("PointCount = %d, want %d", got, wantPoints)
	}
	if got := db.SeriesCount(); got != writers*seriesPerWrite {
		t.Errorf("SeriesCount = %d, want %d", got, writers*seriesPerWrite)
	}
	if got := db.Generation(); got != uint64(wantPoints) {
		t.Errorf("store generation = %d, want %d", got, wantPoints)
	}
	// Monotonic per-series ordering and full contents.
	for w := 0; w < writers; w++ {
		for s := 0; s < seriesPerWrite; s++ {
			k := keyFor(w, s)
			pts := noerr(db.Query(k, t0, t0.Add(time.Duration(perWriter)*time.Second)))
			if len(pts) != perWriter {
				t.Fatalf("series %v: %d points, want %d", k, len(pts), perWriter)
			}
			for i := 1; i < len(pts); i++ {
				if pts[i].At.Before(pts[i-1].At) {
					t.Fatalf("series %v: points out of order at %d", k, i)
				}
			}
		}
	}
}

// TestConcurrentStressClose verifies that Close during a write storm never
// races the WAL: late appends fail cleanly instead of writing to a closed
// file.
func TestConcurrentStressClose(t *testing.T) {
	db, err := openTuned(t.TempDir(), tuning{shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := SeriesKey{Dataset: "price", Type: fmt.Sprintf("t%d", w), Region: "r", AZ: "a"}
			for i := 0; ; i++ {
				if err := db.Append(k, t0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
					return // store closed
				}
			}
		}(w)
	}
	time.Sleep(5 * time.Millisecond)
	if err := db.Close(); err != nil {
		t.Errorf("Close: %v", err)
	}
	wg.Wait()
	k := SeriesKey{Dataset: "price", Type: "t0", Region: "r", AZ: "a"}
	if err := db.Append(k, t0.Add(time.Hour), 1); err == nil {
		t.Error("append after Close succeeded")
	}
}
