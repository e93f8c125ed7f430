package archive

import (
	"fmt"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/tsdb"
)

// TestLatestServedWithoutDecode: after a checkpoint, and after a reopen
// whose WAL tail is empty, every series' newest point lives in a block —
// sealed on disk or one of the checkpoint's blocks held in memory — yet
// /api/v1/latest answers every series' last stored point without
// decoding one: spotlake_block_decoded_points_total does not move.
func TestLatestServedWithoutDecode(t *testing.T) {
	dir := t.TempDir()
	db, err := tsdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const seriesN = 12
	keys := make([]tsdb.SeriesKey, seriesN)
	for i := range keys {
		keys[i] = tsdb.SeriesKey{Dataset: "sps", Type: fmt.Sprintf("m%d.large", i), Region: "us-east-1", AZ: "us-east-1a"}
	}
	// Change-only ticks, as the collector stores them; want is each
	// series' last stored point.
	want := make(map[tsdb.SeriesKey]tsdb.Point)
	at := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	// A quarter of the series change every tick: 1000 points, past the
	// 256 + 512 that seal one block.
	for n := 0; n < 1000; n++ {
		batch := make([]tsdb.Entry, seriesN)
		for i, k := range keys {
			batch[i] = tsdb.Entry{Key: k, At: at, Value: float64(n / (i%4 + 1) % 6)}
			if p, ok := want[k]; !ok || p.Value != batch[i].Value {
				want[k] = tsdb.Point{At: at, Value: batch[i].Value}
			}
		}
		if _, err := db.AppendBatchIfChanged(batch); err != nil {
			t.Fatal(err)
		}
		at = at.Add(10 * time.Minute)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.ColdPointCount() == 0 {
		t.Fatal("nothing sealed")
	}
	check := func(stage string) {
		t.Helper()
		s := NewService(db, catalog.Compact(1))
		s.AllowDatasets("sps")
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		before := metric(t, s.Registry(), "spotlake_block_decoded_points_total")
		var latest []LatestEntry
		getJSON(t, srv.URL+"/api/v1/latest?dataset=sps", &latest)
		if len(latest) != seriesN {
			t.Fatalf("%s: /api/v1/latest answered %d series, want %d", stage, len(latest), seriesN)
		}
		for _, e := range latest {
			if w := want[e.Key]; !e.At.Equal(w.At) || e.Value != w.Value {
				t.Fatalf("%s: latest %v = %v at %v, want %v at %v", stage, e.Key, e.Value, e.At, w.Value, w.At)
			}
		}
		if after := metric(t, s.Registry(), "spotlake_block_decoded_points_total"); after != before {
			t.Fatalf("%s: /api/v1/latest decoded %v points", stage, after-before)
		}
	}
	check("after Checkpoint")
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if db, err = tsdb.Open(dir); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if db.ReplayedWALBytes() != 0 {
		t.Fatalf("reopen replayed %d WAL bytes, want an empty tail", db.ReplayedWALBytes())
	}
	check("after reopen")
}
