package main

import (
	"bytes"
	"log"
	"os"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/tsdb"
)

// checkpointsCommitted reads the store's committed-checkpoint count from
// its metrics registry.
func checkpointsCommitted(t *testing.T, db *tsdb.DB) float64 {
	t.Helper()
	reg := obs.NewRegistry()
	tsdb.RegisterMetrics(reg, func() *tsdb.DB { return db })
	for _, s := range reg.Samples() {
		if s.Name == "spotlake_checkpoint_seconds_count" {
			return s.Value
		}
	}
	t.Fatal("no metric spotlake_checkpoint_seconds_count")
	return 0
}

// TestPublishCheckpoints drives the live archive's publication cadence
// on a simulated clock that also appends a point every ten minutes: a
// durable store commits one checkpoint per interval, and a memory-only
// store or an interval of 0 commits none. No case logs a failed
// checkpoint: a memory-only store must not be asked for one.
func TestPublishCheckpoints(t *testing.T) {
	var logs bytes.Buffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	const span = 5 * time.Hour
	key := tsdb.SeriesKey{Dataset: tsdb.DatasetPrice, Type: "m5.large", Region: "us-east-1", AZ: "us-east-1a"}
	for _, tc := range []struct {
		name     string
		durable  bool
		interval time.Duration
		want     uint64
	}{
		{"durable", true, time.Hour, 5},
		{"memory-only", false, time.Hour, 0},
		{"interval 0", true, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := ""
			if tc.durable {
				dir = t.TempDir()
			}
			db, err := tsdb.Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()
			clk := simclock.NewAtEpoch()
			n := 0
			clk.SchedulePeriodic(10*time.Minute, func(now time.Time) bool {
				n++
				if err := db.Append(key, now, float64(n)); err != nil {
					t.Error(err)
				}
				return true
			})
			publishCheckpoints(clk, db, tc.interval)
			clk.RunFor(span)
			if got := checkpointsCommitted(t, db); got != float64(tc.want) {
				t.Errorf("%v checkpoints committed over %v, want %d", got, span, tc.want)
			}
			if got := db.ReplicationPosition(); got != tc.want {
				t.Errorf("replication position %d after %v, want %d", got, span, tc.want)
			}
			if logs.Len() != 0 {
				t.Errorf("logged %q", logs.String())
			}
		})
	}
}
