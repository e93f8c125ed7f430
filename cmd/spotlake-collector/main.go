// Command spotlake-collector runs a batch collection: it simulates the
// cloud for the requested number of days, collecting all three spot
// datasets into a persistent archive directory, then prints collection
// statistics and exits. The directory can then be served by
// spotlake-server, analyzed offline, or resumed: re-running against a
// non-empty directory fast-forwards the simulation past the recovered
// data and appends -days more on top (an interrupted run's replayed WAL
// tail counts toward -checkpoint-bytes, so the first over-threshold tick
// of the resumed run folds it into a checkpoint).
//
// The -data directory is the only persistence, in the store's one layout
// (MANIFEST, the WAL's wal-<seq>.log segments, checkpoint
// snapshot, sealed block files — see internal/tsdb/README.md); a
// directory in any other layout is refused, untouched. The store flags
// (-checkpoint-bytes, -block-cache-bytes) are tsdb.BindFlags', shared
// with spotlake-server. Each checkpoint rotates the WAL onto a new
// segment and deletes the segments it covers.
//
// The store maintains itself: the tick whose append grows the WAL
// -checkpoint-bytes past the last checkpoint runs a checkpoint before it
// returns, so the replay tail — and with it the WAL on disk and
// hot-memory growth — is below the threshold whenever a tick is done.
// That byte trigger and one checkpoint at the end are all a batch run
// takes: collection itself never checkpoints.
//
// Usage:
//
//	spotlake-collector -data DIR [-days 30] [-frac 0.12] [-interval 10m]
//	                   [-seed 22] [-exact] [-checkpoint-bytes 67108864]
//	                   [-block-cache-bytes N]
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/catalog"
	"repro/internal/cloudsim"
	"repro/internal/collector"
	"repro/internal/obs"
	"repro/internal/simclock"
	"repro/internal/tsdb"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("spotlake-collector: ")
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

// run is main's body behind an error return, so the deferred db.Close —
// the flush + fsync of the buffered WAL tail — runs on every
// exit after the store opens; log.Fatal would skip it.
func run() error {
	var (
		dataDir  = flag.String("data", "", "archive data directory (required; the only persistence)")
		days     = flag.Int("days", 30, "simulated days to collect")
		frac     = flag.Float64("frac", 0.12, "catalog fraction (1.0 = all 547 types)")
		interval = flag.Duration("interval", 10*time.Minute, "collection cadence (paper: 10m)")
		seed     = flag.Uint64("seed", 22, "simulation seed")
		exact    = flag.Bool("exact", false, "use the exact branch-and-bound query packer instead of FFD")
	)
	storeOpts := tsdb.BindFlags(flag.CommandLine)
	flag.Parse()
	if *dataDir == "" {
		return errors.New("-data DIR is required")
	}

	var cat *catalog.Catalog
	if *frac >= 1 {
		cat = catalog.Standard()
	} else {
		cat = catalog.Sample(*frac)
	}
	clk := simclock.NewAtEpoch()
	cloud := cloudsim.New(cat, clk, *seed, cloudsim.DefaultParams())
	db, err := tsdb.OpenWithOptions(*dataDir, *storeOpts)
	if err != nil {
		return fmt.Errorf("opening archive store: %w", err)
	}
	defer db.Close()

	// The batch collector carries the same metrics registry the server
	// does (default-on, no flag): the store's counters register once here,
	// and the end of the run prints them as machine-greppable rows.
	reg := obs.NewRegistry()
	tsdb.RegisterMetrics(reg, func() *tsdb.DB { return db })

	// Resume support: recovered data (checkpoint + WAL tail) sits in
	// simulated time after the clock's epoch start; fast-forward so the
	// new run appends after it instead of failing out-of-order. The same
	// catch-up spotlake-server does. Land one tick PAST the last
	// recovered timestamp, not on it: the collector's first action is an
	// immediate collection at clk.Now(), and the store accepts same-
	// timestamp appends (only strictly-earlier ones are out of order), so
	// resuming exactly onto MaxTime would write duplicate-timestamp
	// points next to the recovered ones.
	if maxAt, ok := db.MaxTime(); ok && !maxAt.Before(clk.Now()) {
		log.Printf("resuming archive with %d points through %s", db.PointCount(), maxAt.Format(time.RFC3339))
		clk.RunFor(maxAt.Add(*interval).Sub(clk.Now()))
	}

	cfg := collector.DefaultConfig()
	cfg.ScoreInterval = *interval
	cfg.AdvisorInterval = *interval
	cfg.PriceInterval = *interval
	cfg.ExactPacking = *exact
	col, err := collector.New(cloud, db, cfg)
	if err != nil {
		return fmt.Errorf("building collector: %w", err)
	}
	log.Printf("plan: %d optimized queries (naive %d) over %d accounts",
		len(col.Plan().Queries), col.Plan().NaiveQueries, col.Accounts())

	start := time.Now()
	if err := col.Run(time.Duration(*days) * 24 * time.Hour); err != nil {
		return fmt.Errorf("collection: %w", err)
	}
	if err := db.Flush(); err != nil {
		return fmt.Errorf("flush: %w", err)
	}
	// A final checkpoint folds the run's WAL tail into a snapshot, so the
	// next open (collector resume or spotlake-server) bulk-loads instead
	// of replaying the whole collection's log.
	if err := db.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	st := col.Stats()
	log.Printf("collected %d simulated days in %v", *days, time.Since(start).Round(time.Millisecond))
	log.Printf("score ticks %d, advisor ticks %d, price ticks %d", st.ScoreTicks, st.AdvisorTicks, st.PriceTicks)
	log.Printf("queries issued %d (errors %d), points stored %d", st.QueriesIssued, st.QueryErrors, st.PointsStored)
	log.Printf("archive: %d series, %d points in %s", db.SeriesCount(), db.PointCount(), *dataDir)
	// One `metric:` row per registry sample on stdout, unprefixed and
	// greppable: name=value, histogram buckets left out.
	for _, sm := range reg.Samples() {
		if strings.HasSuffix(sm.Name, "_bucket") {
			continue
		}
		fmt.Printf("metric: name=%s value=%g\n", sm.Name, sm.Value)
	}
	// The success path reports Close's own flush + fsync; the deferred
	// second Close is then a no-op.
	if err := db.Close(); err != nil {
		return fmt.Errorf("closing archive store: %w", err)
	}
	return nil
}
