// Command spotlake-server runs the full SpotLake service against a
// simulated cloud: it bootstraps an archive by fast-forwarding the
// simulation, then serves the web API while collection continues in the
// background (simulated time advances one collection tick per wall-clock
// interval, like a live deployment).
//
// The -data directory is the only persistence: without it the archive
// lives in memory and a restart bootstraps again. It holds one layout
// (MANIFEST, the WAL's wal-<seq>.log segments, checkpoint
// snapshot, sealed block files — see internal/tsdb/README.md); a
// directory in any other layout is refused at startup, untouched. The
// store flags (-checkpoint-bytes … -block-cache-bytes) are
// tsdb.BindFlags', shared with spotlake-collector. With -data set the
// store maintains itself: its internal daemon (polling every
// -maintenance-interval) checkpoints whenever the WAL grows
// -checkpoint-bytes past the last checkpoint — the one size trigger,
// enforced on the append path too, so it covers the bootstrap writer,
// not just collection ticks — and the server
// additionally checkpoints after bootstrap and every
// -checkpoint-interval of simulated time. Restarts bulk-load the
// checkpoint and replay only the segments written since, which each
// checkpoint rotates and reclaims.
//
// The HTTP front is hardened for public traffic: the listener runs with
// read/write/idle timeouts (a slowloris client cannot hold a goroutine
// forever), and the admission layer throttles per-client request rates
// (429 + Retry-After), bounds concurrent in-flight requests, and sheds
// the excess with 503 once a bounded queue wait expires. SIGINT/SIGTERM
// drain in-flight requests before the store closes.
//
// Observability is default-on, no flags: GET /api/v1/metrics serves the
// process's metrics registry in Prometheus text exposition format (the
// same counters /api/v1/meta reports as JSON), GET /healthz answers
// liveness, and GET /readyz answers readiness (on a follower: the
// applied position is within -max-staleness). All four observability
// endpoints bypass admission control and the staleness gate.
//
// With -follow=<primary-url> the server runs as a read replica instead:
// no collector, no bootstrap, no writes. A replication puller lists the
// primary's committed checkpoint artifacts every -poll-interval, ships
// the delta into -data, commits the primary's MANIFEST by atomic rename
// (a crash mid-pull is just a stale replica), and reopens the store
// read-only. All read endpoints are served locally; past -max-staleness
// without a confirmed sync they answer 503 stale_replica (meta stays
// reachable and reports role, applied checkpoint, and seconds behind).
//
// Usage:
//
//	spotlake-server [-addr :8080] [-bootstrap-days 14] [-frac 0.12]
//	                [-data DIR] [-tick 2s] [-seed 22]
//	                [-checkpoint-interval 24h] [-checkpoint-bytes 67108864]
//	                [-maintenance-interval 1s]
//	                [-max-in-flight 256] [-queue-wait 100ms]
//	                [-rate-limit 50] [-rate-burst 100] [-drain-timeout 15s]
//	spotlake-server -follow http://primary:8080 -data DIR [-addr :8081]
//	                [-poll-interval 2s] [-max-staleness 30s]
package main

import (
	"context"
	"flag"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/azuresim"
	"repro/internal/catalog"
	"repro/internal/cloudsim"
	"repro/internal/collector"
	"repro/internal/gcpsim"
	"repro/internal/multicloud"
	"repro/internal/simclock"
	"repro/internal/tsdb"
)

func main() {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix("spotlake-server: ")

	var (
		addr       = flag.String("addr", ":8080", "HTTP listen address")
		bootstrap  = flag.Int("bootstrap-days", 14, "simulated days to collect before serving")
		frac       = flag.Float64("frac", 0.12, "catalog fraction (1.0 = all 547 types)")
		dataDir    = flag.String("data", "", "archive data directory, the only persistence (empty = memory only: a restart bootstraps again)")
		tick       = flag.Duration("tick", 2*time.Second, "wall-clock interval per live collection tick")
		seed       = flag.Uint64("seed", 22, "simulation seed")
		multiCloud = flag.Bool("multicloud", false, "also collect Azure and GCP spot datasets (Section 7)")
		cpInterval = flag.Duration("checkpoint-interval", 24*time.Hour, "simulated time between archive checkpoints with -data (0 disables)")
		maxInFl    = flag.Int("max-in-flight", 256, "cap on concurrently executing requests; the excess queues briefly then is shed with 503 (0 = unlimited)")
		queueWait  = flag.Duration("queue-wait", 100*time.Millisecond, "how long an over-cap request may wait for an in-flight slot before being shed")
		rateLimit  = flag.Float64("rate-limit", 50, "per-client sustained requests/sec before 429 + Retry-After (0 disables throttling)")
		rateBurst  = flag.Float64("rate-burst", 100, "per-client burst allowance above the sustained rate")
		drainTO    = flag.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests to drain")
		follow     = flag.String("follow", "", "primary base URL: run as a read replica pulling checkpoint artifacts from it (requires -data; disables collection and writes)")
		pollIv     = flag.Duration("poll-interval", 2*time.Second, "with -follow, how often the puller lists the primary for new checkpoint artifacts")
		maxStale   = flag.Duration("max-staleness", 30*time.Second, "with -follow, reads answer 503 stale_replica once this long passes without a confirmed sync (0 = serve however stale)")
	)
	storeOpts := tsdb.BindFlags(flag.CommandLine)
	flag.Parse()

	var cat *catalog.Catalog
	if *frac >= 1 {
		cat = catalog.Standard()
	} else {
		cat = catalog.Sample(*frac)
	}

	front := serveConfig{
		addr: *addr, maxInFlight: *maxInFl, queueWait: *queueWait,
		rateLimit: *rateLimit, rateBurst: *rateBurst, drainTimeout: *drainTO,
	}
	if *follow != "" {
		runFollower(followerConfig{
			serveConfig: front, primaryURL: *follow, dataDir: *dataDir,
			pollInterval: *pollIv, maxStaleness: *maxStale,
			storeOpts: *storeOpts, multiCloud: *multiCloud,
		}, cat)
		return
	}

	clk := simclock.NewAtEpoch()
	cloud := cloudsim.New(cat, clk, *seed, cloudsim.DefaultParams())
	db, err := tsdb.OpenWithOptions(*dataDir, *storeOpts)
	if err != nil {
		log.Fatalf("opening archive store: %v", err)
	}

	cfg := collector.DefaultConfig()
	// Recovered data (checkpoint + WAL) sits in simulated time after the
	// clock's epoch start: fast-forward so collection continues where the
	// archive left off instead of appending out of order. Land one tick
	// PAST the last recovered timestamp, not on it: collector.Start
	// collects immediately at clk.Now(), and the store accepts same-
	// timestamp appends, so resuming exactly onto MaxTime would write
	// duplicate-timestamp points next to the recovered ones.
	if maxAt, ok := db.MaxTime(); ok && !maxAt.Before(clk.Now()) {
		clk.RunFor(maxAt.Add(cfg.ScoreInterval).Sub(clk.Now()))
	}

	cfg.CheckpointInterval = *cpInterval
	col, err := collector.New(cloud, db, cfg)
	if err != nil {
		log.Fatalf("building collector: %v", err)
	}
	log.Printf("catalog: %d types, %d regions, %d AZs; query plan: %d queries over %d accounts",
		cat.NumTypes(), cat.NumRegions(), cat.NumAZs(), len(col.Plan().Queries), col.Accounts())

	var mc *multicloud.Collector
	if *multiCloud {
		azure := azuresim.New(clk, *seed)
		gcp := gcpsim.New(clk, *seed)
		mc, err = multicloud.New(clk, db, multicloud.DefaultConfig(), nil, azure, gcp)
		if err != nil {
			log.Fatalf("building multi-cloud collector: %v", err)
		}
		log.Printf("multi-cloud: +%d Azure sizes x %d regions, +%d GCP types x %d regions",
			len(azure.Sizes()), len(azure.Regions()), len(gcp.MachineTypes()), len(gcp.Regions()))
	}

	log.Printf("bootstrapping archive: %d simulated days...", *bootstrap)
	start := time.Now()
	if err := col.Start(); err != nil {
		log.Fatalf("starting collector: %v", err)
	}
	if mc != nil {
		if err := mc.Start(); err != nil {
			log.Fatalf("starting multi-cloud collector: %v", err)
		}
	}
	// Recovered data counts toward the bootstrap target: only simulate the
	// remainder, so a restart over a full -data directory serves
	// immediately.
	if d := simclock.Epoch.Add(time.Duration(*bootstrap) * 24 * time.Hour).Sub(clk.Now()); d > 0 {
		clk.RunFor(d)
	}
	if err := db.Flush(); err != nil {
		log.Fatalf("flushing archive: %v", err)
	}
	log.Printf("bootstrap done in %v: %d series, %d points",
		time.Since(start).Round(time.Millisecond), db.SeriesCount(), db.PointCount())
	// Checkpoint the bootstrap so a restart bulk-loads it instead of
	// replaying the whole bootstrap's WAL.
	if db.Durable() {
		if err := db.Checkpoint(); err != nil {
			log.Fatalf("checkpoint: %v", err)
		}
		log.Printf("checkpointed archive in %s", *dataDir)
	}

	// Live mode: one goroutine owns the simulation and advances it one
	// collection interval per wall tick; HTTP handlers only read the
	// (concurrency-safe) store and the immutable catalog.
	go func() {
		for range time.Tick(*tick) {
			clk.RunFor(cfg.ScoreInterval)
			if err := db.Flush(); err != nil {
				log.Printf("flush: %v", err)
			}
		}
	}()

	svc := archive.NewService(db, cat)
	if *multiCloud {
		svc.AllowDatasets(multicloud.AllDatasets...)
	}
	log.Printf("serving on %s (simulated time advances %v per %v; admission: %d in-flight, %.3g req/s per client; metrics at /api/v1/metrics)",
		*addr, cfg.ScoreInterval, *tick, *maxInFl, *rateLimit)
	serve(svc, front, db.Close)
}

// serveConfig is the HTTP front both roles share: where to listen, the
// admission layer's traffic limits, and how long shutdown may drain.
type serveConfig struct {
	addr         string
	maxInFlight  int
	queueWait    time.Duration
	rateLimit    float64
	rateBurst    float64
	drainTimeout time.Duration
}

// serve installs admission control on svc and serves it on cfg.addr until
// the listener fails or SIGINT/SIGTERM arrives. closeStore is the role's
// shutdown hook; it runs once no request is in flight, and flushes and
// fsyncs the store's WAL tail (Close does not checkpoint).
func serve(svc *archive.Service, cfg serveConfig, closeStore func() error) {
	svc.SetAdmission(archive.NewAdmission(archive.AdmissionConfig{
		MaxInFlight: cfg.maxInFlight,
		MaxQueue:    cfg.maxInFlight,
		QueueWait:   cfg.queueWait,
		RatePerSec:  cfg.rateLimit,
		Burst:       cfg.rateBurst,
	}))
	// A configured server, not bare ListenAndServe: without timeouts one
	// slowloris client per goroutine holds connections (and memory) until
	// the process dies. WriteTimeout bounds the whole response, so it is
	// sized for the largest streamed window, not a socket write.
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	var listenErr error
	select {
	case listenErr = <-errc:
		// The listener died on its own; nothing to drain.
	case <-ctx.Done():
		// Graceful shutdown: stop accepting and let in-flight requests
		// finish (bounded), so the store closes with no readers left.
		stop()
		log.Printf("shutdown signal; draining in-flight requests (up to %v)", cfg.drainTimeout)
		sctx, cancel := context.WithTimeout(context.Background(), cfg.drainTimeout)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("drain incomplete: %v", err)
		}
		log.Printf("drained; closing store")
	}
	if err := closeStore(); err != nil {
		log.Printf("closing store: %v", err)
	}
	if listenErr != nil {
		log.Fatalf("http: %v", listenErr)
	}
}

// followerConfig carries the replica-mode settings out of flag parsing.
type followerConfig struct {
	serveConfig
	primaryURL   string
	dataDir      string
	pollInterval time.Duration
	maxStaleness time.Duration
	storeOpts    tsdb.Options // as parsed from the shared store flags
	multiCloud   bool
}

// runFollower serves the read API as a replica of cfg.primaryURL: a
// puller ships the primary's checkpoint artifacts into cfg.dataDir and
// swaps freshly reopened read-only stores into the service; nothing in
// this process ever writes a point.
func runFollower(cfg followerConfig, cat *catalog.Catalog) {
	if cfg.dataDir == "" {
		log.Fatalf("-follow requires -data: the replica needs a directory to ship artifacts into")
	}
	// The replica opens with the same store flags a primary would, made
	// read-only and without a daemon.
	storeOpts := cfg.storeOpts
	storeOpts.ReadOnly, storeOpts.MaintenanceInterval = true, -1
	// Reopen an existing replica so restarts serve immediately; a fresh
	// directory serves empty (gated stale) until the first pull lands.
	var db *tsdb.DB
	var err error
	if tsdb.HasCommittedManifest(cfg.dataDir) {
		if db, err = tsdb.OpenWithOptions(cfg.dataDir, storeOpts); err != nil {
			log.Fatalf("reopening replica: %v", err)
		}
		log.Printf("reopened replica %s: %d series, %d points", cfg.dataDir, db.SeriesCount(), db.PointCount())
	} else if db, err = tsdb.OpenWithOptions("", tsdb.Options{}); err != nil {
		log.Fatalf("opening empty store: %v", err)
	}

	svc := archive.NewService(db, cat)
	if cfg.multiCloud {
		svc.AllowDatasets(multicloud.AllDatasets...)
	}
	svc.SetFollower(cfg.primaryURL, cfg.maxStaleness)
	puller, err := archive.NewPuller(svc, archive.PullerConfig{
		PrimaryURL:   cfg.primaryURL,
		Dir:          cfg.dataDir,
		Interval:     cfg.pollInterval,
		StoreOptions: storeOpts,
		Logf:         log.Printf,
	})
	if err != nil {
		log.Fatalf("building puller: %v", err)
	}
	puller.Start()

	log.Printf("follower of %s serving on %s (poll %v, max staleness %v; readiness at /readyz, metrics at /api/v1/metrics)",
		cfg.primaryURL, cfg.addr, cfg.pollInterval, cfg.maxStaleness)
	serve(svc, cfg.serveConfig, func() error {
		// Stop the puller before closing the serving store: a pull
		// completing after Close would swap a fresh store in with nobody
		// left to close it.
		puller.Stop()
		return svc.DB().Close()
	})
}
