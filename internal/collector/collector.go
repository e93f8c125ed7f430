// Package collector implements SpotLake's data collection pipeline (paper
// Figure 2 and Section 3.2): the spot data collector server that
// periodically gathers the placement-score, advisor, and price datasets and
// writes them into the time-series archive.
//
// The placement-score dataset is collected through the bin-packed query
// plan (one instance type per query, regions packed so the per-AZ scores
// fit the 10-result response cap), spread across as many accounts as the
// 50-unique-queries-per-24h quota demands. The advisor dataset is scraped
// as one bulk document (the SpotInfo approach) because it has no API. The
// price dataset uses the price endpoint directly.
package collector

import (
	"fmt"
	"time"

	"repro/internal/awsapi"
	"repro/internal/binpack"
	"repro/internal/cloudsim"
	"repro/internal/simclock"
	"repro/internal/tsdb"
)

// Config controls collection cadence and planning.
type Config struct {
	// ScoreInterval is the placement-score collection period. The paper
	// collects every 10 minutes.
	ScoreInterval time.Duration
	// AdvisorInterval is the advisor scrape period.
	AdvisorInterval time.Duration
	// PriceInterval is the spot price sampling period.
	PriceInterval time.Duration
	// TargetCapacity is the instance count used in placement-score queries.
	TargetCapacity int
	// ExactPacking selects the branch-and-bound packer over FFD.
	ExactPacking bool
	// QuotaPerAccount overrides the per-account unique-query quota
	// (defaults to the vendor limit; lower values model shared accounts).
	QuotaPerAccount int
	// StoreAllSamples disables change-deduplication and stores every
	// sample. Only useful for the storage ablation — the archive's
	// semantics are identical either way because the datasets are step
	// functions.
	StoreAllSamples bool
}

// DefaultConfig returns the paper's collection configuration.
func DefaultConfig() Config {
	return Config{
		ScoreInterval:   10 * time.Minute,
		AdvisorInterval: 10 * time.Minute,
		PriceInterval:   10 * time.Minute,
		TargetCapacity:  1,
		ExactPacking:    false,
		QuotaPerAccount: awsapi.MaxUniqueQueriesPer24h,
	}
}

// Stats are cumulative collection counters.
type Stats struct {
	ScoreTicks    int
	AdvisorTicks  int
	PriceTicks    int
	QueriesIssued int
	PointsStored  int
	QueryErrors   int
}

// Collector drives the periodic collection tasks.
type Collector struct {
	cloud *cloudsim.Cloud
	db    *tsdb.DB
	cfg   Config

	plan    binpack.Plan
	clients []*awsapi.Client
	// owner[i] is the index of the client that owns plan.Queries[i].
	owner []int

	stats Stats

	tickers []*simclock.Ticker
}

// New builds a collector: it computes the optimized query plan for the
// cloud's catalog and provisions one API client per account the plan needs.
func New(cloud *cloudsim.Cloud, db *tsdb.DB, cfg Config) (*Collector, error) {
	if cfg.ScoreInterval <= 0 || cfg.AdvisorInterval <= 0 || cfg.PriceInterval <= 0 {
		return nil, fmt.Errorf("collector: non-positive collection interval")
	}
	if cfg.TargetCapacity <= 0 {
		return nil, fmt.Errorf("collector: target capacity must be positive")
	}
	if cfg.QuotaPerAccount <= 0 || cfg.QuotaPerAccount > awsapi.MaxUniqueQueriesPer24h {
		return nil, fmt.Errorf("collector: quota per account must be in 1..%d", awsapi.MaxUniqueQueriesPer24h)
	}
	plan, err := binpack.PlanScoreQueries(cloud.Catalog(), awsapi.MaxReturnedScores, cfg.ExactPacking)
	if err != nil {
		return nil, fmt.Errorf("collector: planning queries: %w", err)
	}
	c := &Collector{cloud: cloud, db: db, cfg: cfg, plan: plan}
	accounts := plan.AccountsNeeded(cfg.QuotaPerAccount)
	for i := 0; i < accounts; i++ {
		c.clients = append(c.clients, awsapi.NewClient(cloud, fmt.Sprintf("spotlake-%03d", i)))
	}
	c.owner = make([]int, len(plan.Queries))
	for i := range plan.Queries {
		c.owner[i] = i / cfg.QuotaPerAccount
	}
	return c, nil
}

// Plan returns the optimized query plan in use.
func (c *Collector) Plan() binpack.Plan { return c.plan }

// Accounts returns the number of provisioned accounts.
func (c *Collector) Accounts() int { return len(c.clients) }

// Stats returns the cumulative counters.
func (c *Collector) Stats() Stats { return c.stats }

// flush stores one tick's batch of points. Batching lets the store group
// the entries by shard and take each shard lock once per tick instead of
// once per point (dedup per AppendIfChanged unless StoreAllSamples). The
// store's byte trigger (tsdb.Options.CheckpointAfterBytes) is checked on
// this append path before the batch lands, so the tick after the one
// that crosses it checkpoints, unless the store's daemon gets there first.
func (c *Collector) flush(entries []tsdb.Entry) (int, error) {
	if c.cfg.StoreAllSamples {
		return c.db.AppendBatch(entries)
	}
	return c.db.AppendBatchIfChanged(entries)
}

// CollectScoresOnce executes the full placement-score plan once, storing
// per-(type, AZ) scores. Values are deduplicated: a point lands in the
// archive only when the score changed since the previous tick.
func (c *Collector) CollectScoresOnce() error {
	now := c.cloud.Clock().Now()
	c.stats.ScoreTicks++
	var firstErr error
	entries := make([]tsdb.Entry, 0, len(c.plan.Queries)*awsapi.MaxReturnedScores)
	for qi, pq := range c.plan.Queries {
		client := c.clients[c.owner[qi]]
		scores, err := client.GetSpotPlacementScores(awsapi.PlacementScoreQuery{
			InstanceTypes:          []string{pq.InstanceType},
			Regions:                pq.Regions,
			TargetCapacity:         c.cfg.TargetCapacity,
			SingleAvailabilityZone: true,
		})
		c.stats.QueriesIssued++
		if err != nil {
			c.stats.QueryErrors++
			if firstErr == nil {
				firstErr = fmt.Errorf("collector: query %d (%s): %w", qi, pq.InstanceType, err)
			}
			continue
		}
		for _, s := range scores {
			entries = append(entries, tsdb.Entry{
				Key: tsdb.SeriesKey{
					Dataset: tsdb.DatasetPlacementScore,
					Type:    pq.InstanceType,
					Region:  s.Region,
					AZ:      s.AZ,
				},
				At:    now,
				Value: float64(s.Score),
			})
		}
	}
	stored, err := c.flush(entries)
	c.stats.PointsStored += stored
	if err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// CollectAdvisorOnce scrapes the advisor document once, storing the
// interruption-free score (the paper's 1.0-3.0 conversion of the bucket)
// and the savings percentage per (type, region).
func (c *Collector) CollectAdvisorOnce() error {
	now := c.cloud.Clock().Now()
	c.stats.AdvisorTicks++
	doc := awsapi.FetchAdvisorDocument(c.cloud)
	entries := make([]tsdb.Entry, 0, 2*len(doc.Entries))
	for _, e := range doc.Entries {
		entries = append(entries,
			tsdb.Entry{
				Key:   tsdb.SeriesKey{Dataset: tsdb.DatasetInterruptFree, Type: e.Type, Region: e.Region},
				At:    now,
				Value: e.Bucket.InterruptionFreeScore(),
			},
			tsdb.Entry{
				Key:   tsdb.SeriesKey{Dataset: tsdb.DatasetSavings, Type: e.Type, Region: e.Region},
				At:    now,
				Value: float64(e.SavingsPct),
			})
	}
	stored, err := c.flush(entries)
	c.stats.PointsStored += stored
	return err
}

// CollectPricesOnce samples the current spot price of every pool.
func (c *Collector) CollectPricesOnce() error {
	now := c.cloud.Clock().Now()
	c.stats.PriceTicks++
	client := c.clients[0]
	var firstErr error
	pools := c.cloud.Catalog().Pools()
	entries := make([]tsdb.Entry, 0, len(pools))
	for _, p := range pools {
		price, err := client.CurrentSpotPrice(p.Type, p.AZ)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		entries = append(entries, tsdb.Entry{
			Key:   tsdb.SeriesKey{Dataset: tsdb.DatasetPrice, Type: p.Type, Region: p.Region, AZ: p.AZ},
			At:    now,
			Value: price,
		})
	}
	stored, err := c.flush(entries)
	c.stats.PointsStored += stored
	if err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}

// Start registers the periodic collection tasks on the simulation clock and
// performs one immediate collection of each dataset so the archive is never
// empty. Collection continues until Stop.
func (c *Collector) Start() error {
	if err := c.CollectScoresOnce(); err != nil {
		return err
	}
	if err := c.CollectAdvisorOnce(); err != nil {
		return err
	}
	if err := c.CollectPricesOnce(); err != nil {
		return err
	}
	clk := c.cloud.Clock()
	c.tickers = append(c.tickers,
		clk.SchedulePeriodic(c.cfg.ScoreInterval, func(time.Time) bool {
			_ = c.CollectScoresOnce() // per-tick errors are counted in stats
			return true
		}),
		clk.SchedulePeriodic(c.cfg.AdvisorInterval, func(time.Time) bool {
			_ = c.CollectAdvisorOnce()
			return true
		}),
		clk.SchedulePeriodic(c.cfg.PriceInterval, func(time.Time) bool {
			_ = c.CollectPricesOnce()
			return true
		}),
	)
	return nil
}

// Stop cancels the periodic collection tasks.
func (c *Collector) Stop() {
	for _, t := range c.tickers {
		t.Stop()
	}
	c.tickers = nil
}

// Run is a convenience for batch use: Start, advance the simulation by d,
// then Stop.
func (c *Collector) Run(d time.Duration) error {
	if err := c.Start(); err != nil {
		return err
	}
	c.cloud.Clock().RunFor(d)
	c.Stop()
	return nil
}
