// Quickstart: build a simulated cloud, run the SpotLake collector for two
// simulated days, and query the archive through the Go API — the minimal
// end-to-end tour of the library.
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/archive"
	"repro/internal/catalog"
	"repro/internal/cloudsim"
	"repro/internal/collector"
	"repro/internal/simclock"
	"repro/internal/tsdb"
)

func main() {
	log.SetFlags(0)

	// 1. A simulated cloud: 17 regions, 63 AZs, and a proportional sample
	//    of the 547 instance types.
	cat := catalog.Sample(0.10)
	clk := simclock.NewAtEpoch()
	cloud := cloudsim.New(cat, clk, 7, cloudsim.DefaultParams())
	fmt.Printf("cloud: %d instance types, %d regions, %d AZs, %d pools\n",
		cat.NumTypes(), cat.NumRegions(), cat.NumAZs(), len(cat.Pools()))

	// 2. The SpotLake collector: bin-packed placement-score queries across
	//    accounts, advisor scraping, price sampling — every 10 minutes.
	db, err := tsdb.Open("")
	if err != nil {
		log.Fatal(err)
	}
	col, err := collector.New(cloud, db, collector.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("collector: %d optimized queries (vs %d naive) across %d accounts\n",
		len(col.Plan().Queries), col.Plan().NaiveQueries, col.Accounts())

	if err := col.Run(48 * time.Hour); err != nil {
		log.Fatal(err)
	}
	st := col.Stats()
	fmt.Printf("collected 2 simulated days: %d queries issued, %d points stored\n",
		st.QueriesIssued, st.PointsStored)

	// 3. Query the archive like a SpotLake user.
	svc := archive.NewService(db, cat)
	fmt.Printf("archive: %d series, %d points\n", db.SeriesCount(), db.PointCount())

	tn := cat.TypesOfClass(catalog.ClassM)[0].Name
	results, err := svc.Query(archive.QueryRequest{
		Dataset: tsdb.DatasetPlacementScore,
		Type:    tn,
		Region:  "us-east-1",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nplacement score history for %s in us-east-1:\n", tn)
	for _, sr := range results {
		fmt.Printf("  %s: %d change points, latest %.0f\n",
			sr.Key.AZ, len(sr.Points), sr.Points[len(sr.Points)-1].Value)
	}

	latest, err := svc.Latest(archive.QueryRequest{
		Dataset: tsdb.DatasetInterruptFree,
		Type:    tn,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncurrent interruption-free scores for %s:\n", tn)
	for _, e := range latest {
		fmt.Printf("  %-14s %.1f\n", e.Key.Region, e.Value)
	}
}
