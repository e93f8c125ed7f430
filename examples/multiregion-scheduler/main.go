// Multi-region GPU scheduler: the DeepSpotCloud-style workload from the
// paper's motivation. A training job needs GPU spot instances; the
// scheduler uses the SpotLake archive to pick pools globally — requiring a
// high placement score AND a high interruption-free score (the paper's
// Section 5.4 recommendation) — and compares the outcome against a naive
// strategy that only looks at price in a single home region.
package main

import (
	"fmt"
	"log"
	"sort"
	"time"

	"repro/internal/catalog"
	"repro/internal/cloudsim"
	"repro/internal/collector"
	"repro/internal/simclock"
	"repro/internal/tsdb"
)

type candidate struct {
	pool    catalog.Pool
	sps     float64
	ifScore float64
	price   float64
}

func main() {
	log.SetFlags(0)

	cat := catalog.Sample(0.25)
	clk := simclock.NewAtEpoch()
	cloud := cloudsim.New(cat, clk, 4242, cloudsim.DefaultParams())
	db, err := tsdb.Open("")
	if err != nil {
		log.Fatal(err)
	}
	cfg := collector.DefaultConfig()
	cfg.ScoreInterval = 30 * time.Minute
	cfg.AdvisorInterval = 30 * time.Minute
	cfg.PriceInterval = 30 * time.Minute
	col, err := collector.New(cloud, db, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("bootstrapping SpotLake archive (7 simulated days)...")
	if err := col.Start(); err != nil {
		log.Fatal(err)
	}
	clk.RunFor(7 * 24 * time.Hour)

	// Enumerate live GPU pools with their current archive signals.
	var candidates []candidate
	for _, cl := range []catalog.Class{catalog.ClassG, catalog.ClassP} {
		for _, t := range cat.TypesOfClass(cl) {
			for _, p := range cat.PoolsOfType(t.Name) {
				sps, ok1, _ := db.ValueAt(tsdb.SeriesKey{Dataset: tsdb.DatasetPlacementScore, Type: p.Type, Region: p.Region, AZ: p.AZ}, clk.Now())
				ifs, ok2, _ := db.ValueAt(tsdb.SeriesKey{Dataset: tsdb.DatasetInterruptFree, Type: p.Type, Region: p.Region}, clk.Now())
				price, ok3, _ := db.ValueAt(tsdb.SeriesKey{Dataset: tsdb.DatasetPrice, Type: p.Type, Region: p.Region, AZ: p.AZ}, clk.Now())
				if ok1 && ok2 && ok3 {
					candidates = append(candidates, candidate{p, sps, ifs, price})
				}
			}
		}
	}
	fmt.Printf("GPU candidate pools: %d (archive holds %d series)\n", len(candidates), db.SeriesCount())

	const workers = 6
	// SpotLake strategy: both scores high, then cheapest, spread across
	// regions (the paper's spatial-diversity recommendation).
	spotlake := pickSpotLake(candidates, workers)
	// Naive strategy: cheapest pools in the home region, ignoring scores.
	naive := pickNaive(candidates, workers, "us-east-1")

	fmt.Println("\nrunning both 6-worker training fleets for 24 simulated hours...")
	slStats := launch(cloud, cat, spotlake)
	nvStats := launch(cloud, cat, naive)
	clk.RunFor(24 * time.Hour)

	fmt.Println("\n== results after 24h ==")
	report := func(name string, reqs []*cloudsim.SpotRequest, picks []candidate) {
		fulfilled, interruptions := 0, 0
		cost := 0.0
		for i, r := range reqs {
			if len(r.Fulfillments()) > 0 {
				fulfilled++
				cost += picks[i].price * 24 // approximation: price at selection
			}
			interruptions += len(r.Interruptions())
			r.Close()
		}
		fmt.Printf("  %-9s fulfilled %d/%d workers, %d interruptions, approx $%.2f\n",
			name, fulfilled, len(reqs), interruptions, cost)
	}
	report("spotlake", slStats, spotlake)
	report("naive", nvStats, naive)
	fmt.Println("\nthe SpotLake fleet trades a little price for far fewer interruptions,")
	fmt.Println("matching the paper's H-H finding (Table 3).")
}

func pickSpotLake(cands []candidate, n int) []candidate {
	var good []candidate
	for _, c := range cands {
		if c.sps >= 3 && c.ifScore >= 2.5 {
			good = append(good, c)
		}
	}
	sort.Slice(good, func(i, j int) bool { return good[i].price < good[j].price })
	var picks []candidate
	usedRegion := map[string]int{}
	for _, c := range good {
		if len(picks) == n {
			break
		}
		if usedRegion[c.pool.Region] >= 2 { // spatial diversity
			continue
		}
		usedRegion[c.pool.Region]++
		picks = append(picks, c)
	}
	// Top up if diversity constraint left slots open.
	for _, c := range good {
		if len(picks) == n {
			break
		}
		picks = append(picks, c)
	}
	return picks
}

func pickNaive(cands []candidate, n int, region string) []candidate {
	var local []candidate
	for _, c := range cands {
		if c.pool.Region == region {
			local = append(local, c)
		}
	}
	sort.Slice(local, func(i, j int) bool { return local[i].price < local[j].price })
	if len(local) > n {
		local = local[:n]
	}
	return local
}

func launch(cloud *cloudsim.Cloud, cat *catalog.Catalog, picks []candidate) []*cloudsim.SpotRequest {
	var reqs []*cloudsim.SpotRequest
	for _, c := range picks {
		od, _ := cat.OnDemandPrice(c.pool.Type, c.pool.Region)
		r, err := cloud.Submit(cloudsim.SpotRequestSpec{
			Type: c.pool.Type, AZ: c.pool.AZ, BidUSD: od, Persistent: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  requested %-18s in %-14s (sps %.0f, if %.1f, $%.3f/h)\n",
			c.pool.Type, c.pool.AZ, c.sps, c.ifScore, c.price)
		reqs = append(reqs, r)
	}
	return reqs
}
