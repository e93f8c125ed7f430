package archive

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/cloudsim"
	"repro/internal/collector"
	"repro/internal/simclock"
	"repro/internal/tsdb"
)

// buildArchive runs a short collection so the archive has real contents.
func buildArchive(t *testing.T) (*Service, *catalog.Catalog) {
	t.Helper()
	cat := catalog.Compact(2)
	clk := simclock.NewAtEpoch()
	cloud := cloudsim.New(cat, clk, 99, cloudsim.DefaultParams())
	db, err := tsdb.Open("")
	if err != nil {
		t.Fatal(err)
	}
	col, err := collector.New(cloud, db, collector.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := col.Run(3 * time.Hour); err != nil {
		t.Fatal(err)
	}
	return NewService(db, cat), cat
}

func TestQueryFiltersAndWindow(t *testing.T) {
	s, cat := buildArchive(t)
	tn := cat.Types()[0].Name
	res, err := s.Query(QueryRequest{Dataset: tsdb.DatasetPlacementScore, Type: tn})
	if err != nil {
		t.Fatal(err)
	}
	if len(res) == 0 {
		t.Fatal("no series for collected type")
	}
	for _, sr := range res {
		if sr.Key.Type != tn || sr.Key.Dataset != tsdb.DatasetPlacementScore {
			t.Errorf("filter leak: %v", sr.Key)
		}
		if len(sr.Points) == 0 {
			t.Error("empty series included")
		}
	}
	// Window restriction.
	mid := simclock.Epoch.Add(90 * time.Minute)
	res2, err := s.Query(QueryRequest{Dataset: tsdb.DatasetPlacementScore, Type: tn, From: mid})
	if err != nil {
		t.Fatal(err)
	}
	for _, sr := range res2 {
		for _, p := range sr.Points {
			if p.At.Before(mid) {
				t.Errorf("point %v before window start", p.At)
			}
		}
	}
}

func TestQueryValidation(t *testing.T) {
	s, _ := buildArchive(t)
	if _, err := s.Query(QueryRequest{Dataset: "bogus"}); err == nil {
		t.Error("unknown dataset accepted")
	}
	if _, err := s.Query(QueryRequest{From: simclock.Epoch.Add(time.Hour), To: simclock.Epoch}); err == nil {
		t.Error("inverted window accepted")
	}
}

func TestLatest(t *testing.T) {
	s, cat := buildArchive(t)
	entries, err := s.Latest(QueryRequest{Dataset: tsdb.DatasetInterruptFree, Region: "us-east-1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) == 0 {
		t.Fatal("no latest IF entries for us-east-1")
	}
	for _, e := range entries {
		if e.Key.Region != "us-east-1" {
			t.Errorf("region filter leak: %v", e.Key)
		}
		if e.Value < 1 || e.Value > 3 {
			t.Errorf("IF value %v out of range", e.Value)
		}
	}
	_ = cat
}

func TestMeta(t *testing.T) {
	s, cat := buildArchive(t)
	m := s.Meta()["schema"].(SchemaMeta)
	if m.SeriesCount == 0 || m.PointCount == 0 {
		t.Error("empty meta after collection")
	}
	if m.Types != cat.NumTypes() || m.Regions != 17 || m.AZs != 63 {
		t.Errorf("meta inventory = %+v", m)
	}
	if m.Datasets[tsdb.DatasetPlacementScore] != len(cat.Pools()) {
		t.Errorf("sps series = %d, want %d", m.Datasets[tsdb.DatasetPlacementScore], len(cat.Pools()))
	}
}

func TestHTTPEndpoints(t *testing.T) {
	s, cat := buildArchive(t)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	get := func(path string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	resp, body := get("/api/v1/meta")
	if resp.StatusCode != 200 {
		t.Fatalf("meta status %d", resp.StatusCode)
	}
	var meta struct{ Schema SchemaMeta }
	if err := json.Unmarshal(body, &meta); err != nil {
		t.Fatalf("meta not JSON: %v", err)
	}
	if meta.Schema.SeriesCount == 0 {
		t.Error("meta reports empty archive")
	}

	tn := cat.Types()[0].Name
	resp, body = get("/api/v1/query?dataset=sps&type=" + tn + "&from=2022-01-01T00:00:00Z")
	if resp.StatusCode != 200 {
		t.Fatalf("query status %d: %s", resp.StatusCode, body)
	}
	var results []SeriesResult
	if err := json.Unmarshal(body, &results); err != nil {
		t.Fatalf("query not JSON: %v", err)
	}
	if len(results) == 0 {
		t.Error("query returned no series")
	}

	resp, _ = get("/api/v1/query?dataset=nope")
	if resp.StatusCode != 400 {
		t.Errorf("bad dataset status = %d, want 400", resp.StatusCode)
	}
	resp, _ = get("/api/v1/query?from=notatime")
	if resp.StatusCode != 400 {
		t.Errorf("bad time status = %d, want 400", resp.StatusCode)
	}

	resp, body = get("/api/v1/latest?dataset=if")
	if resp.StatusCode != 200 {
		t.Fatalf("latest status %d", resp.StatusCode)
	}
	var latest []LatestEntry
	if err := json.Unmarshal(body, &latest); err != nil || len(latest) == 0 {
		t.Errorf("latest = %v entries, err %v", len(latest), err)
	}

	resp, body = get("/api/v1/catalog/types")
	if resp.StatusCode != 200 {
		t.Fatalf("types status %d", resp.StatusCode)
	}
	var types []map[string]any
	if err := json.Unmarshal(body, &types); err != nil || len(types) != cat.NumTypes() {
		t.Errorf("types = %d, err %v, want %d", len(types), err, cat.NumTypes())
	}

	resp, body = get("/api/v1/catalog/regions")
	if resp.StatusCode != 200 {
		t.Fatalf("regions status %d", resp.StatusCode)
	}
	var regions []map[string]any
	if err := json.Unmarshal(body, &regions); err != nil || len(regions) != 17 {
		t.Errorf("regions = %d, err %v", len(regions), err)
	}

	resp, body = get("/")
	if resp.StatusCode != 200 {
		t.Fatalf("index status %d", resp.StatusCode)
	}
	if len(body) == 0 {
		t.Error("empty index page")
	}

	resp, _ = get("/api/v1/nonexistent")
	if resp.StatusCode != 404 {
		t.Errorf("unknown path status = %d, want 404", resp.StatusCode)
	}
}
