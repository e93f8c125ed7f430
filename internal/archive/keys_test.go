package archive

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/tsdb"
)

// TestHostileKeys: every key an append accepts comes back byte-identical
// from the store after Close and Open, after a Checkpoint and Open, and
// from /api/v1/query and /api/v1/latest on the store and on a follower
// that pulled it; every other key is refused with ErrInvalidKey by
// Append and AppendBatch and creates no series. A "|" inside a field
// would make the canonical "dataset|type|region|az" form that the WAL
// and the checkpoint store unreadable, and invalid UTF-8 cannot cross a
// JSON response unchanged.
func TestHostileKeys(t *testing.T) {
	const maxKeyBytes = 1<<16 - 1
	long := tsdb.SeriesKey{Dataset: "k8", Type: "t", Region: "r"}
	long.AZ = strings.Repeat("z", maxKeyBytes-len(long.String()))
	tooLong := long
	tooLong.Dataset = "k9x"
	cases := []struct {
		name string
		key  tsdb.SeriesKey
		ok   bool
	}{
		{"| in dataset", tsdb.SeriesKey{Dataset: "k|0", Type: "t", Region: "r", AZ: "a"}, false},
		{"| in type", tsdb.SeriesKey{Dataset: "k1", Type: "m5|xlarge", Region: "r", AZ: "a"}, false},
		{"| in region", tsdb.SeriesKey{Dataset: "k2", Type: "t", Region: "us|east-1", AZ: "a"}, false},
		{"| in az", tsdb.SeriesKey{Dataset: "k3", Type: "t", Region: "r", AZ: "a|b"}, false},
		{"empty az", tsdb.SeriesKey{Dataset: "k4", Type: "m5.xlarge", Region: "us-east-1"}, true},
		{"multi-byte UTF-8", tsdb.SeriesKey{Dataset: "k5", Type: "m5.大型", Region: "ap-東京-1", AZ: "東京-1a😀"}, true},
		{"invalid UTF-8", tsdb.SeriesKey{Dataset: "k6", Type: "t", Region: "r\xff", AZ: "a"}, false},
		{"invalid UTF-8 az", tsdb.SeriesKey{Dataset: "k7", Type: "t", Region: "r", AZ: "\xc3("}, false},
		{"exactly maxKeyBytes", long, true},
		{"past maxKeyBytes", tooLong, false},
	}
	at := time.Date(2022, 1, 1, 0, 0, 0, 0, time.UTC)
	dir := t.TempDir()
	db, err := tsdb.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	accepted := 0
	for _, c := range cases {
		err := db.Append(c.key, at, 1)
		n, batchErr := db.AppendBatch([]tsdb.Entry{{Key: c.key, At: at.Add(time.Minute), Value: 2}})
		if c.ok {
			if err != nil || n != 1 || batchErr != nil {
				t.Fatalf("%s: Append %v, AppendBatch %d, %v; want both stored", c.name, err, n, batchErr)
			}
			accepted++
			continue
		}
		if !errors.Is(err, tsdb.ErrInvalidKey) || n != 0 || !errors.Is(batchErr, tsdb.ErrInvalidKey) {
			t.Errorf("%s: Append %v, AppendBatch %d, %v; want ErrInvalidKey from both", c.name, err, n, batchErr)
		}
	}
	if got := db.SeriesCount(); got != accepted {
		t.Fatalf("%d series after the appends, want the %d accepted keys", got, accepted)
	}

	want := []tsdb.Point{{At: at, Value: 1}, {At: at.Add(time.Minute), Value: 2}}
	verify := func(stage string) {
		t.Helper()
		for _, c := range cases {
			if !c.ok {
				continue
			}
			keys := db.Keys(tsdb.KeyFilter{Dataset: c.key.Dataset})
			if len(keys) != 1 || keys[0] != c.key {
				t.Fatalf("%s: %s reads back as %q, want %q", stage, c.name, keys, c.key)
			}
			if pts, err := db.Query(c.key, time.Time{}, at.Add(time.Hour)); err != nil || !reflect.DeepEqual(pts, want) {
				t.Fatalf("%s: %s points %v, %v; want %v", stage, c.name, pts, err, want)
			}
		}
		if got := db.SeriesCount(); got != accepted {
			t.Fatalf("%s: %d series, want %d", stage, got, accepted)
		}
	}
	reopen := func() {
		t.Helper()
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}
		if db, err = tsdb.Open(dir); err != nil {
			t.Fatal(err)
		}
	}
	reopen()
	verify("after Close and Open")
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	reopen()
	verify("after Checkpoint and Open")
	defer db.Close()

	// Over HTTP, from the store and from a follower that pulled it.
	served := func(stage string, s *Service) {
		t.Helper()
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		for _, c := range cases {
			if !c.ok {
				continue
			}
			s.AllowDatasets(c.key.Dataset)
			var res []SeriesResult
			getJSON(t, srv.URL+"/api/v1/query?dataset="+url.QueryEscape(c.key.Dataset), &res)
			if len(res) != 1 || res[0].Key != c.key || !reflect.DeepEqual(res[0].Points, want) {
				t.Errorf("%s: %s: /api/v1/query answered %+v, want key %q with %v", stage, c.name, res, c.key, want)
			}
			var latest []LatestEntry
			getJSON(t, srv.URL+"/api/v1/latest?dataset="+url.QueryEscape(c.key.Dataset), &latest)
			if len(latest) != 1 || latest[0].Key != c.key || latest[0].Value != 2 {
				t.Errorf("%s: %s: /api/v1/latest answered %+v, want key %q at 2", stage, c.name, latest, c.key)
			}
		}
	}
	cat := catalog.Compact(1)
	primary := NewService(db, cat)
	served("primary", primary)
	psrv := httptest.NewServer(primary.Handler())
	defer psrv.Close()
	follower, puller := newFollower(t, psrv.URL, cat, 0)
	if err := puller.SyncOnce(); err != nil {
		t.Fatal(err)
	}
	served("follower", follower)
}

// getJSON decodes the 200 answer of a GET into v.
func getJSON(t *testing.T, u string, v any) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", u, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", u, err)
	}
}
