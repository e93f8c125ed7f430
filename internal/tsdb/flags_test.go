package tsdb

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
	"time"
)

func parseStoreFlags(t *testing.T, args ...string) (*Options, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	o := BindFlags(fs)
	return o, fs.Parse(args)
}

// TestBindFlagsDefaults pins what an empty command line opens a store
// with: the values spotlake-server and spotlake-collector each passed by
// hand before the binder existed.
func TestBindFlagsDefaults(t *testing.T) {
	got, err := parseStoreFlags(t)
	if err != nil {
		t.Fatal(err)
	}
	want := Options{
		RotateBytes:          DefaultRotateBytes,
		CheckpointAfterBytes: 64 << 20,
		MaintenanceInterval:  DefaultMaintenanceInterval,
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("defaults:\n got  %+v\n want %+v", *got, want)
	}
}

// TestBindFlagsNames pins the store's whole flag surface: exactly these
// seven names, so a knob cannot appear (or vanish) unnoticed.
func TestBindFlagsNames(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	BindFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // lexical order
	want := []string{"block-cache-bytes", "block-points", "checkpoint-bytes", "hot-tail",
		"maintenance-interval", "retain-raw", "rotate-bytes"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store flags:\n got  %v\n want %v", got, want)
	}
}

func TestBindFlagsEachFlagLandsInItsField(t *testing.T) {
	got, err := parseStoreFlags(t,
		"-rotate-bytes", "1001",
		"-checkpoint-bytes", "1002",
		"-maintenance-interval", "1004ms",
		"-hot-tail", "1005",
		"-block-points", "1006",
		"-block-cache-bytes", "1007",
		"-retain-raw", "price=90d,sps=720h",
	)
	if err != nil {
		t.Fatal(err)
	}
	want := Options{
		RotateBytes:          1001,
		CheckpointAfterBytes: 1002,
		MaintenanceInterval:  1004 * time.Millisecond,
		HotTailPoints:        1005,
		BlockPoints:          1006,
		BlockCacheBytes:      1007,
		RetainRaw:            map[string]time.Duration{"price": 90 * 24 * time.Hour, "sps": 720 * time.Hour},
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("parsed:\n got  %+v\n want %+v", *got, want)
	}
}

func TestBindFlagsRetainRaw(t *testing.T) {
	_, err := parseStoreFlags(t, "-retain-raw", "price=soon")
	if err == nil || !strings.Contains(err.Error(), "-retain-raw") || !strings.Contains(err.Error(), "soon") {
		t.Fatalf("malformed -retain-raw: Parse returned %v, want an error naming the flag and the bad horizon", err)
	}
	// An explicitly empty value means no retention, as it always has.
	got, err := parseStoreFlags(t, "-retain-raw", "")
	if err != nil || got.RetainRaw != nil {
		t.Fatalf("empty -retain-raw: RetainRaw %v, err %v; want nil, nil", got.RetainRaw, err)
	}
}
