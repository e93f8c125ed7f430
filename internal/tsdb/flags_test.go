package tsdb

import (
	"flag"
	"io"
	"reflect"
	"testing"
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
	want := Options{CheckpointAfterBytes: 64 << 20}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("defaults:\n got  %+v\n want %+v", *got, want)
	}
}

// TestBindFlagsNames pins the store's whole flag surface: exactly these
// two names, so a knob cannot appear (or vanish) unnoticed. The hot tail,
// block size, shard count and daemon poll are constants.
func TestBindFlagsNames(t *testing.T) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	BindFlags(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { got = append(got, f.Name) }) // lexical order
	want := []string{"block-cache-bytes", "checkpoint-bytes"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store flags:\n got  %v\n want %v", got, want)
	}
}

func TestBindFlagsEachFlagLandsInItsField(t *testing.T) {
	got, err := parseStoreFlags(t,
		"-checkpoint-bytes", "1002",
		"-block-cache-bytes", "1007",
	)
	if err != nil {
		t.Fatal(err)
	}
	want := Options{
		CheckpointAfterBytes: 1002,
		BlockCacheBytes:      1007,
	}
	if !reflect.DeepEqual(*got, want) {
		t.Fatalf("parsed:\n got  %+v\n want %+v", *got, want)
	}
}
