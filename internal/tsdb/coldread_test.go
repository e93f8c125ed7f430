package tsdb

// Regression tests for the silent cold-read hole: the window copy used to
// `continue` past a cold block whose decode failed, so a long-window
// query over a corrupted (or unreadable) block file returned a silently
// truncated result with a nil error. Every read path must surface
// ErrColdRead instead — and only for corruption: a read on a closed
// store is not one.

import (
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// corruptFirstColdBlock flips one byte inside the first data block of the
// store's first block file. The block index and its CRC are untouched, so
// a reopen succeeds — only decoding the damaged block can detect it.
func corruptFirstColdBlock(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, blockFileName(1))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) <= blockHeaderLen {
		t.Fatalf("block file %s has no data section", path)
	}
	raw[blockHeaderLen] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestColdReadErrorSurfaces(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 4, RotateBytes: 1 << 16, HotTailPoints: 4, BlockPoints: 8, BlockCacheBytes: 1 << 12}
	db, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// One series only, so the file's first block is guaranteed to be hers.
	k := SeriesKey{Dataset: DatasetPrice, Type: "m5.large", Region: "us-east-1", AZ: "us-east-1a"}
	entries := make([]Entry, 100)
	for i := range entries {
		entries[i] = Entry{Key: k, At: t0.Add(time.Duration(i) * time.Minute), Value: float64(i)}
	}
	if n, err := db.AppendBatch(entries); err != nil || n != len(entries) {
		t.Fatalf("stored %d, err %v", n, err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	corruptFirstColdBlock(t, dir)

	// Reopen so the decoded-block cache is cold: the only way to the
	// damaged bytes is through a real disk read + CRC check.
	db, err = OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatalf("reopen after data-section corruption must succeed (index is intact): %v", err)
	}
	defer db.Close()

	end := t0.Add(1000 * time.Hour)
	if _, err := db.Query(k, time.Time{}, end); !errors.Is(err, ErrColdRead) {
		t.Fatalf("Query error = %v, want ErrColdRead", err)
	}
	// Paged reads landing on the damaged block (page 1 of the stream),
	// from an unbounded window and from a position.
	if _, err := db.QueryAfter(k, time.Time{}, 0, end, 10); !errors.Is(err, ErrColdRead) {
		t.Fatalf("QueryAfter from the zero time error = %v, want ErrColdRead", err)
	}
	if _, err := db.QueryAfter(k, t0, 0, end, 10); !errors.Is(err, ErrColdRead) {
		t.Fatalf("QueryAfter error = %v, want ErrColdRead", err)
	}
	if _, err := db.ChangeIntervals(k); !errors.Is(err, ErrColdRead) {
		t.Fatalf("ChangeIntervals error = %v, want ErrColdRead", err)
	}
	if _, _, err := db.WindowMean(k, time.Time{}, end); !errors.Is(err, ErrColdRead) {
		t.Fatalf("WindowMean error = %v, want ErrColdRead", err)
	}
	if _, err := db.Grid(k, t0, t0.Add(90*time.Minute), 10*time.Minute); !errors.Is(err, ErrColdRead) {
		t.Fatalf("Grid error = %v, want ErrColdRead", err)
	}

	// Counting never decodes blocks (counts live in the CRC'd index), and
	// the hot tail is still in memory: both must keep working so the
	// store degrades read-by-read, not wholesale.
	if n, err := db.CountAfter(k, time.Time{}, 0, end); err != nil || n != len(entries) {
		t.Fatalf("CountAfter = (%d, %v), want (%d, nil)", n, err, len(entries))
	}
	if p, ok, err := db.Last(k); err != nil || !ok || p.Value != 99 {
		t.Fatalf("Last = (%+v, %v, %v), want the hot-tail point", p, ok, err)
	}
}

// TestClosedStoreColdReadIsNotCorruption reads sealed history after
// Close. The block files are closed, not damaged: the reads must fail
// without ErrColdRead and leave ColdReadErrors, the corruption
// odometer, at zero.
func TestClosedStoreColdReadIsNotCorruption(t *testing.T) {
	// No block cache, so every cold read goes to the (closed) file.
	opts := Options{Shards: 4, HotTailPoints: 4, BlockPoints: 8, BlockCacheBytes: -1}
	db, err := OpenWithOptions(t.TempDir(), opts)
	if err != nil {
		t.Fatal(err)
	}
	k := SeriesKey{Dataset: DatasetPrice, Type: "m5.large", Region: "us-east-1", AZ: "us-east-1a"}
	for i := 0; i < 100; i++ {
		if err := db.Append(k, t0.Add(time.Duration(i)*time.Minute), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if db.SealedBlocks() == 0 {
		t.Fatal("workload sealed nothing")
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(k, time.Time{}, t0.Add(time.Hour)); err == nil || errors.Is(err, ErrColdRead) {
		t.Fatalf("cold Query after Close: err = %v, want a closed-store error", err)
	}
	if _, _, err := db.ValueAt(k, t0.Add(time.Minute)); err == nil || errors.Is(err, ErrColdRead) {
		t.Fatalf("cold ValueAt after Close: err = %v, want a closed-store error", err)
	}
	if n := db.ColdReadErrors(); n != 0 {
		t.Fatalf("reads on a closed store counted %d cold read errors, want 0", n)
	}
}
