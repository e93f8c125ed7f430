package tsdb

// Regression tests for the silent cold-read hole: the window copy used to
// `continue` past a cold block whose decode failed, so a long-window
// query over a corrupted (or unreadable) block file returned a silently
// truncated result with a nil error. Every read path must surface
// ErrColdRead instead — and only for corruption: a read on a closed
// store is not one.

import (
	"bytes"
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

// appendToFirstColdBlock rewrites the store's first block file with junk
// bytes appended to its first block's stream. Every CRC — the block's
// and the index's — is recomputed to match, and each block keeps its
// point count and time range, so the file opens and reads cleanly until
// a full decode of that block reaches the junk: the trailing-data check
// is the only one that can catch it.
func appendToFirstColdBlock(t *testing.T, dir string) {
	t.Helper()
	path := filepath.Join(dir, blockFileName(1))
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	index, err := readBlockIndex(f, st.Size())
	if err != nil {
		t.Fatal(err)
	}
	entries := make([]blockSealEntry, len(index))
	for i, ie := range index {
		entries[i] = blockSealEntry{key: ie.key, canon: ie.key.String()}
		for _, b := range ie.blocks {
			data := make([]byte, b.length)
			if _, err := f.ReadAt(data, int64(b.off)); err != nil {
				t.Fatal(err)
			}
			entries[i].blocks = append(entries[i].blocks,
				encodedBlock{data: data, count: b.count, minAt: b.minAt, maxAt: b.maxAt})
		}
	}
	first := &entries[0].blocks[0]
	first.data = append(first.data, 0xA5, 0x5A)
	var buf bytes.Buffer
	if err := writeBlockFileTo(&buf, entries, nil); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestColdReadErrorSurfaces(t *testing.T) {
	opts := tuning{Options: Options{BlockCacheBytes: 1 << 12}, shards: 4, hotTail: 4, blockPoints: 8}
	// One series only, so the file's first block is guaranteed to be hers.
	k := SeriesKey{Dataset: DatasetPrice, Type: "m5.large", Region: "us-east-1", AZ: "us-east-1a"}
	entries := make([]Entry, 100)
	for i := range entries {
		entries[i] = Entry{Key: k, At: t0.Add(time.Duration(i) * time.Minute), Value: float64(i)}
	}
	// sealed builds a closed store whose series has sealed all but its
	// hot tail, damages it with corrupt, and reopens it, so the
	// decoded-block cache is cold and no block has been decoded yet: the
	// only way to the damaged bytes is through a real disk read + CRC
	// check + decode.
	sealed := func(t *testing.T, corrupt func(*testing.T, string)) *DB {
		dir := t.TempDir()
		db, err := openTuned(dir, opts)
		if err != nil {
			t.Fatal(err)
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
		corrupt(t, dir)
		db, err = openTuned(dir, opts)
		if err != nil {
			t.Fatalf("reopen after data-section corruption must succeed (index is intact): %v", err)
		}
		t.Cleanup(func() { db.Close() })
		return db
	}

	t.Run("bit-flip", func(t *testing.T) {
		db := sealed(t, corruptFirstColdBlock)
		coldReadsFail(t, db, k, len(entries))
	})

	// The first block's stream carries junk past its count, behind valid
	// CRCs. A window ending at that block's first points needs only its
	// prefix, which decodes fine — but a window decode is allowed only
	// after a full decode, and the full decode's trailing-data check
	// fails, so the block never earns one: every such read fails, not
	// just the first.
	t.Run("trailing-data", func(t *testing.T) {
		db := sealed(t, appendToFirstColdBlock)
		hourly, _ := db.Tier(Res1h, AggMax)
		from, to := t0, t0.Add(time.Minute)
		reads := map[string]func() error{
			"QueryAfter": func() error { _, err := db.QueryAfter(k, from, 0, to, -1); return err },
			"CountAfter": func() error { _, err := db.CountAfter(k, from, 0, to); return err },
			"ValueAt":    func() error { _, _, err := db.ValueAt(k, to); return err },
			"WindowMean": func() error { _, _, err := db.WindowMean(k, from, to); return err },
			"Tier.Query": func() error { _, err := hourly.Query(k, from, to); return err },
		}
		for round := 0; round < 3; round++ {
			for name, read := range reads {
				before := db.coldReadErrors()
				if err := read(); !errors.Is(err, ErrColdRead) {
					t.Fatalf("round %d: %s error = %v, want ErrColdRead", round, name, err)
				}
				if got := db.coldReadErrors() - before; got != 1 {
					t.Fatalf("round %d: %s counted %d cold read errors, want 1", round, name, got)
				}
			}
		}
		// Blocks after the damaged one are intact and keep serving.
		late := t0.Add(50 * time.Minute)
		if pts, err := db.Query(k, late, late.Add(time.Minute)); err != nil || len(pts) != 2 {
			t.Fatalf("Query past the damaged block = (%d points, %v), want (2, nil)", len(pts), err)
		}
	})
}

// coldReadsFail asserts that every read through the store's first cold
// block, damaged by the caller, fails with ErrColdRead, while reads that
// need no decode of it keep working.
func coldReadsFail(t *testing.T, db *DB, k SeriesKey, n int) {
	t.Helper()
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
	if got, err := db.CountAfter(k, time.Time{}, 0, end); err != nil || got != n {
		t.Fatalf("CountAfter = (%d, %v), want (%d, nil)", got, err, n)
	}
	if p, ok, err := db.Last(k); err != nil || !ok || p.Value != 99 {
		t.Fatalf("Last = (%+v, %v, %v), want the hot-tail point", p, ok, err)
	}
}

// TestClosedStoreColdReadIsNotCorruption reads sealed history after
// Close. The block files are closed, not damaged: the reads must fail
// without ErrColdRead and leave coldReadErrors, the corruption
// odometer, at zero.
func TestClosedStoreColdReadIsNotCorruption(t *testing.T) {
	// No block cache, so every cold read goes to the (closed) file.
	opts := tuning{Options: Options{BlockCacheBytes: -1}, shards: 4, hotTail: 4, blockPoints: 8}
	db, err := openTuned(t.TempDir(), opts)
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
	if n := db.coldReadErrors(); n != 0 {
		t.Fatalf("reads on a closed store counted %d cold read errors, want 0", n)
	}
}
