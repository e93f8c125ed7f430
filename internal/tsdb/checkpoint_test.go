package tsdb

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/simrand"
)

// populate fills a store with a deterministic multi-series data set.
func populate(t testing.TB, db *DB, seriesN, pointsN int) {
	t.Helper()
	for s := 0; s < seriesN; s++ {
		k := SeriesKey{Dataset: DatasetPrice, Type: fmt.Sprintf("t%d.large", s), Region: "us-east-1", AZ: "us-east-1a"}
		for i := 0; i < pointsN; i++ {
			if err := db.Append(k, t0.Add(time.Duration(i)*time.Minute), float64(s*pointsN+i)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

func sameContents(t *testing.T, a, b *DB) {
	t.Helper()
	if a.SeriesCount() != b.SeriesCount() || a.PointCount() != b.PointCount() {
		t.Fatalf("contents differ: %d/%d series, %d/%d points",
			a.SeriesCount(), b.SeriesCount(), a.PointCount(), b.PointCount())
	}
	for _, k := range a.Keys(KeyFilter{}) {
		pa := noerr(a.Query(k, time.Time{}, t0.Add(1000*time.Hour)))
		pb := noerr(b.Query(k, time.Time{}, t0.Add(1000*time.Hour)))
		if len(pa) != len(pb) {
			t.Fatalf("series %v: %d vs %d points", k, len(pa), len(pb))
		}
		for i := range pa {
			if !pa[i].At.Equal(pb[i].At) || pa[i].Value != pb[i].Value {
				t.Fatalf("series %v point %d: %v vs %v", k, i, pa[i], pb[i])
			}
		}
	}
}

// capture collects every series' hot points, sorted by canonical key, as
// a checkpoint would write them, without cutting the log.
func (db *DB) capture() []snapshotSeries {
	var recs []snapshotSeries
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		for k, s := range sh.series {
			recs = append(recs, snapshotSeries{key: k, points: s.points})
		}
		sh.mu.RUnlock()
	}
	sortSnapshot(recs)
	return recs
}

// snapshotBytes writes the store's captured series as a checkpoint file.
func snapshotBytes(t testing.TB, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := writeCheckpoint(&buf, db.capture()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// loadSnapshot reads a checkpoint file held in memory.
func loadSnapshot(raw []byte) ([]snapshotSeries, error) {
	return readCheckpoint(bytes.NewReader(raw), int64(len(raw)))
}

// sameRecords asserts loaded records carry exactly the captured series:
// same keys in the same (canonical) order, same points.
func sameRecords(t *testing.T, got, want []snapshotSeries) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("loaded %d series, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].key != want[i].key || len(got[i].points) != len(want[i].points) {
			t.Fatalf("series %d: %v with %d points, want %v with %d",
				i, got[i].key, len(got[i].points), want[i].key, len(want[i].points))
		}
		for j, p := range want[i].points {
			if q := got[i].points[j]; q != p {
				t.Fatalf("series %v point %d: %v, want %v", want[i].key, j, q, p)
			}
		}
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	db, _ := OpenSharded("", 8)
	populate(t, db, 13, 47)
	want := db.capture()
	enc := snapshotBytes(t, db)

	recs, err := loadSnapshot(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 13 {
		t.Fatalf("loaded %d series, want 13", len(recs))
	}
	sameRecords(t, recs, want)

	// Deterministic encoding: what loaded writes back to the same bytes.
	var again bytes.Buffer
	if err := writeCheckpoint(&again, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, again.Bytes()) {
		t.Error("checkpoint encoding is not deterministic")
	}
}

// TestSnapshotCorruption: every truncation and every single-byte mutation
// of a valid checkpoint file must either fail cleanly or load the same
// series/point structure — never panic, never drop series silently.
func TestSnapshotCorruption(t *testing.T) {
	db, _ := Open("")
	populate(t, db, 3, 9)
	valid := snapshotBytes(t, db)

	for cut := 0; cut < len(valid); cut++ {
		if _, err := loadSnapshot(valid[:cut]); err == nil {
			t.Fatalf("truncation at %d loaded successfully", cut)
		}
	}

	// Random byte flips: a CRC (or structural validation) must catch
	// everything that changes meaning; a load that does succeed must not
	// lose series or points.
	rng := simrand.New(7).Stream("corrupt")
	for trial := 0; trial < 300; trial++ {
		mutated := bytes.Clone(valid)
		pos := rng.Intn(len(mutated))
		mutated[pos] ^= byte(1 + rng.Intn(255))
		recs, err := loadSnapshot(mutated)
		if err != nil {
			continue
		}
		points := 0
		for _, rec := range recs {
			points += len(rec.points)
		}
		if len(recs) != 3 || points != 27 {
			t.Fatalf("mutation at %d silently changed structure: %d series, %d points", pos, len(recs), points)
		}
	}
}

// TestCorruptCheckpointFailsOpen flips one byte of a committed
// checkpoint-*.snap — inside a block, or inside the index — and reopens:
// the checkpoint is the only copy of the history it covers, so Open must
// fail rather than serve a partial archive, and must leave the directory
// exactly as it found it.
func TestCorruptCheckpointFailsOpen(t *testing.T) {
	for _, c := range []struct {
		name string
		// at picks the byte to flip from the checkpoint file's index
		// offset and its first block.
		at func(idxOff uint64, first blockMeta) int64
	}{
		{"block", func(_ uint64, first blockMeta) int64 { return int64(first.off + uint64(first.length)/2) }},
		// The first key's first byte, past the u32 series count and the
		// u16 key length: only the index CRC guards it.
		{"index", func(idxOff uint64, _ blockMeta) int64 { return int64(idxOff) + 4 + 2 }},
	} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			db, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			populate(t, db, 3, 9)
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			name := db.man.Checkpoint
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, name)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			index, err := readBlockIndex(bytes.NewReader(raw), int64(len(raw)))
			if err != nil {
				t.Fatal(err)
			}
			idxOff := binary.LittleEndian.Uint64(raw[len(raw)-blockFooterLen:])
			raw[c.at(idxOff, index[0].blocks[0])] ^= 0x01
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			before := dirState(t, dir)
			if re, err := Open(dir); err == nil {
				re.Close()
				t.Fatalf("open served %d points over a corrupt checkpoint", re.PointCount())
			} else if !strings.Contains(err.Error(), "loading checkpoint") {
				t.Fatalf("open failed with %v, want the checkpoint load error", err)
			}
			if after := dirState(t, dir); !reflect.DeepEqual(after, before) {
				t.Errorf("failed open changed the directory:\n before %v\n after  %v", before, after)
			}
		})
	}
}

// TestSnapshotChunksOversizedSeries checks that a series longer than one
// block holds — here 70 000 hot points on a store that never seals — is
// checkpointed as several blocks of at most maxBlockPoints and reopens
// exactly.
func TestSnapshotChunksOversizedSeries(t *testing.T) {
	const n = 70000
	k := SeriesKey{Dataset: DatasetPrice, Type: "m5.large", Region: "us-east-1", AZ: "us-east-1a"}
	entries := make([]Entry, n)
	for i := range entries {
		entries[i] = Entry{Key: k, At: t0.Add(time.Duration(i) * time.Second), Value: float64(i % 97)}
	}
	ref, _ := OpenSharded("", 4)
	if _, err := ref.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := Options{Shards: 4, HotTailPoints: -1, MaintenanceInterval: -1}
	db, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AppendBatch(entries); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	name := db.man.Checkpoint
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, name))
	if err != nil {
		t.Fatal(err)
	}
	st, err := f.Stat()
	if err != nil {
		t.Fatal(err)
	}
	index, err := readBlockIndex(f, st.Size())
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(index) != 1 || len(index[0].blocks) < 2 {
		t.Fatalf("checkpoint index holds %d series, want 1 series in at least 2 blocks", len(index))
	}
	total := 0
	for _, b := range index[0].blocks {
		if b.count > maxBlockPoints {
			t.Fatalf("block of %d points exceeds maxBlockPoints", b.count)
		}
		total += int(b.count)
	}
	if total != n {
		t.Fatalf("checkpoint blocks hold %d points, want %d", total, n)
	}
	re, err := OpenWithOptions(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sameContents(t, ref, re)
}
