package tsdb

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
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

// snapshotBytes encodes the store's captured series with the checkpoint
// file's codec.
func snapshotBytes(t testing.TB, db *DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := encodeSnapshot(&buf, db.capture()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// sameRecords asserts decoded records carry exactly the captured series:
// same keys in the same (canonical) order, same points. Consecutive
// records of one key (chunks) count as one series.
func sameRecords(t *testing.T, got, want []snapshotSeries) {
	t.Helper()
	var merged []snapshotSeries
	for _, rec := range got {
		if n := len(merged); n > 0 && merged[n-1].key == rec.key {
			merged[n-1].points = append(merged[n-1].points, rec.points...)
			continue
		}
		merged = append(merged, snapshotSeries{key: rec.key, points: append([]sample(nil), rec.points...)})
	}
	if len(merged) != len(want) {
		t.Fatalf("decoded %d series, want %d", len(merged), len(want))
	}
	for i := range want {
		if merged[i].key != want[i].key || len(merged[i].points) != len(want[i].points) {
			t.Fatalf("series %d: %v with %d points, want %v with %d",
				i, merged[i].key, len(merged[i].points), want[i].key, len(want[i].points))
		}
		for j, p := range want[i].points {
			if q := merged[i].points[j]; q != p {
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

	recs, err := decodeSnapshot(bytes.NewReader(enc))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 13 {
		t.Fatalf("decoded %d series records, want 13", len(recs))
	}
	sameRecords(t, recs, want)

	// Deterministic encoding: what decoded encodes back to the same bytes.
	var again bytes.Buffer
	if err := encodeSnapshot(&again, recs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(enc, again.Bytes()) {
		t.Error("snapshot encoding is not deterministic")
	}
}

// TestOversizedKeyRejected: keys longer than the uint16 length fields of
// the WAL and snapshot codecs must be rejected at append time, not
// silently truncated into unreadable records.
func TestOversizedKeyRejected(t *testing.T) {
	db, _ := Open("")
	big := make([]byte, 70000)
	for i := range big {
		big[i] = 'x'
	}
	k := SeriesKey{Dataset: string(big), Type: "t", Region: "r", AZ: "a"}
	if err := db.Append(k, t0, 1); err == nil {
		t.Error("oversized key accepted by Append")
	}
	if _, err := db.AppendIfChanged(k, t0, 1); err == nil {
		t.Error("oversized key accepted by AppendIfChanged")
	}
	if n, err := db.AppendBatch([]Entry{{Key: k, At: t0, Value: 1}}); err == nil || n != 0 {
		t.Errorf("oversized key accepted by AppendBatch: n=%d err=%v", n, err)
	}
	if db.PointCount() != 0 {
		t.Error("oversized key stored points")
	}
}

// TestSnapshotCorruption: every single-byte mutation of a valid snapshot
// must either fail cleanly or (for float payload bytes) decode the same
// series/point structure — never panic, never drop series silently.
func TestSnapshotCorruption(t *testing.T) {
	db, _ := Open("")
	populate(t, db, 3, 9)
	valid := snapshotBytes(t, db)

	// Truncations at every length must error (header is the only prefix
	// that can decode: an empty store's snapshot is 14 bytes).
	for cut := 0; cut < len(valid); cut++ {
		if _, err := decodeSnapshot(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d decoded successfully", cut)
		}
	}

	// Random byte flips: CRC (or structural validation) must catch
	// everything that changes meaning; a decode that does succeed must not
	// lose series or points.
	rng := simrand.New(7).Stream("corrupt")
	for trial := 0; trial < 300; trial++ {
		mutated := bytes.Clone(valid)
		pos := rng.Intn(len(mutated))
		mutated[pos] ^= byte(1 + rng.Intn(255))
		recs, err := decodeSnapshot(bytes.NewReader(mutated))
		if err != nil {
			continue
		}
		points := 0
		for _, rec := range recs {
			points += len(rec.points)
		}
		if len(recs) != 3 || points != 27 {
			t.Fatalf("mutation at %d silently changed structure: %d records, %d points", pos, len(recs), points)
		}
	}
}

// TestCorruptCheckpointFailsOpen flips one byte of a committed
// checkpoint-*.snap: the checkpoint is the only copy of the history it
// covers, so Open must fail rather than serve a partial archive.
func TestCorruptCheckpointFailsOpen(t *testing.T) {
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
	// Inside the first record's key bytes: only the record CRC guards them.
	raw[len(snapshotMagic)+6+8+4] ^= 0x01
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if re, err := Open(dir); err == nil {
		re.Close()
		t.Fatalf("open served %d points over a corrupt checkpoint", re.PointCount())
	} else if !strings.Contains(err.Error(), "loading checkpoint") {
		t.Fatalf("open failed with %v, want the checkpoint load error", err)
	}
}

// TestSnapshotChunksOversizedSeries checks that a series whose encoded
// record would exceed the decoder's payload cap is split into multiple
// same-key records that merge back losslessly. (Exercised with a small
// artificial limit; in production chunkSnapshotSeries runs with
// maxSnapshotPayload, below which decodeSnapshot rejects nothing.)
func TestSnapshotChunksOversizedSeries(t *testing.T) {
	db, _ := OpenSharded("", 4)
	populate(t, db, 2, 100)
	recs := db.capture()

	// Chunk with a limit that fits ~8 points per record.
	key := recs[0].key.String()
	limit := 2 + len(key) + 4 + 16*8
	chunked := chunkSnapshotSeries(recs, limit)
	if len(chunked) <= len(recs) {
		t.Fatalf("chunking produced %d records from %d series", len(chunked), len(recs))
	}
	for _, rec := range chunked {
		if plen := 2 + len(rec.key.String()) + 4 + 16*len(rec.points); plen > limit {
			t.Fatalf("chunk payload %d exceeds limit %d", plen, limit)
		}
	}
	// The chunked stream must decode back into the same series.
	var buf bytes.Buffer
	if err := encodeSnapshot(&buf, chunked); err != nil {
		t.Fatal(err)
	}
	got, err := decodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(chunked) {
		t.Fatalf("decoded %d records, want the %d chunks", len(got), len(chunked))
	}
	sameRecords(t, got, recs)

	// And recovery merges consecutive same-key records back in order: a
	// checkpoint file holding the chunks loads into an identical store.
	dir := t.TempDir()
	durable, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	populate(t, durable, 2, 100)
	if err := durable.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	name := durable.man.Checkpoint
	if err := durable.Close(); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := encodeSnapshot(&buf, chunked); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, name), buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	sameContents(t, db, re)
}
