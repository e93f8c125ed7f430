package tsdb

import (
	"bytes"
	"fmt"
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

func TestSnapshotRoundTrip(t *testing.T) {
	db, _ := OpenSharded("", 8)
	populate(t, db, 13, 47)

	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	// Loading into a store with a different shard count must not matter.
	db2, _ := OpenSharded("", 2)
	n, err := db2.LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if n != 13 {
		t.Fatalf("loaded %d series records, want 13", n)
	}
	sameContents(t, db, db2)

	// Deterministic encoding: the same state snapshots to the same bytes.
	var buf2 bytes.Buffer
	if err := db2.WriteSnapshot(&buf2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
		t.Error("snapshot encoding is not deterministic")
	}
}

// TestSnapshotMerge: loading on top of existing data appends when times
// advance and errors on overlap.
func TestSnapshotMerge(t *testing.T) {
	k := SeriesKey{Dataset: DatasetPrice, Type: "m5.large", Region: "r", AZ: "a"}
	early, _ := Open("")
	for i := 0; i < 5; i++ {
		_ = early.Append(k, t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	late, _ := Open("")
	for i := 10; i < 15; i++ {
		_ = late.Append(k, t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	var lateSnap bytes.Buffer
	if err := late.WriteSnapshot(&lateSnap); err != nil {
		t.Fatal(err)
	}

	// early + late snapshot: fine, 10 points total.
	if _, err := early.LoadSnapshot(bytes.NewReader(lateSnap.Bytes())); err != nil {
		t.Fatalf("merge of later snapshot failed: %v", err)
	}
	if got := early.PointCount(); got != 10 {
		t.Fatalf("merged store has %d points, want 10", got)
	}
	pts := noerr(early.Query(k, time.Time{}, t0.Add(time.Hour)))
	for i := 1; i < len(pts); i++ {
		if pts[i].At.Before(pts[i-1].At) {
			t.Fatal("merged series out of order")
		}
	}

	// late + late snapshot again: overlap (first snap point precedes the
	// series' last point? equal times are allowed, earlier are not).
	victim, _ := Open("")
	for i := 12; i < 20; i++ {
		_ = victim.Append(k, t0.Add(time.Duration(i)*time.Minute), float64(i))
	}
	if _, err := victim.LoadSnapshot(bytes.NewReader(lateSnap.Bytes())); err == nil {
		t.Error("overlapping snapshot load succeeded")
	}
}

// TestSnapshotRelogsToWAL: loading a snapshot into a WAL-backed store must
// re-log the points, so a later open of the directory alone (WAL replay,
// no snapshot) recovers the full archive.
func TestSnapshotRelogsToWAL(t *testing.T) {
	src, _ := Open("")
	populate(t, src, 4, 11)
	var snap bytes.Buffer
	if err := src.WriteSnapshot(&snap); err != nil {
		t.Fatal(err)
	}

	dir := t.TempDir()
	db, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.LoadSnapshot(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	// Live points on top of the restored data, then shut down.
	k := db.Keys(KeyFilter{})[0]
	if err := db.Append(k, t0.Add(time.Hour), 99); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// WAL-only restart: snapshot contents must still be there.
	db2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := db2.PointCount(), 4*11+1; got != want {
		t.Fatalf("after WAL-only reopen: %d points, want %d", got, want)
	}
	if p, ok := noerr2(db2.Last(k)); !ok || p.Value != 99 {
		t.Fatalf("live point lost across reopen: %v %v", p, ok)
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
// must either fail cleanly or (for float payload bytes) load the same
// series/point structure — never panic, never drop series silently.
func TestSnapshotCorruption(t *testing.T) {
	db, _ := Open("")
	populate(t, db, 3, 9)
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	valid := buf.Bytes()

	// Truncations at every length must error (header is the only prefix
	// that can decode: an empty store's snapshot is 14 bytes).
	for cut := 0; cut < len(valid); cut++ {
		db2, _ := Open("")
		if _, err := db2.LoadSnapshot(bytes.NewReader(valid[:cut])); err == nil {
			t.Fatalf("truncation at %d loaded successfully", cut)
		}
	}

	// Random byte flips: CRC (or structural validation) must catch
	// everything that changes meaning; a load that does succeed must not
	// lose series or points.
	rng := simrand.New(7).Stream("corrupt")
	for trial := 0; trial < 300; trial++ {
		mutated := bytes.Clone(valid)
		pos := rng.Intn(len(mutated))
		mutated[pos] ^= byte(1 + rng.Intn(255))
		db2, _ := Open("")
		n, err := db2.LoadSnapshot(bytes.NewReader(mutated))
		if err != nil {
			continue
		}
		if n != 3 || db2.SeriesCount() > 3 || db2.PointCount() > 27 {
			t.Fatalf("mutation at %d silently changed structure: %d records, %d series, %d points",
				pos, n, db2.SeriesCount(), db2.PointCount())
		}
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
	// The chunked stream must decode back into an identical store.
	var buf bytes.Buffer
	if err := encodeSnapshot(&buf, chunked); err != nil {
		t.Fatal(err)
	}
	db2, _ := OpenSharded("", 4)
	if _, err := db2.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	sameContents(t, db, db2)

	// And the production encoder never emits a record above the cap the
	// decoder enforces (spot-check via re-encode of this store).
	buf.Reset()
	if err := db.WriteSnapshot(&buf); err != nil {
		t.Fatal(err)
	}
	db3, _ := OpenSharded("", 4)
	if _, err := db3.LoadSnapshot(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	sameContents(t, db, db3)
}
