package tsdb

// Tests for the WAL layout: refusal of layouts this build does not read,
// first-open crash leftovers, opens at another shard count, and
// checkpointing (the crash-point matrix across every durable step of the
// protocol lives in rotation_test.go).

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// legacyEntries is a deterministic multi-series append sequence shared by
// the recovery, rotation and maintenance tests.
func legacyEntries(n int) []Entry {
	out := make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		k := SeriesKey{
			Dataset: []string{DatasetPlacementScore, DatasetPrice, DatasetInterruptFree}[i%3],
			Type:    fmt.Sprintf("t%d.xlarge", i%7),
			Region:  fmt.Sprintf("r%d", i%4),
			AZ:      fmt.Sprintf("r%da", i%4),
		}
		out = append(out, Entry{Key: k, At: t0.Add(time.Duration(i) * time.Minute), Value: float64(i % 9)})
	}
	return out
}

// walRecord encodes entries as one WAL record the way writeLog writes
// them at the start of a segment: each key defines itself at its first
// entry, under the next ID from 0.
func walRecord(entries []Entry) []byte {
	ids := make(map[SeriesKey]uint64)
	base := entries[0].At.UnixNano()
	rec := beginRecord(nil, base)
	for _, e := range entries {
		id, ok := ids[e.Key]
		var def *SeriesKey
		if !ok {
			id, def = uint64(len(ids)), &e.Key
			ids[e.Key] = id
		}
		rec = appendRecordEntry(rec, id, def, base, e.At.UnixNano(), e.Value)
	}
	return finishRecord(rec, 0)
}

// contents flattens a store into key -> points for equality checks.
func contents(db *DB) map[SeriesKey][]Point {
	out := make(map[SeriesKey][]Point)
	for _, k := range db.Keys(KeyFilter{}) {
		out[k] = noerr(db.Query(k, time.Time{}, t0.Add(1000*time.Hour)))
	}
	return out
}

func assertSameContents(t *testing.T, got, want map[SeriesKey][]Point) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("series count %d, want %d", len(got), len(want))
	}
	for k, wpts := range want {
		gpts := got[k]
		if len(gpts) != len(wpts) {
			t.Fatalf("series %v: %d points, want %d", k, len(gpts), len(wpts))
		}
		for i := range wpts {
			if !gpts[i].At.Equal(wpts[i].At) || gpts[i].Value != wpts[i].Value {
				t.Fatalf("series %v point %d: %v, want %v", k, i, gpts[i], wpts[i])
			}
		}
	}
}

// dirState lists every file under dir with its SHA-256, so two calls
// compare equal only if nothing was created, truncated, rewritten, renamed
// or removed in between.
func dirState(t *testing.T, dir string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || path == dir {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			out[rel+"/"] = "dir"
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		out[rel] = fmt.Sprintf("%x", sha256.Sum256(raw))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestUnsupportedLayoutRefused opens directories holding layouts this
// build does not read. Each open — writable or read-only — must fail with
// an error naming the directory and the layout, and must leave every file
// exactly as it was: no fresh layout committed over the old data, no
// stale-file reaping, no silently empty archive.
func TestUnsupportedLayoutRefused(t *testing.T) {
	walBytes := walRecord(legacyEntries(50))
	// A version-5 segment: magic "SLWALSG4" | u64 seq 1, then one record a
	// point, each carrying its key: u32 crc | u16 keyLen | key | i64 ns |
	// f64 bits.
	v5Seg := binary.LittleEndian.AppendUint64([]byte("SLWALSG4"), 1)
	for _, e := range legacyEntries(50) {
		body := binary.LittleEndian.AppendUint16(nil, uint16(len(e.Key.String())))
		body = append(body, e.Key.String()...)
		body = binary.LittleEndian.AppendUint64(body, uint64(e.At.UnixNano()))
		body = binary.LittleEndian.AppendUint64(body, math.Float64bits(e.Value))
		v5Seg = append(binary.LittleEndian.AppendUint32(v5Seg, crc32.ChecksumIEEE(body)), body...)
	}
	// A version-4 segment header: magic | u32 shard index 0 | u32 shard
	// count 1 | u64 epoch 1 | u64 seq 1.
	v4Seg := append([]byte("SLWALSG3"), 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0)
	layouts := []struct {
		name  string
		files map[string][]byte
		want  string // the layout the error must name
	}{
		{
			name:  "points.wal without manifest",
			files: map[string][]byte{"points.wal": walBytes},
			want:  "points.wal",
		},
		{
			name: "manifest version 1",
			files: map[string][]byte{
				manifestName:             []byte(`{"version":1,"epoch":5,"segments":2,"checkpointSeq":1,"checkpoint":"checkpoint-000001.snap","offsets":[0,0]}`),
				"wal-00000.log":          append([]byte("SLWALSG1"), walBytes...),
				"wal-00001.log":          append([]byte("SLWALSG1"), walBytes...),
				"checkpoint-000001.snap": []byte("v1 checkpoint"),
				"checkpoint-000002.snap": []byte("unreferenced checkpoint a reaping pass would delete"),
				"MANIFEST.tmp":           []byte("temp file a reaping pass would delete"),
			},
			want: "manifest version 1",
		},
		{
			// Version 2 wrote each checkpoint as raw 16-byte points.
			name: "manifest version 2",
			files: map[string][]byte{
				manifestName:             []byte(`{"version":2,"epoch":1,"segments":1,"checkpointSeq":1,"checkpoint":"checkpoint-000001.snap","shards":[{"offset":0,"segs":[{"seq":1,"base":0}]}]}`),
				"wal-00000-000001.log":   v4Seg,
				"checkpoint-000001.snap": append([]byte("SLTSDBSN\x01\x00"), 0, 0, 0, 0),
				"checkpoint-000002.snap": []byte("unreferenced checkpoint a reaping pass would delete"),
				"MANIFEST.tmp":           []byte("temp file a reaping pass would delete"),
			},
			want: "manifest version 2",
		},
		{
			// Version 3 located the checkpoint cut by a logical offset into
			// each shard's live segment, whose 40-byte header carried a
			// base offset.
			name: "manifest version 3",
			files: map[string][]byte{
				manifestName:             []byte(`{"version":3,"epoch":1,"segments":1,"checkpointSeq":1,"checkpoint":"checkpoint-000001.snap","shards":[{"offset":0,"segs":[{"seq":1,"base":0}]}]}`),
				"wal-00000-000001.log":   append(append([]byte("SLWALSG2"), make([]byte, 32)...), walBytes...),
				"wal-00000-000002.log":   []byte("segment above the chain a reaping pass would delete"),
				"checkpoint-000001.snap": []byte("SLBLOCKS"),
				"checkpoint-000002.snap": []byte("unreferenced checkpoint a reaping pass would delete"),
				"MANIFEST.tmp":           []byte("temp file a reaping pass would delete"),
			},
			want: "manifest version 3",
		},
		{
			// Version 4 kept one segment chain per shard, its headers
			// naming the shard, the shard count and a layout epoch.
			name: "manifest version 4",
			files: map[string][]byte{
				manifestName:             []byte(`{"version":4,"epoch":1,"segments":1,"walSeq":1,"checkpointSeq":1,"checkpoint":"checkpoint-000001.snap"}`),
				"wal-00000-000001.log":   append(v4Seg, walBytes...),
				"wal-00000-000002.log":   []byte("segment above the chain a reaping pass would delete"),
				"checkpoint-000001.snap": []byte("SLBLOCKS"),
				"checkpoint-000002.snap": []byte("unreferenced checkpoint a reaping pass would delete"),
				"MANIFEST.tmp":           []byte("temp file a reaping pass would delete"),
			},
			want: "manifest version 4",
		},
		{
			// Version 5 wrote one WAL record per point, each naming its
			// series by key.
			name: "manifest version 5",
			files: map[string][]byte{
				manifestName:             []byte(`{"version":5,"walSeq":1,"checkpointSeq":1,"checkpoint":"checkpoint-000001.snap"}`),
				"wal-000001.log":         v5Seg,
				"wal-000003.log":         []byte("segment past the chain a reaping pass would delete"),
				"checkpoint-000001.snap": []byte("SLBLOCKS"),
				"checkpoint-000002.snap": []byte("unreferenced checkpoint a reaping pass would delete"),
				"MANIFEST.tmp":           []byte("temp file a reaping pass would delete"),
			},
			want: "manifest version 5",
		},
		{
			name: "manifest version 7",
			files: map[string][]byte{
				manifestName:     []byte(`{"version":7,"walSeq":1}`),
				"wal-000001.log": encodeRotHeader(1),
			},
			want: "manifest version 7",
		},
		{
			name: "nested rollup store",
			files: map[string][]byte{
				manifestName:                  []byte(`{"version":2,"epoch":1,"segments":1,"shards":[{"offset":0,"segs":[{"seq":1,"base":0}]}]}`),
				"wal-00000-000001.log":        v4Seg,
				"rollup/" + manifestName:      []byte(`{"version":2,"epoch":1,"segments":4,"shards":[]}`),
				"rollup/wal-00000-000001.log": v4Seg,
				"MANIFEST.tmp":                []byte("temp file a reaping pass would delete"),
			},
			want: "rollup/MANIFEST",
		},
		{
			name: "manifest naming a rollup snapshot",
			files: map[string][]byte{
				manifestName:         []byte(`{"version":6,"walSeq":1,"checkpointSeq":4,"rollups":"rollup-000004.snap"}`),
				"wal-000001.log":     encodeRotHeader(1),
				"rollup-000004.snap": []byte("SLROLLUP"),
				"MANIFEST.tmp":       []byte("temp file a reaping pass would delete"),
			},
			want: `manifest field "rollups"`,
		},
		{
			name: "manifest naming retention cuts",
			files: map[string][]byte{
				manifestName:     []byte(`{"version":6,"walSeq":1,"retain":{"sps":1640995200000000000}}`),
				"wal-000001.log": encodeRotHeader(1),
				"MANIFEST.tmp":   []byte("temp file a reaping pass would delete"),
			},
			want: `manifest field "retain"`,
		},
	}
	for _, lay := range layouts {
		for _, readOnly := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/readOnly=%v", lay.name, readOnly), func(t *testing.T) {
				dir := t.TempDir()
				for name, raw := range lay.files {
					if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(filepath.Join(dir, name), raw, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				before := dirState(t, dir)
				db, err := OpenWithOptions(dir, Options{Shards: 2, ReadOnly: readOnly, MaintenanceInterval: -1})
				if err == nil {
					n := db.PointCount()
					db.Close()
					t.Fatalf("open succeeded, serving %d points from a layout it cannot read", n)
				}
				if !strings.Contains(err.Error(), dir) || !strings.Contains(err.Error(), lay.want) {
					t.Errorf("error %q does not name both the directory %s and the layout %q", err, dir, lay.want)
				}
				if after := dirState(t, dir); !reflect.DeepEqual(after, before) {
					t.Errorf("refused open changed the directory:\n before %v\n after  %v", before, after)
				}
			})
		}
	}
}

// TestFirstOpenCrashLeftoversOpenFresh is the case beside the refusals
// that must keep working: no MANIFEST, but segment and checkpoint temp
// files from a first open that crashed before its manifest rename. Nothing
// was ever committed, so the directory opens as a fresh store and appends
// persist.
func TestFirstOpenCrashLeftoversOpenFresh(t *testing.T) {
	dir := t.TempDir()
	for name, raw := range map[string]string{
		rotSegName(1):              "partial garbage",
		checkpointName(1) + ".tmp": "also garbage",
		manifestName + ".tmp":      "unrenamed manifest",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(raw), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	db, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if db.PointCount() != 0 {
		t.Fatalf("fresh open holds %d points", db.PointCount())
	}
	entries := legacyEntries(200)
	if n, err := db.AppendBatch(entries); err != nil || n != len(entries) {
		t.Fatalf("stored %d, err %v", n, err)
	}
	want := contents(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	for _, tmp := range []string{checkpointName(1) + ".tmp", manifestName + ".tmp"} {
		if _, err := os.Stat(filepath.Join(dir, tmp)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("leftover %s not reaped (err=%v)", tmp, err)
		}
	}
	re, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSameContents(t, contents(re), want)
}

// statState lists every file under dir with its size and modification
// time.
func statState(t *testing.T, dir string) map[string]string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]string, len(ents))
	for _, e := range ents {
		st, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fmt.Sprintf("%d bytes, mtime %d", st.Size(), st.ModTime().UnixNano())
	}
	return out
}

// TestShardCountChange opens one directory at 16, then 2, then 4 shards.
// The shard count is an in-memory choice, so each open must leave every
// file's name, size, mtime and bytes unchanged and serve identical
// contents, and the appends made under each count must survive the next
// reopen. A read-only open at a count other than the writer's must
// likewise write nothing and serve what the writer flushed.
func TestShardCountChange(t *testing.T) {
	dir := t.TempDir()
	entries := legacyEntries(400)
	db, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	// A checkpoint and a WAL tail past it, so the opens below load both.
	if n, err := db.AppendBatch(entries[:300]); err != nil || n != 300 {
		t.Fatalf("stored %d, err %v", n, err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if n, err := db.AppendBatch(entries[300:]); err != nil || n != 100 {
		t.Fatalf("stored %d, err %v", n, err)
	}
	want := contents(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	unchanged := func(what string, open func() *DB) *DB {
		t.Helper()
		stats, sums := statState(t, dir), dirState(t, dir)
		db := open()
		if after := statState(t, dir); !reflect.DeepEqual(after, stats) {
			t.Fatalf("%s changed the directory:\n before %v\n after  %v", what, stats, after)
		}
		if after := dirState(t, dir); !reflect.DeepEqual(after, sums) {
			t.Fatalf("%s rewrote a file", what)
		}
		assertSameContents(t, contents(db), want)
		return db
	}
	for round, shards := range []int{16, 2, 4} {
		re := unchanged(fmt.Sprintf("opening at %d shards", shards), func() *DB {
			db, err := OpenSharded(dir, shards)
			if err != nil {
				t.Fatalf("reopen with %d shards: %v", shards, err)
			}
			return db
		})
		// Appends under the new count must persist across another reopen.
		extra := Entry{Key: entries[0].Key, At: t0.Add(time.Duration(900+round) * time.Hour), Value: float64(shards)}
		if err := re.Append(extra.Key, extra.At, extra.Value); err != nil {
			t.Fatal(err)
		}
		want[extra.Key] = append(want[extra.Key], Point{At: extra.At, Value: extra.Value})
		if err := re.Flush(); err != nil {
			t.Fatal(err)
		}
		ro := unchanged(fmt.Sprintf("a read-only open at %d shards", 2*shards), func() *DB {
			db, err := OpenWithOptions(dir, Options{Shards: 2 * shards, ReadOnly: true})
			if err != nil {
				t.Fatalf("read-only open with %d shards: %v", 2*shards, err)
			}
			return db
		})
		if err := ro.Close(); err != nil {
			t.Fatal(err)
		}
		if err := re.Close(); err != nil {
			t.Fatal(err)
		}
	}
	final, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer final.Close()
	assertSameContents(t, contents(final), want)
}

// TestCheckpointBoundedRecovery checks that a checkpoint drops every
// segment it covers and that recovery (snapshot + the segments written
// since) reproduces the full archive.
func TestCheckpointBoundedRecovery(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	pre := legacyEntries(300)
	if n, err := db.AppendBatch(pre); err != nil || n != len(pre) {
		t.Fatalf("stored %d, err %v", n, err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Compaction must have unlinked every covered segment: the store
	// keeps only the new generation the checkpoint rotated onto, which
	// holds no record yet.
	if n := db.SealedSegments(); n != 0 {
		t.Errorf("%d uncovered swapped-out segments after a committed checkpoint", n)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || filepath.Base(segs[0]) != rotSegName(2) {
		t.Errorf("segment files %v after checkpoint, want only %s", segs, rotSegName(2))
	}
	for _, p := range segs {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() != int64(rotSegHeaderLen) {
			t.Errorf("segment %s is %d bytes after checkpoint; want the %d-byte header alone", filepath.Base(p), st.Size(), rotSegHeaderLen)
		}
	}
	// Tail appends after the checkpoint.
	k := pre[0].Key
	for i := 0; i < 50; i++ {
		if err := db.Append(k, t0.Add(time.Duration(100000+i)*time.Minute), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	want := contents(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSameContents(t, contents(re), want)
	// A second checkpoint over the tail must also work and persist.
	if err := re.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// The checkpoint/rotation crash matrix lives in rotation_test.go
// (TestRotationCrashMatrix): every protocol boundary × crash before/after
// fsync, verified against the differential reference store.

// TestSegmentCrashedTailThenAppend corrupts a segment's tail, reopens
// (dropping the torn record), appends new points, and verifies the new
// points survive the next recovery — i.e. the crashed tail was truncated
// before appending, not stranded in front of the new records.
func TestSegmentCrashedTailThenAppend(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	k := key("us-east-1a")
	for i := 0; i < 20; i++ {
		if err := db.Append(k, t0.Add(time.Duration(i)*time.Minute), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, rotSegName(db.walSeq))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}

	re, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got := re.PointCount(); got != 19 {
		t.Fatalf("after torn tail: %d points, want 19", got)
	}
	for i := 0; i < 5; i++ {
		if err := re.Append(k, t0.Add(time.Duration(100+i)*time.Minute), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	re2, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re2.Close()
	if got := re2.PointCount(); got != 24 {
		t.Fatalf("appends after torn tail lost: %d points, want 24", got)
	}
}

// crashCopy copies every file of dir into a fresh directory and returns
// it: what a process killed at this moment leaves on disk, since the
// copy reads what reached write(2) whether or not it was fsynced.
func crashCopy(t *testing.T, dir string) string {
	t.Helper()
	out := t.TempDir()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		raw, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(out, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestAckedBatchSurvivesProcessCrash: an acknowledged append is
// process-crash safe on return. A copy of an open durable store's
// directory taken right after an AppendBatchIfChanged of a collector
// tick's size returns (no Flush, no Close) reopens with every point the
// batch stored, and one taken after a single Append with that point too.
func TestAckedBatchSurvivesProcessCrash(t *testing.T) {
	dir := t.TempDir()
	db := mustOpen(t, dir)
	defer db.Close()
	batch := make([]Entry, 400)
	for i := range batch {
		batch[i] = Entry{Key: key(fmt.Sprintf("az%d", i)), At: t0, Value: float64(i)}
	}
	if n, err := db.AppendBatchIfChanged(batch); err != nil || n != len(batch) {
		t.Fatalf("AppendBatchIfChanged stored %d of %d: %v", n, len(batch), err)
	}
	// check reopens a crash copy of dir and finds exactly want in it.
	check := func(cut string, want []Entry) {
		t.Helper()
		re := mustOpen(t, crashCopy(t, dir))
		defer re.Close()
		if got := re.PointCount(); got != len(want) {
			t.Errorf("after the %s: the crash copy reopened with %d points, want %d", cut, got, len(want))
		}
		for _, e := range want {
			if p, ok, err := re.Last(e.Key); err != nil || !ok || !p.At.Equal(e.At) || p.Value != e.Value {
				t.Errorf("after the %s: %v reads back %v (%v, %v), want %v at %v", cut, e.Key, p, ok, err, e.Value, e.At)
				return
			}
		}
	}
	check("batch", batch)
	single := Entry{Key: key("single"), At: t0, Value: -1}
	if err := db.Append(single.Key, single.At, single.Value); err != nil {
		t.Fatal(err)
	}
	check("single append", append(batch, single))
}

// TestCheckpointConcurrentWithAppends checkpoints repeatedly while
// writers keep appending and flushing — each Flush racing a checkpoint
// for the segments it swapped out — (run under -race in CI), then
// verifies recovery holds every acknowledged point.
func TestCheckpointConcurrentWithAppends(t *testing.T) {
	const (
		writers   = 4
		perWriter = 300
	)
	dir := t.TempDir()
	db, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			k := SeriesKey{Dataset: "price", Type: fmt.Sprintf("t%d", w), Region: "r", AZ: "a"}
			for i := 0; i < perWriter; i++ {
				if err := db.Append(k, t0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
				if i%25 == 0 {
					if err := db.Flush(); err != nil {
						t.Errorf("writer %d: flush: %v", w, err)
						return
					}
				}
			}
		}(w)
	}
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				if err := db.Checkpoint(); err != nil {
					t.Errorf("concurrent checkpoint: %v", err)
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stop)
	// One quiescent checkpoint, then crash-reopen and verify.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := contents(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.PointCount(); got != writers*perWriter {
		t.Fatalf("recovered %d points, want %d", got, writers*perWriter)
	}
	assertSameContents(t, contents(re), want)
}

// TestCheckpointMetrics: spotlake_checkpoint_seconds observes each
// committed checkpoint, a crashed one is not observed, and a reopened
// store starts from zero.
func TestCheckpointMetrics(t *testing.T) {
	dir := t.TempDir()
	db, err := OpenWithOptions(dir, rollupOpts())
	if err != nil {
		t.Fatal(err)
	}
	check := func(db *DB, want float64) {
		t.Helper()
		reg := obs.NewRegistry()
		RegisterMetrics(reg, func() *DB { return db })
		got := -1.0
		for _, s := range reg.Samples() {
			if s.Name == "spotlake_checkpoint_seconds_count" {
				got = s.Value
			}
		}
		if got != want {
			t.Errorf("spotlake_checkpoint_seconds_count = %v, want %v", got, want)
		}
	}
	if _, err := db.AppendBatch(rollupEntries(1800, 0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check(db, 1)
	if _, err := db.AppendBatch(rollupEntries(1200, 450)); err != nil {
		t.Fatal(err)
	}
	db.testCrash = func(p string) error {
		if p == "checkpoint:manifest:before-sync" {
			return errCrashPoint
		}
		return nil
	}
	if err := db.Checkpoint(); !errors.Is(err, errCrashPoint) {
		t.Fatalf("checkpoint returned %v, want injected crash", err)
	}
	db.testCrash = nil
	check(db, 1)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	check(db, 2)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenWithOptions(dir, rollupOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	check(re, 0)
}

// TestWALBytesPerStoredPoint reports the WAL bytes a stored point costs at
// the collector's shape: 1600 catalog series, one AppendBatchIfChanged a
// tick, one value in four changed. Past the first tick, whose records
// define every series, a point costs at most 12 bytes; a lone Append to
// a series already defined in the segment costs at most 30.
func TestWALBytesPerStoredPoint(t *testing.T) {
	db := mustOpen(t, t.TempDir())
	defer db.Close()
	catalog := catalogKeys()
	batch := make([]Entry, len(catalog))
	tick := func(i int) int {
		for j, k := range catalog {
			batch[j] = Entry{Key: k, At: t0.Add(time.Duration(i) * 10 * time.Minute), Value: float64((i+j)/4%9 + 1)}
		}
		n, err := db.AppendBatchIfChanged(batch)
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	first := tick(0)
	defined := db.WALBytesSinceCheckpoint()
	const ticks = 24
	stored := 0
	for i := 1; i < ticks; i++ {
		stored += tick(i)
	}
	if stored != (ticks-1)*len(catalog)/4 {
		t.Fatalf("stored %d points past the first tick, want %d", stored, (ticks-1)*len(catalog)/4)
	}
	perPoint := float64(db.WALBytesSinceCheckpoint()-defined) / float64(stored)
	t.Logf("first tick: %d points, %.1f WAL B/point; later ticks: %.2f WAL B/point",
		first, float64(defined)/float64(first), perPoint)
	if perPoint > 12 {
		t.Errorf("%.2f WAL bytes per stored point past the first tick, want <= 12", perPoint)
	}
	before := db.WALBytesSinceCheckpoint()
	if err := db.Append(catalog[0], t0.Add(ticks*10*time.Minute), 42); err != nil {
		t.Fatal(err)
	}
	if rec := db.WALBytesSinceCheckpoint() - before; rec > 30 {
		t.Errorf("a lone Append wrote a %d-byte record, want <= 30", rec)
	}
}

// TestWALReopenContinuesSegment reopens a store over the segment it was
// appending to, with no checkpoint between: the appends after each reopen
// — to series the segment already defines and to new ones — continue its
// IDs, and the next open replays all of it exactly as the reference
// holds it. The cycle runs again after a torn tail whose lost record had
// defined a series, so the truncated segment hands that ID out anew.
func TestWALReopenContinuesSegment(t *testing.T) {
	dir := t.TempDir()
	opts := Options{Shards: 4, MaintenanceInterval: -1}
	ref := newRefDB()
	open := func() *DB {
		t.Helper()
		db, err := OpenWithOptions(dir, opts)
		if err != nil {
			t.Fatal(err)
		}
		if db.walSeq != 1 {
			t.Fatalf("store appends to segment %d, want 1: nothing checkpointed", db.walSeq)
		}
		return db
	}
	apply := func(db *DB, entries []Entry) {
		t.Helper()
		if n, err := db.AppendBatch(entries); err != nil || n != len(entries) {
			t.Fatalf("stored %d of %d, err %v", n, len(entries), err)
		}
		refApplyAll(t, ref, entries)
	}
	fresh := func(n, startMin int, dataset string) []Entry {
		out := laterEntries(n, startMin)
		for i := range out {
			out[i].Key.Dataset = dataset
		}
		return out
	}
	db := open()
	apply(db, legacyEntries(200))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = open()
	// A series the segment defined keeps its ID: its next record carries
	// no key.
	before := db.WALBytesSinceCheckpoint()
	apply(db, laterEntries(1, 999))
	if rec := db.WALBytesSinceCheckpoint() - before; rec > 30 {
		t.Fatalf("the reopened store wrote a %d-byte record for a defined series, want <= 30", rec)
	}
	apply(db, append(laterEntries(100, 1000), fresh(100, 1000, "new")...))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = open()
	assertSameContents(t, contents(db), refContents(ref))

	// The last record defines a series; tearing it loses that point.
	apply(db, laterEntries(50, 2000))
	lost := Entry{Key: SeriesKey{Dataset: "lost", Type: "m5.large", Region: "r0", AZ: "r0a"}, At: t0.Add(3000 * time.Minute), Value: 1}
	if err := db.Append(lost.Key, lost.At, lost.Value); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, rotSegName(1))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-5); err != nil {
		t.Fatal(err)
	}
	db = open()
	assertSameContents(t, contents(db), refContents(ref))
	apply(db, append(append(laterEntries(60, 4000), fresh(60, 4000, "newer")...), lost))
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db = open()
	defer db.Close()
	assertSameContents(t, contents(db), refContents(ref))
}

// TestWALUndefinedIDRefused: a record that passes its crc but names a
// series ID its segment never defined, defines one out of order, or
// defines one by a key that does not parse ("a|b|c|d|e" has five
// fields), is not a torn tail. Open fails naming the segment, writable
// and read-only, and leaves the directory as it was.
func TestWALUndefinedIDRefused(t *testing.T) {
	e := legacyEntries(1)[0]
	ns := e.At.UnixNano()
	for name, rec := range map[string][]byte{
		"undefined ID": finishRecord(appendRecordEntry(beginRecord(nil, ns), 0, nil, ns, ns, 1), 0),
		"ID defined out of order": finishRecord(
			appendRecordEntry(beginRecord(nil, ns), 1, &e.Key, ns, ns, 1), 0),
		"reference past the definitions": append(walRecord([]Entry{e}),
			finishRecord(appendRecordEntry(beginRecord(nil, ns), 1, nil, ns, ns+1, 2), 0)...),
		"malformed key": finishRecord(appendRecordEntry(beginRecord(nil, ns), 0,
			&SeriesKey{Dataset: "a", Type: "b", Region: "c", AZ: "d|e"}, ns, ns, 1), 0),
	} {
		for _, readOnly := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/readOnly=%v", name, readOnly), func(t *testing.T) {
				dir := t.TempDir()
				if err := writeManifest(dir, manifest{Version: manifestVersion, WALSeq: 1}, nil); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(filepath.Join(dir, rotSegName(1)), append(encodeRotHeader(1), rec...), 0o644); err != nil {
					t.Fatal(err)
				}
				before := dirState(t, dir)
				db, err := OpenWithOptions(dir, Options{ReadOnly: readOnly, MaintenanceInterval: -1})
				if err == nil {
					db.Close()
					t.Fatalf("open succeeded over a %s record", name)
				}
				if !strings.Contains(err.Error(), rotSegName(1)) {
					t.Errorf("error %q does not name the segment", err)
				}
				if after := dirState(t, dir); !reflect.DeepEqual(after, before) {
					t.Errorf("refused open changed the directory:\n before %v\n after  %v", before, after)
				}
			})
		}
	}
}

// TestWALConcurrentDefinitions: writers in every shard define new series
// and reference defined ones at once, while checkpoints cut the log under
// them, so IDs are handed out to concurrent shard groups in both the old
// and the new segment. The WAL left after the last cut replays to exactly
// what the store held.
func TestWALConcurrentDefinitions(t *testing.T) {
	const writers, ticks = 4, 120
	dir := t.TempDir()
	db, err := OpenSharded(dir, 4)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < ticks; i++ {
				// A new series every eighth tick; the older ones change too.
				var batch []Entry
				for s := 0; s <= i/8; s++ {
					k := SeriesKey{Dataset: "price", Type: fmt.Sprintf("w%d.s%d", w, s), Region: "r", AZ: "a"}
					batch = append(batch, Entry{Key: k, At: t0.Add(time.Duration(i) * time.Minute), Value: float64(i)})
				}
				if _, err := db.AppendBatch(batch); err != nil {
					t.Errorf("writer %d: %v", w, err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5; i++ {
			if err := db.Checkpoint(); err != nil {
				t.Errorf("concurrent checkpoint: %v", err)
				return
			}
		}
	}()
	wg.Wait()
	<-done
	want := contents(db)
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := OpenSharded(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSameContents(t, contents(re), want)
}
