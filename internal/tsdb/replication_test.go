package tsdb

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// copyReplica ships src's current ReplicationSnapshot into dstDir the
// way the archive puller does: stage every artifact, fsync, then commit
// the manifest — the sole commit point. Returns the snapshot it shipped.
func copyReplica(t *testing.T, src *DB, dstDir string) *ReplicationSnapshot {
	t.Helper()
	snap, err := src.ReplicationSnapshot()
	if err != nil {
		t.Fatalf("ReplicationSnapshot: %v", err)
	}
	if err := os.MkdirAll(dstDir, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, a := range snap.Artifacts {
		if !IsReplicationArtifactName(a.Name) {
			t.Fatalf("snapshot listed non-artifact name %q", a.Name)
		}
		in, err := os.Open(filepath.Join(src.Dir(), a.Name))
		if err != nil {
			t.Fatalf("open artifact: %v", err)
		}
		out, err := os.Create(filepath.Join(dstDir, a.Name))
		if err != nil {
			t.Fatalf("stage artifact: %v", err)
		}
		n, err := io.Copy(out, in)
		in.Close()
		if err == nil {
			err = out.Close()
		}
		if err != nil {
			t.Fatalf("copy artifact %s: %v", a.Name, err)
		}
		if n != a.Size {
			t.Fatalf("artifact %s: copied %d bytes, listing said %d", a.Name, n, a.Size)
		}
	}
	if err := SyncReplicaDir(dstDir); err != nil {
		t.Fatal(err)
	}
	if err := CommitReplicatedManifest(dstDir, snap.Manifest); err != nil {
		t.Fatalf("committing manifest: %v", err)
	}
	return snap
}

// assertStoresEqual compares every series of a against b across every
// read primitive a replica serves.
func assertStoresEqual(t *testing.T, a, b *DB) {
	t.Helper()
	end := t0.Add(1000000 * time.Hour)
	ka, kb := a.Keys(KeyFilter{}), b.Keys(KeyFilter{})
	if len(ka) != len(kb) {
		t.Fatalf("key counts differ: %d vs %d", len(ka), len(kb))
	}
	for i, k := range ka {
		if k != kb[i] {
			t.Fatalf("key %d differs: %v vs %v", i, k, kb[i])
		}
		pa := noerr(a.Query(k, time.Time{}, end))
		pb := noerr(b.Query(k, time.Time{}, end))
		if len(pa) != len(pb) {
			t.Fatalf("%v: %d vs %d points", k, len(pa), len(pb))
		}
		for j := range pa {
			if !pa[j].At.Equal(pb[j].At) || pa[j].Value != pb[j].Value {
				t.Fatalf("%v point %d: (%v,%v) vs (%v,%v)", k, j, pa[j].At, pa[j].Value, pb[j].At, pb[j].Value)
			}
		}
		la, oka, err := a.Last(k)
		if err != nil {
			t.Fatal(err)
		}
		lb, okb, err := b.Last(k)
		if err != nil {
			t.Fatal(err)
		}
		if oka != okb || (oka && (!la.At.Equal(lb.At) || la.Value != lb.Value)) {
			t.Fatalf("%v last differs: (%v,%v) vs (%v,%v)", k, la.At, la.Value, lb.At, lb.Value)
		}
		ca := noerr(a.CountAfter(k, time.Time{}, 0, end))
		cb := noerr(b.CountAfter(k, time.Time{}, 0, end))
		if ca != cb {
			t.Fatalf("%v counts differ: %d vs %d", k, ca, cb)
		}
	}
	for _, res := range testResolutions {
		for _, agg := range testAggs {
			ta, _ := a.Tier(res, agg)
			tb, _ := b.Tier(res, agg)
			for _, k := range ka {
				pa, pb := noerr(ta.Query(k, time.Time{}, end)), noerr(tb.Query(k, time.Time{}, end))
				if len(pa) != len(pb) {
					t.Fatalf("%v %v/%s: %d vs %d buckets", k, res, agg, len(pa), len(pb))
				}
				for j := range pa {
					if !pa[j].At.Equal(pb[j].At) || pa[j].Value != pb[j].Value {
						t.Fatalf("%v %v/%s bucket %d: (%v,%v) vs (%v,%v)", k, res, agg, j, pa[j].At, pa[j].Value, pb[j].At, pb[j].Value)
					}
				}
			}
		}
	}
}

// TestReplicaDifferential is the tsdb-level convergence proof: after
// every primary checkpoint, shipping the replication snapshot and
// reopening read-only yields a store reference-equal to the primary's
// committed state at the ship, across raw reads, counts, Last, and every
// rollup tier — including an incremental re-ship that only adds the
// delta files. The replica's buckets also equal a naive fold of every
// point the primary holds.
func TestReplicaDifferential(t *testing.T) {
	pdir, rdir := t.TempDir(), t.TempDir()
	db, err := openTuned(pdir, rollupOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()

	open := func() *DB {
		t.Helper()
		r, err := openTuned(rdir, tuning{Options: Options{ReadOnly: true}, shards: 4})
		if err != nil {
			t.Fatalf("read-only open: %v", err)
		}
		return r
	}

	ref := make(map[SeriesKey][]Point)
	for round, n := range []int{600, 600, 600} {
		entries := rollupEntries(n, round*n)
		if _, err := db.AppendBatch(entries); err != nil {
			t.Fatal(err)
		}
		addRef(ref, entries)
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		copyReplica(t, db, rdir)
		replica := open()
		if !replica.readOnly {
			t.Fatal("replica is not read-only")
		}
		assertStoresEqual(t, db, replica)
		assertRollupsMatch(t, replica, ref)
		if err := replica.Close(); err != nil {
			t.Fatalf("closing replica: %v", err)
		}
	}

	// The ship is crash-safe at its commit point: artifacts staged but no
	// manifest committed must leave the previous replica state servable.
	if _, err := db.AppendBatch(rollupEntries(300, 1800)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	preSnap := noerr(db.ReplicationSnapshot())
	// Stage the new artifacts without committing the manifest.
	for _, a := range preSnap.Artifacts {
		src := noerr(os.ReadFile(filepath.Join(pdir, a.Name)))
		if err := os.WriteFile(filepath.Join(rdir, a.Name), src, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	stale := open()
	// The stale replica serves its old manifest's state: fewer points
	// than the primary, but a coherent store.
	if stale.PointCount() >= db.PointCount() {
		t.Fatalf("stale replica claims %d points, primary has %d — staged files leaked into the committed view",
			stale.PointCount(), db.PointCount())
	}
	stale.Close()
}

// TestReadOnlyStoreRejectsWrites locks down the whole write surface of
// a read-only open.
func TestReadOnlyStoreRejectsWrites(t *testing.T) {
	dir := t.TempDir()
	db, err := openTuned(dir, sealedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AppendBatch(sealEntries(64, 0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	ro, err := openTuned(dir, tuning{Options: Options{ReadOnly: true}, shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer ro.Close()
	k := sealKeys()[0]
	if err := ro.Append(k, t0.Add(time.Hour*100000), 1); err == nil {
		t.Error("read-only store accepted an append")
	}
	if _, err := ro.AppendBatch(sealEntries(4, 100000)); err == nil {
		t.Error("read-only store accepted a batch append")
	}
	if err := ro.Checkpoint(); err == nil {
		t.Error("read-only store accepted a checkpoint")
	}
	if ro.maintainerActive() {
		t.Error("read-only store runs a maintenance daemon")
	}
}

// TestReadOnlyOpenRefusals: the open paths a replica must never take.
func TestReadOnlyOpenRefusals(t *testing.T) {
	if _, err := openTuned("", tuning{Options: Options{ReadOnly: true}}); err == nil {
		t.Error("memory-only read-only open succeeded")
	}
	empty := t.TempDir()
	if _, err := openTuned(empty, tuning{Options: Options{ReadOnly: true}}); err == nil {
		t.Error("read-only open of a manifest-less directory succeeded")
	}
	if HasCommittedManifest(empty) {
		t.Error("HasCommittedManifest true for an empty directory")
	}
	dir := t.TempDir()
	db, err := openTuned(dir, sealedOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	if !HasCommittedManifest(dir) {
		t.Error("HasCommittedManifest false for a committed directory")
	}
}

func TestIsReplicationArtifactName(t *testing.T) {
	valid := []string{
		"wal-000001.log",
		"wal-000421.log",
		"wal-1000000.log",
		"blocks-000001.blk",
		"checkpoint-000007.snap",
	}
	for _, n := range valid {
		if !IsReplicationArtifactName(n) {
			t.Errorf("%q rejected, want accepted", n)
		}
	}
	invalid := []string{
		"", "MANIFEST", "rollup/MANIFEST", "points.wal",
		"../wal-000001.log", "wal-000001.log.tmp",
		"rollup/blocks-000001.blk", "rollup/wal-000001.log", "/etc/passwd",
		"blocks-1.blk", "checkpoint-1.snap", "rollup-000007.snap", "rollup-000001.snap.tmp", "wal-0-1.log",
		"wal-00000-000001.log", "wal-1.log",
		"blocks-000001.blk/..", "foo/blocks-000001.blk",
	}
	for _, n := range invalid {
		if IsReplicationArtifactName(n) {
			t.Errorf("%q accepted, want rejected", n)
		}
	}
}

func TestCommitReplicatedManifestValidates(t *testing.T) {
	dir := t.TempDir()
	if err := CommitReplicatedManifest(dir, []byte("not json")); err == nil {
		t.Error("garbage manifest committed")
	}
	if err := CommitReplicatedManifest(dir, []byte(`{"version":1,"segments":1,"offsets":[0]}`)); err == nil {
		t.Error("v1 manifest committed (needs migration, which a follower must never run)")
	}
	// Version 2 names a checkpoint of raw 16-byte points, which this build
	// cannot load.
	v2 := []byte(`{"version":2,"segments":1,"checkpointSeq":1,"checkpoint":"checkpoint-000001.snap","shards":[{"offset":0,"segs":[{"seq":1,"base":0}]}]}`)
	if err := ValidateReplicatedManifest(v2); err == nil || !strings.Contains(err.Error(), "version 2") {
		t.Errorf("v2 manifest: validation returned %v, want an error naming version 2", err)
	}
	// Version 3 cut the checkpoint at logical offsets into live segments.
	v3 := []byte(`{"version":3,"segments":1,"shards":[{"offset":0,"segs":[{"seq":1,"base":0}]}]}`)
	if err := ValidateReplicatedManifest(v3); err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Errorf("v3 manifest: validation returned %v, want an error naming version 3", err)
	}
	// Version 4 kept one segment chain per shard under a layout epoch.
	v4 := []byte(`{"version":4,"epoch":1,"segments":2,"walSeq":1}`)
	if err := ValidateReplicatedManifest(v4); err == nil || !strings.Contains(err.Error(), "version 4") {
		t.Errorf("v4 manifest: validation returned %v, want an error naming version 4", err)
	}
	// Version 5 named each WAL record's series by key; version 6 wrote
	// block files whose timestamps had no time unit; version 7 wrote
	// block files whose values had no value mode; version 8 wrote WAL
	// entries whose values took 8 raw bytes.
	for v, raw := range map[string]string{
		"version 5": `{"version":5,"walSeq":1}`,
		"version 6": `{"version":6,"walSeq":2,"checkpointSeq":1,"checkpoint":"checkpoint-000001.snap","blocks":[1],"blockSeq":1}`,
		"version 7": `{"version":7,"walSeq":2,"checkpointSeq":1,"checkpoint":"checkpoint-000001.snap","blocks":[1],"blockSeq":1}`,
		"version 8": `{"version":8,"walSeq":2,"checkpointSeq":1,"checkpoint":"checkpoint-000001.snap"}`,
	} {
		if err := ValidateReplicatedManifest([]byte(raw)); err == nil || !strings.Contains(err.Error(), v) {
			t.Errorf("%s manifest: validation returned %v, want an error naming %s", v, err, v)
		}
	}
	// Layouts of builds that materialized rollups or kept raw retention.
	for field, value := range map[string]string{"rollups": `"rollup-000004.snap"`, "retain": `{"sps":1640995200000000000}`} {
		raw := []byte(`{"version":9,"walSeq":1,"` + field + `":` + value + `}`)
		if err := CommitReplicatedManifest(dir, raw); err == nil || !strings.Contains(err.Error(), `"`+field+`"`) {
			t.Errorf("manifest naming %q: commit returned %v, want an error naming the field", field, err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "MANIFEST")); !os.IsNotExist(err) {
		t.Error("a rejected commit left a MANIFEST behind")
	}
}

// TestReplicationSnapshotCoherent: every listed artifact exists at its
// listed size, the manifest matches the committed file byte for byte,
// the checkpoint snapshot the manifest names is listed, and a sealing
// checkpoint leaves no rollup snapshot behind.
func TestReplicationSnapshotCoherent(t *testing.T) {
	dir := t.TempDir()
	db, err := openTuned(dir, rollupOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if _, err := db.AppendBatch(rollupEntries(600, 0)); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	snap, err := db.ReplicationSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	onDisk := noerr(os.ReadFile(filepath.Join(dir, "MANIFEST")))
	if string(onDisk) != string(snap.Manifest) {
		t.Error("snapshot manifest differs from the committed MANIFEST file")
	}
	listed := make(map[string]bool)
	for _, a := range snap.Artifacts {
		st, err := os.Stat(filepath.Join(dir, a.Name))
		if err != nil {
			t.Fatalf("listed artifact missing: %v", err)
		}
		if st.Size() != a.Size {
			t.Errorf("%s: size %d, listed %d", a.Name, st.Size(), a.Size)
		}
		listed[a.Name] = true
	}
	if name := db.man.Checkpoint; !strings.HasSuffix(name, ".snap") || !listed[name] {
		t.Errorf("manifest snapshot %q missing from the listing after Checkpoint()", name)
	}
	if db.ColdPointCount() == 0 {
		t.Fatal("the checkpoint sealed nothing")
	}
	if m, _ := filepath.Glob(filepath.Join(dir, "rollup-*")); len(m) != 0 {
		t.Errorf("a sealing checkpoint wrote %v", m)
	}
	if seq := db.ReplicationPosition(); seq != snap.CheckpointSeq {
		t.Errorf("position %d != snapshot %d", seq, snap.CheckpointSeq)
	}
}
