package tsdb

// Replication support: artifact enumeration for checkpoint-shipping
// followers.
//
// A durable store's committed state is entirely described by its MANIFEST
// plus the files the manifest references: the checkpoint snapshot, the
// sealed block files, the WAL segment chains, and the nested rollup
// store's equivalents one directory down. All of those files are written
// once and never modified in place (the one exception — the rollup
// store's active segments — is append-only between parent checkpoints and
// is flagged Mutable below), so a replica can be built by copying the
// artifacts and atomically installing the manifest last: the exact
// protocol the checkpoint itself uses, with HTTP in place of rename
// ordering on one machine. A follower that crashes mid-copy holds an old
// manifest referencing only old files — a stale replica, never a corrupt
// one.
//
// ReplicationSnapshot is the enumeration half of that contract;
// CommitReplicatedManifest is the install half. Both treat the manifest
// bytes as opaque-but-validated: the follower ships exactly what the
// primary committed.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
)

// ReplicationArtifact names one file of a replication snapshot, relative
// to the store directory (rollup-store artifacts carry a "rollup/"
// prefix). Size is the file's on-disk size at capture time. Mutable marks
// the only artifacts whose bytes can change under an unchanged name — the
// rollup store's active WAL segments, which grow at parent checkpoints —
// so a puller re-fetches them unconditionally instead of trusting a
// name+size match.
type ReplicationArtifact struct {
	Name    string `json:"name"`
	Size    int64  `json:"size"`
	Mutable bool   `json:"mutable,omitempty"`
}

// ReplicationSnapshot is a coherent listing of a store's committed state:
// the manifest bytes as committed (byte-identical to the MANIFEST file)
// and every file a replica needs to serve that manifest. Rollup holds the
// nested rollup store's snapshot when the store maintains one; its
// artifact names are NOT prefixed (the parent-level flattening adds the
// "rollup/" prefix — see flatten in the archive layer).
type ReplicationSnapshot struct {
	Epoch         uint64                `json:"epoch"`
	CheckpointSeq uint64                `json:"checkpointSeq"`
	Manifest      json.RawMessage       `json:"manifest"`
	Artifacts     []ReplicationArtifact `json:"artifacts"`
	Rollup        *ReplicationSnapshot  `json:"rollup,omitempty"`
}

// ReplicationSnapshot captures a coherent artifact listing under the
// checkpoint lock: the manifest cannot be replaced, blocks cannot seal,
// and sealed segments cannot be unlinked while it runs. Rotations may
// still seal new segments concurrently (they only take shard locks);
// that is harmless — an extra sealed segment just appears in the listing,
// and the chains stay coherent because sealing never changes committed
// bytes. The rollup store is flushed first and is quiescent under the
// parent's lock (all rollup writes happen inside parent checkpoints), so
// its active segments are listed at a stable size.
func (db *DB) ReplicationSnapshot() (*ReplicationSnapshot, error) {
	if db.dir == "" {
		return nil, errors.New("tsdb: memory-only store has no replication artifacts")
	}
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	if db.closed.Load() {
		return nil, errClosed
	}
	snap, err := db.replicationSnapshotLocked(false)
	if err != nil {
		return nil, err
	}
	if db.rollup != nil {
		if err := db.rollup.Flush(); err != nil {
			return nil, fmt.Errorf("tsdb: flushing rollup store for replication: %w", err)
		}
		db.rollup.cpMu.Lock()
		rs, rerr := db.rollup.replicationSnapshotLocked(true)
		db.rollup.cpMu.Unlock()
		if rerr != nil {
			return nil, rerr
		}
		snap.Rollup = rs
	}
	return snap, nil
}

// replicationSnapshotLocked enumerates one store level; the caller holds
// its cpMu. includeActive additionally lists each shard's active segment
// (marked Mutable) — used for the rollup store, whose active tail is part
// of committed rollup state, but not for the parent, whose active
// segments take concurrent appends and are covered by the next rotation
// or checkpoint instead.
func (db *DB) replicationSnapshotLocked(includeActive bool) (*ReplicationSnapshot, error) {
	raw, err := json.Marshal(db.man)
	if err != nil {
		return nil, fmt.Errorf("tsdb: encoding manifest for replication: %w", err)
	}
	s := &ReplicationSnapshot{
		Epoch:         db.man.Epoch,
		CheckpointSeq: db.man.CheckpointSeq,
		Manifest:      raw,
	}
	add := func(name string, mutable bool) error {
		st, err := os.Stat(filepath.Join(db.dir, name))
		if err != nil {
			return fmt.Errorf("tsdb: replication artifact %s: %w", name, err)
		}
		s.Artifacts = append(s.Artifacts, ReplicationArtifact{Name: name, Size: st.Size(), Mutable: mutable})
		return nil
	}
	if db.man.Checkpoint != "" {
		if err := add(db.man.Checkpoint, false); err != nil {
			return nil, err
		}
	}
	for _, seq := range db.man.Blocks {
		if err := add(blockFileName(seq), false); err != nil {
			return nil, err
		}
	}
	for i := range db.shards {
		sh := &db.shards[i]
		sh.mu.RLock()
		sealed := make([]uint64, 0, len(sh.sealed)+1)
		for _, sg := range sh.sealed {
			sealed = append(sealed, sg.seq)
		}
		var active uint64
		haveActive := includeActive && sh.walF != nil
		if haveActive {
			active = sh.walSeq
		}
		sh.mu.RUnlock()
		for _, seq := range sealed {
			if err := add(rotSegName(i, seq), false); err != nil {
				return nil, err
			}
		}
		if haveActive {
			if err := add(rotSegName(i, active), true); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

// ReplicationPosition reports the committed (epoch, checkpoint sequence)
// pair under the checkpoint lock. File-serving endpoints compare it to
// the position a client's listing was captured at: a mismatch means a
// checkpoint (or re-shard) landed in between and the client must re-list
// before the files it still wants are reclaimed under it.
func (db *DB) ReplicationPosition() (epoch, checkpointSeq uint64) {
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	return db.man.Epoch, db.man.CheckpointSeq
}

// Dir returns the store's data directory; empty for memory-only stores.
func (db *DB) Dir() string { return db.dir }

// ReadOnly reports whether the store was opened with Options.ReadOnly.
func (db *DB) ReadOnly() bool { return db.readOnly }

// IsReplicationArtifactName reports whether name is a well-formed
// artifact name a ReplicationSnapshot could list: a rotating WAL segment,
// a checkpoint snapshot, or a block file, optionally under a single
// "rollup/" prefix. Everything else — including any path that is not in
// canonical spelling — is rejected, which is what makes the name safe to
// join onto a directory for serving (no traversal, no reaching files the
// protocol does not own).
func IsReplicationArtifactName(name string) bool {
	if rest, ok := strings.CutPrefix(name, "rollup/"); ok {
		name = rest
	}
	var i int
	var seq uint64
	if scanRotSegName(name, &i, &seq) {
		return true
	}
	if scanBlockFileName(name, &seq) {
		return true
	}
	if n, err := fmt.Sscanf(name, "checkpoint-%d.snap", &seq); err == nil && n == 1 && name == checkpointName(seq) {
		return true
	}
	return false
}

// ValidateReplicatedManifest checks that raw parses as a manifest of the
// current version — the only layout any open can serve.
func ValidateReplicatedManifest(raw []byte) error {
	_, err := parseManifest(raw)
	return err
}

// CommitReplicatedManifest atomically installs raw as dir's MANIFEST:
// validate, write to a temp file, fsync, rename, fsync the directory —
// the same rename that commits a checkpoint commits the replica. Every
// artifact the manifest references must already be staged in dir; the
// caller (the puller) owns that ordering, exactly as the checkpoint owns
// writing its snapshot before its manifest.
func CommitReplicatedManifest(dir string, raw []byte) error {
	if err := ValidateReplicatedManifest(raw); err != nil {
		return err
	}
	return atomicWriteFile(filepath.Join(dir, manifestName), func(w io.Writer) error {
		_, err := w.Write(raw)
		return err
	}, nil)
}

// SyncReplicaDir fsyncs dir, making staged artifact renames durable
// before the manifest that references them is committed. Exported for
// the puller, which stages files with plain writes + renames and must
// order them against CommitReplicatedManifest the way the checkpoint
// orders its own file writes against the manifest rename.
func SyncReplicaDir(dir string) error { return syncDir(dir) }

// HasCommittedManifest reports whether dir holds a committed manifest a
// read-only open can serve. A follower uses it at startup to decide
// between reopening an existing replica and serving empty until its first
// pull lands.
func HasCommittedManifest(dir string) bool {
	_, ok, err := readManifest(dir)
	return err == nil && ok
}
