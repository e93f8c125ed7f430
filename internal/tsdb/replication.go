package tsdb

// Replication support: artifact enumeration for checkpoint-shipping
// followers.
//
// A durable store's committed state is entirely described by its MANIFEST
// plus the files the manifest references: the checkpoint snapshot, the
// sealed block files, and the WAL segments the checkpoint does not cover
// yet. All of those files are written once and never modified in place
// (a segment is listed only after a checkpoint swapped it out), so a replica
// can be built by copying the artifacts and atomically installing the
// manifest last: the exact protocol the checkpoint itself uses, with HTTP
// in place of rename ordering on one machine. A follower that crashes mid-copy holds an old
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
)

// ReplicationArtifact names one file of a replication snapshot, relative
// to the store directory. Size is the file's on-disk size at capture
// time; every artifact is immutable, so name and size identify its bytes.
type ReplicationArtifact struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
}

// ReplicationSnapshot is a coherent listing of a store's committed state:
// the manifest bytes as committed (byte-identical to the MANIFEST file)
// and every file a replica needs to serve that manifest.
type ReplicationSnapshot struct {
	CheckpointSeq uint64                `json:"checkpointSeq"`
	Manifest      json.RawMessage       `json:"manifest"`
	Artifacts     []ReplicationArtifact `json:"artifacts"`
}

// ReplicationSnapshot captures a coherent artifact listing under the
// checkpoint lock: the manifest cannot be replaced, blocks cannot seal,
// and no segment can rotate or be unlinked while it runs. The listed
// segments are those a checkpoint swapped out without covering them (one
// that failed after its swap), from the manifest's walSeq up to the
// active segment. The active segment is not listed: it takes concurrent
// appends and is covered by the next checkpoint instead.
func (db *DB) ReplicationSnapshot() (*ReplicationSnapshot, error) {
	if db.dir == "" {
		return nil, errors.New("tsdb: memory-only store has no replication artifacts")
	}
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	if db.closed.Load() {
		return nil, errClosed
	}
	raw, err := json.Marshal(db.man)
	if err != nil {
		return nil, fmt.Errorf("tsdb: encoding manifest for replication: %w", err)
	}
	s := &ReplicationSnapshot{
		CheckpointSeq: db.man.CheckpointSeq,
		Manifest:      raw,
	}
	add := func(name string) error {
		st, err := os.Stat(filepath.Join(db.dir, name))
		if err != nil {
			return fmt.Errorf("tsdb: replication artifact %s: %w", name, err)
		}
		s.Artifacts = append(s.Artifacts, ReplicationArtifact{Name: name, Size: st.Size()})
		return nil
	}
	if db.man.Checkpoint != "" {
		if err := add(db.man.Checkpoint); err != nil {
			return nil, err
		}
	}
	for _, seq := range db.man.Blocks {
		if err := add(blockFileName(seq)); err != nil {
			return nil, err
		}
	}
	// walSeq only moves under cpMu, which we hold.
	for seq := db.man.WALSeq; seq < db.walSeq; seq++ {
		if err := add(rotSegName(seq)); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// ReplicationPosition reports the committed checkpoint sequence under the
// checkpoint lock. File-serving endpoints compare it to the position a
// client's listing was captured at: a mismatch means a checkpoint landed
// in between and the client must re-list before the files it still wants
// are reclaimed under it.
func (db *DB) ReplicationPosition() (checkpointSeq uint64) {
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	return db.man.CheckpointSeq
}

// Dir returns the store's data directory; empty for memory-only stores.
func (db *DB) Dir() string { return db.dir }

// ReadOnly reports whether the store was opened with Options.ReadOnly.
func (db *DB) ReadOnly() bool { return db.readOnly }

// IsReplicationArtifactName reports whether name is a well-formed
// artifact name a ReplicationSnapshot could list: a WAL segment,
// a checkpoint snapshot, or a block file. Everything else —
// including any path that is not in canonical spelling — is rejected,
// which is what makes the name safe to join onto a directory for serving
// (no traversal, no reaching files the protocol does not own).
func IsReplicationArtifactName(name string) bool {
	var seq uint64
	if scanRotSegName(name, &seq) {
		return true
	}
	if scanBlockFileName(name, &seq) {
		return true
	}
	n, err := fmt.Sscanf(name, "checkpoint-%d.snap", &seq)
	return err == nil && n == 1 && name == checkpointName(seq)
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
