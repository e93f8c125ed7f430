package tsdb

// Store-internal maintenance: the checkpoint daemon and the append
// path's enforcement of the same trigger.
//
// Checkpoint scheduling belongs to the store, not its callers: every
// writer (the collector, the server's bootstrap loop, analysis tools
// appending directly) gets a bounded replay tail, and covered WAL
// segments are reclaimed, without ever calling Checkpoint.
//
//   - One trigger, defined once (byteTriggerHot): the WAL bytes or
//     pointCharge times the points appended since the last checkpoint
//     reach Options.CheckpointAfterBytes.
//
//   - A per-store daemon goroutine (started by OpenWithOptions when the
//     trigger is configured on a writable store, stopped by Close) polls
//     every maintenanceInterval and checkpoints when it is live. It is
//     what covers a store that goes idle above the threshold.
//
//   - The trigger is additionally enforced synchronously on the
//     append path: an append (or batch) that observes a live trigger
//     checkpoints before storing, so the replay tail stays bounded by
//     CheckpointAfterBytes plus one batch even for writers that compress
//     months of simulated time into one wall-clock second (where a
//     wall-clock poll alone would let the tail grow by seconds of write
//     rate). The byte check is one atomic load of a store-level total,
//     so the hot path pays nothing while the trigger is cold.
//
// # What the byte trigger bounds
//
// Every stored point counts at least pointCharge (10) bytes toward the
// trigger, whatever its entry in the WAL takes (as little as 3 bytes: a
// 1-byte series ID, a 1-byte timestamp field, a 1-byte value), and a
// checkpoint rotates the log onto a new segment, unlinks every segment it
// covers and seals every whole block out of memory. So the bound on
// un-checkpointed WAL bytes is also the bound on the two other things
// that grow between checkpoints, and the store needs no knob for either.
// The WAL on disk is exactly the un-checkpointed records plus one header
// per segment — after a committed checkpoint, one header-only segment —
// and never more than CheckpointAfterBytes plus one batch past a
// checkpoint the append path could run. And hot points grown since the
// last checkpoint never exceed (CheckpointAfterBytes + one batch) / 10 B.
//
// # Single-flight
//
// Every checkpoint — manual Checkpoint(), daemon, append-path force —
// serializes on cpMu, and the maintenance paths re-check their trigger
// *after* acquiring it (daemon) or only TryLock and skip (append path).
// A manual checkpoint that lands first therefore satisfies the daemon's
// trigger: the daemon wakes, finds the counters already reset, and does
// nothing, instead of queueing a redundant snapshot behind the manual
// one. The append-path force never blocks behind an in-flight
// checkpoint: whoever holds cpMu is already reclaiming the tail.

import (
	"time"
)

// maintenanceInterval is the daemon's poll period. It only bounds how
// long a *quiesced* store can sit above the trigger threshold: the append
// path enforces the trigger synchronously, so a shorter interval buys
// little.
const maintenanceInterval = time.Second

// pointCharge is what a stored point counts toward the byte trigger
// beside its WAL bytes: the bound on hot points grown between checkpoints
// is the threshold over it, however small the WAL's entries get.
const pointCharge = 10

// maintenanceRetryBackoff is how long the append path stands down after
// a failed maintenance checkpoint. A latched trigger only clears when a
// checkpoint succeeds, so without the backoff a persistent failure
// (disk full, unwritable directory) would make every append re-attempt
// a full snapshot write synchronously. The daemon's ticker paces its
// own retries.
const maintenanceRetryBackoff = 5 * time.Second

// selfMaintains reports whether the store drives its own checkpoints:
// it is durable and the byte trigger is configured.
func (db *DB) selfMaintains() bool { return db.dir != "" && db.cpAfterBytes > 0 }

// maintainerActive reports whether the maintenance daemon goroutine is
// running. Even without it, the trigger is still enforced on the append
// path; the daemon additionally covers stores that go idle above the
// threshold (nothing appending, so nothing to enforce on).
func (db *DB) maintainerActive() bool { return db.maintStop != nil }

// sealedSegments returns the number of swapped-out WAL segments on disk
// that no committed checkpoint covers — what a checkpoint that failed
// after its swap leaves behind, for the next one to reclaim.
func (db *DB) sealedSegments() int { return int(db.sealedN.Load()) }

// setSealed records behind sealedSegments how many segments lie below
// the active one and at or above the manifest's walSeq. Called wherever
// either moves: under cpMu in a checkpoint, or single-threaded during
// Open.
func (db *DB) setSealed() { db.sealedN.Store(int64(db.walSeq - db.man.WALSeq)) }

// startMaintainer launches the daemon goroutine if the store maintains
// itself. Runs at the end of an open, after recovery, so the daemon only
// ever sees a fully open store.
func (db *DB) startMaintainer() {
	if !db.selfMaintains() {
		return
	}
	db.maintStop = make(chan struct{})
	db.maintDone = make(chan struct{})
	go db.maintainLoop()
}

// maintainLoop is the daemon: poll every maintenanceInterval until
// stopped.
func (db *DB) maintainLoop() {
	defer close(db.maintDone)
	t := time.NewTicker(maintenanceInterval)
	defer t.Stop()
	for {
		select {
		case <-db.maintStop:
			return
		case <-t.C:
		}
		db.maintainOnce()
	}
}

// maintainOnce checkpoints if the trigger is live. The trigger is
// re-evaluated after acquiring cpMu: a manual checkpoint (or an
// append-path force) that committed while we blocked has already reset
// the counters, and the daemon must not stack a redundant snapshot on
// top of it.
func (db *DB) maintainOnce() {
	if db.closed.Load() || !db.byteTriggerHot() {
		return
	}
	db.cpMu.Lock()
	defer db.cpMu.Unlock()
	if db.closed.Load() {
		return
	}
	db.runMaintenanceCheckpointLocked()
}

// byteTriggerHot is the single definition of the maintenance trigger;
// the daemon's poll, the under-lock re-check, and the append path's fast
// check all go through it, so the three sites can never enforce
// different bounds.
func (db *DB) byteTriggerHot() bool {
	if db.dir == "" || db.cpAfterBytes <= 0 {
		return false
	}
	t := uint64(db.cpAfterBytes)
	return db.cpBytesTotal.Load() >= t || db.cpPointsTotal.Load()*pointCharge >= t
}

// runMaintenanceCheckpointLocked re-checks the trigger and checkpoints.
// The caller holds cpMu.
func (db *DB) runMaintenanceCheckpointLocked() {
	if !db.byteTriggerHot() {
		return
	}
	if err := db.checkpointLocked(); err != nil {
		db.maintErrs.Add(1)
		db.maintRetryAt.Store(time.Now().Add(maintenanceRetryBackoff).UnixNano())
		return
	}
	db.maintRetryAt.Store(0)
	db.maintCP.Add(1)
}

// enforceMaintenance runs on the append path, before any shard lock is
// taken: when the un-checkpointed WAL has reached the byte threshold,
// checkpoint now, so the replay tail cannot outrun the threshold by more
// than one batch no matter how fast the writer is relative to the
// daemon's wall-clock poll. TryLock is the single-flight: if a checkpoint is
// already in flight (manual, daemon, or another appender's force), it
// will clear the trigger — this append proceeds without stacking a
// second one behind it.
func (db *DB) enforceMaintenance() {
	if !db.byteTriggerHot() {
		return
	}
	// After a failed attempt, stand down for the backoff window instead
	// of re-running a doomed full snapshot on every append. The trigger
	// stays latched, so enforcement resumes once the window passes.
	if ra := db.maintRetryAt.Load(); ra != 0 && time.Now().UnixNano() < ra {
		return
	}
	if !db.cpMu.TryLock() {
		return
	}
	defer db.cpMu.Unlock()
	if db.closed.Load() {
		return
	}
	db.runMaintenanceCheckpointLocked()
}

// stopMaintainer halts the daemon and waits for it to exit. An in-flight
// maintenance checkpoint completes first, so the caller (Close) never
// closes segment files out from under it.
func (db *DB) stopMaintainer() {
	if db.maintStop == nil {
		return
	}
	close(db.maintStop)
	<-db.maintDone
}
