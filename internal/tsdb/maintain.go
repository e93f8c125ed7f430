package tsdb

// Store-internal maintenance: the append path's enforcement of the
// byte trigger.
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
//   - One enforcement site: the end of every append (or batch), after
//     its records reach the log. The batch that crosses the trigger
//     checkpoints before it returns, so a store whose last append
//     succeeded is not left idle above the threshold, and the replay
//     tail stays bounded by CheckpointAfterBytes plus one batch even for
//     writers that compress months of simulated time into one
//     wall-clock second. The byte check is one atomic load of a
//     store-level total, so the hot path pays nothing while the trigger
//     is cold. No goroutine and no clock: a store that nobody appends to
//     has nothing new to checkpoint.
//
// Two cases leave a tail above the threshold until the next append:
// a failed checkpoint (the retry waits out maintenanceRetryBackoff), and
// a batch that finds another checkpoint in flight whose cut preceded the
// batch's records.
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
// last checkpoint never exceed (CheckpointAfterBytes + one batch) / 10 B,
// nor CheckpointAfterBytes / 10 B once the batch has returned.
//
// # Single-flight
//
// Every checkpoint — manual Checkpoint(), the append path's, a server's
// publication — serializes on cpMu. The append path only TryLocks and
// skips: whoever holds cpMu is already reclaiming the tail, and the
// append never blocks behind it. Under the lock it re-checks the
// trigger, so a manual checkpoint that landed first satisfies it and no
// redundant snapshot is stacked on top. Close takes cpMu too, so it
// waits out whichever checkpoint is in flight.

import (
	"time"
)

// pointCharge is what a stored point counts toward the byte trigger
// beside its WAL bytes: the bound on hot points grown between checkpoints
// is the threshold over it, however small the WAL's entries get.
const pointCharge = 10

// maintenanceRetryBackoff is how long the append path stands down after
// a failed maintenance checkpoint. A latched trigger only clears when a
// checkpoint succeeds, so without the backoff a persistent failure
// (disk full, unwritable directory) would make every append re-attempt
// a full snapshot write synchronously.
const maintenanceRetryBackoff = 5 * time.Second

// sealedSegments returns the number of swapped-out WAL segments on disk
// that no committed checkpoint covers — what a checkpoint that failed
// after its swap leaves behind, for the next one to reclaim.
func (db *DB) sealedSegments() int { return int(db.sealedN.Load()) }

// setSealed records behind sealedSegments how many segments lie below
// the active one and at or above the manifest's walSeq. Called wherever
// either moves: under cpMu in a checkpoint, or single-threaded during
// Open.
func (db *DB) setSealed() { db.sealedN.Store(int64(db.walSeq - db.man.WALSeq)) }

// byteTriggerHot is the single definition of the maintenance trigger;
// the append path's fast check and its re-check under cpMu both go
// through it. A read-only store never counts toward it: only a writable
// open seeds the counters with its replayed tail, and its appends are
// rejected before they count.
func (db *DB) byteTriggerHot() bool {
	if db.dir == "" || db.cpAfterBytes <= 0 {
		return false
	}
	t := uint64(db.cpAfterBytes)
	return db.cpBytesTotal.Load() >= t || db.cpPointsTotal.Load()*pointCharge >= t
}

// enforceMaintenance runs at the end of every append, after its records
// reached the log and with no shard lock held: when the un-checkpointed
// WAL has reached the byte threshold, checkpoint now. TryLock is the
// single-flight: if a checkpoint is already in flight (manual, a
// publication, or another appender's), this append returns without
// stacking a second one behind it.
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
	if db.closed.Load() || !db.byteTriggerHot() {
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
