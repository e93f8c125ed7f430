package tsdb

// Registry wiring for the store. The DB's counters live on the DB (and
// its block cache) as obs.Counter fields — one atomic per fact,
// incremented on the hot paths. This file registers func-backed views
// of them, and of the store's configuration facts as gauges, so a
// process-wide registry can outlive any one store: followers swap
// stores on catch-up (SwapDB), so metrics read through a current()
// indirection instead of binding the counters of whichever store
// existed at wiring time.

import "repro/internal/obs"

// checkpointBuckets are the checkpoint wall-time bucket bounds in
// seconds: from an idle store's few-millisecond checkpoint to a first
// seal of a large archive.
var checkpointBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30}

// RegisterMetrics registers the store's counters, gauges and histogram on
// reg under the spotlake_store_*, spotlake_checkpoint_*,
// spotlake_maintenance_*, spotlake_blockcache_* and spotlake_block_*
// names.
// current returns the store to read at scrape time; it may return nil
// (all series then read zero), and the store it returns may change
// between scrapes — counters then restart from the new store's history,
// which is the usual counter-reset story scrape consumers already handle.
func RegisterMetrics(reg *obs.Registry, current func() *DB) {
	counter := func(name, help string, read func(db *DB) uint64) {
		reg.CounterFunc(name, help, func() uint64 {
			if db := current(); db != nil {
				return read(db)
			}
			return 0
		})
	}
	gauge := func(name, help string, read func(db *DB) float64) {
		reg.GaugeFunc(name, help, func() float64 {
			if db := current(); db != nil {
				return read(db)
			}
			return 0
		})
	}

	gauge("spotlake_store_series", "Number of live series in the store.",
		func(db *DB) float64 { return float64(db.SeriesCount()) })
	gauge("spotlake_store_points", "Total points resident or sealed in the store.",
		func(db *DB) float64 { return float64(db.PointCount()) })
	gauge("spotlake_store_hot_points", "Points resident in the in-memory hot tier.",
		func(db *DB) float64 { return float64(db.HotPointCount()) })
	gauge("spotlake_store_cold_points", "Points sealed into compressed cold blocks.",
		func(db *DB) float64 { return float64(db.ColdPointCount()) })
	gauge("spotlake_store_sealed_blocks", "Sealed cold blocks on disk.",
		func(db *DB) float64 { return float64(db.SealedBlocks()) })
	gauge("spotlake_store_cold_compressed_bytes", "Compressed on-disk bytes of the cold tier.",
		func(db *DB) float64 { return float64(db.ColdCompressedBytes()) })
	gauge("spotlake_store_sealed_segments", "Swapped-out WAL segments no committed checkpoint covers yet.",
		func(db *DB) float64 { return float64(db.SealedSegments()) })
	gauge("spotlake_store_wal_bytes_since_checkpoint", "WAL bytes appended since the last checkpoint (the recovery tail).",
		func(db *DB) float64 { return float64(db.WALBytesSinceCheckpoint()) })
	counter("spotlake_store_replayed_wal_bytes", "WAL record bytes the last open replayed beyond its checkpoint.",
		func(db *DB) uint64 { return db.ReplayedWALBytes() })
	counter("spotlake_store_cold_read_errors_total", "Cold block reads that failed; each failed its read with ErrColdRead (HTTP 500 cold_read_failed), never a partial result.",
		func(db *DB) uint64 { return db.ColdReadErrors() })
	gauge("spotlake_store_durable", "1 when the store is backed by a data directory, 0 when memory-only.",
		func(db *DB) float64 { return boolGauge(db.Durable()) })
	gauge("spotlake_store_checkpoint_after_bytes", "The store's own checkpoint size trigger, in WAL bytes (0 = disabled).",
		func(db *DB) float64 { return float64(db.cpAfterBytes) })
	gauge("spotlake_store_maintainer_active", "1 while the maintenance daemon runs; the append path enforces the trigger either way.",
		func(db *DB) float64 { return boolGauge(db.MaintainerActive()) })
	gauge("spotlake_store_hot_tail_points", "Per-series hot tail a seal keeps resident (-1 = sealing disabled).",
		func(db *DB) float64 { return float64(db.hotTail) })
	counter("spotlake_store_scanned_points_total", "Points materialized by reads (hot copies and decoded block windows, rollup folds included).",
		func(db *DB) uint64 { return db.scannedPoints() })

	reg.HistogramFunc("spotlake_checkpoint_seconds", "Wall time of committed checkpoints (manual or maintenance), from capture through sealing, manifest commit and WAL reclamation.",
		func() obs.HistogramSnapshot {
			if db := current(); db != nil {
				return db.cpTime.Snapshot()
			}
			return obs.NewHistogram(checkpointBuckets).Snapshot()
		})

	counter("spotlake_maintenance_checkpoints_total", "Checkpoints committed by the store's maintainer (daemon ticks and append-path forces; manual checkpoints not counted).",
		func(db *DB) uint64 { return db.maintCP.Value() })
	counter("spotlake_maintenance_forced_by_bytes_total", "Maintenance checkpoints with the WAL byte trigger live.",
		func(db *DB) uint64 { return db.maintByBytes.Value() })
	counter("spotlake_maintenance_errors_total", "Maintenance checkpoints that failed (retried on the next tick); climbing means the store cannot write checkpoints.",
		func(db *DB) uint64 { return db.maintErrs.Value() })

	counter("spotlake_blockcache_hits_total", "Block cache hits.",
		func(db *DB) uint64 { return db.bcache.hits.Value() })
	counter("spotlake_blockcache_misses_total", "Block cache misses.",
		func(db *DB) uint64 { return db.bcache.misses.Value() })
	counter("spotlake_blockcache_evictions_total", "Block cache evictions under the size bound.",
		func(db *DB) uint64 { return db.bcache.evictions.Value() })
	gauge("spotlake_blockcache_bytes", "Decoded-point bytes resident in the block cache.",
		func(db *DB) float64 {
			c := db.bcache
			c.mu.Lock()
			defer c.mu.Unlock()
			return float64(c.size)
		})
	gauge("spotlake_blockcache_max_bytes", "Configured block cache bound (0 = disabled).",
		func(db *DB) float64 { return float64(max(db.bcache.max, 0)) })

	reg.HistogramFunc("spotlake_block_decode_seconds", "Time a block-cache miss spends reading and CRC-checking one cold block and decoding it, in full or through the read's window end.",
		func() obs.HistogramSnapshot {
			if db := current(); db != nil {
				return db.bcache.decodeTime.Snapshot()
			}
			return obs.NewHistogram(blockDecodeBuckets).Snapshot()
		})
	counter("spotlake_block_decoded_points_total", "Points decoded from cold blocks on block-cache misses: whole blocks, or a window's prefix.",
		func(db *DB) uint64 { return db.bcache.decoded.Value() })
}

// boolGauge renders a yes/no fact as a gauge: 1 or 0.
func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
