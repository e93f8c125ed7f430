package tsdb

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/simrand"
)

func BenchmarkAppend(b *testing.B) {
	db, _ := Open("")
	k := SeriesKey{Dataset: "sps", Type: "m5.xlarge", Region: "us-east-1", AZ: "us-east-1a"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Append(k, t0.Add(time.Duration(i)*time.Second), float64(i%3)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppendIfChangedDedup(b *testing.B) {
	db, _ := Open("")
	k := SeriesKey{Dataset: "sps", Type: "m5.xlarge", Region: "us-east-1", AZ: "us-east-1a"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// 90% of samples repeat the previous value, like real score series.
		v := 3.0
		if i%10 == 0 {
			v = float64(i % 3)
		}
		if _, err := db.AppendIfChanged(k, t0.Add(time.Duration(i)*time.Second), v); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkValueAt(b *testing.B) {
	db, _ := Open("")
	k := SeriesKey{Dataset: "sps", Type: "m5.xlarge", Region: "us-east-1", AZ: "us-east-1a"}
	for i := 0; i < 10000; i++ {
		db.Append(k, t0.Add(time.Duration(i)*time.Minute), float64(i%3))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.ValueAt(k, t0.Add(time.Duration(i%10000)*time.Minute))
	}
}

func BenchmarkWindowMean(b *testing.B) {
	db, _ := Open("")
	k := SeriesKey{Dataset: "sps", Type: "m5.xlarge", Region: "us-east-1", AZ: "us-east-1a"}
	for i := 0; i < 10000; i++ {
		db.Append(k, t0.Add(time.Duration(i)*time.Minute), float64(i%3))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		from := t0.Add(time.Duration(i%9000) * time.Minute)
		db.WindowMean(k, from, from.Add(24*time.Hour))
	}
}

// BenchmarkAppendParallel measures concurrent append throughput with the
// single-lock baseline (shards=1) against the sharded store. Each
// goroutine owns one series, like the collector's per-pool writes. On a
// multi-core runner the sharded variants scale with cores while shards=1
// serializes on its one mutex.
func BenchmarkAppendParallel(b *testing.B) {
	for _, shards := range []int{1, DefaultShardCount()} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db, _ := OpenSharded("", shards)
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := seq.Add(1)
				k := SeriesKey{Dataset: "sps", Type: fmt.Sprintf("g%d.xlarge", id), Region: "us-east-1", AZ: "us-east-1a"}
				i := 0
				for pb.Next() {
					if err := db.Append(k, t0.Add(time.Duration(i)*time.Second), float64(i%3)); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkAppendBatch compares per-point appends against one batched
// call per tick (the collector's write shape: many series, one timestamp).
func BenchmarkAppendBatch(b *testing.B) {
	const seriesN = 256
	keys := make([]SeriesKey, seriesN)
	for i := range keys {
		keys[i] = SeriesKey{Dataset: "price", Type: fmt.Sprintf("t%d", i), Region: "us-east-1", AZ: "us-east-1a"}
	}
	b.Run("pointwise", func(b *testing.B) {
		db, _ := Open("")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at := t0.Add(time.Duration(i) * time.Second)
			for _, k := range keys {
				if err := db.Append(k, at, float64(i)); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	b.Run("batched", func(b *testing.B) {
		db, _ := Open("")
		batch := make([]Entry, seriesN)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			at := t0.Add(time.Duration(i) * time.Second)
			for j, k := range keys {
				batch[j] = Entry{Key: k, At: at, Value: float64(i)}
			}
			if n, err := db.AppendBatch(batch); err != nil || n != seriesN {
				b.Fatalf("stored %d, err %v", n, err)
			}
		}
	})
}

// BenchmarkAppendParallelDurable measures concurrent append throughput
// with the WAL enabled, at one shard and at the default count. Each
// goroutine owns one series. Every durable append serializes on the
// store's one log, whatever the shard count: more shards only let the
// in-memory half of concurrent appends overlap. The store's real writers
// append one batch at a time, so this measures a load it does not serve.
func BenchmarkAppendParallelDurable(b *testing.B) {
	for _, shards := range []int{1, DefaultShardCount()} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			db, err := OpenSharded(b.TempDir(), shards)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			var seq atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				id := seq.Add(1)
				k := SeriesKey{Dataset: "sps", Type: fmt.Sprintf("g%d.xlarge", id), Region: "us-east-1", AZ: "us-east-1a"}
				i := 0
				for pb.Next() {
					if err := db.Append(k, t0.Add(time.Duration(i)*time.Second), float64(i%3)); err != nil {
						b.Fatal(err)
					}
					i++
				}
			})
		})
	}
}

// BenchmarkRecovery compares restart cost without a checkpoint (full
// segment replay of the entire history) against checkpoint + tail (bulk
// snapshot load plus replay of only the records appended since
// the last checkpoint). The data is identical in both runs: 200 series x
// 200 points of history plus a 10-point-per-series tail.
func BenchmarkRecovery(b *testing.B) {
	const seriesN, pointsN, tailN = 200, 200, 10
	build := func(dir string, checkpoint bool) {
		db, err := Open(dir)
		if err != nil {
			b.Fatal(err)
		}
		for s := 0; s < seriesN; s++ {
			k := SeriesKey{Dataset: "sps", Type: fmt.Sprintf("t%d", s), Region: "us-east-1", AZ: "us-east-1a"}
			for i := 0; i < pointsN; i++ {
				if err := db.Append(k, t0.Add(time.Duration(i)*time.Minute), float64(i%7)); err != nil {
					b.Fatal(err)
				}
			}
		}
		if checkpoint {
			if err := db.Checkpoint(); err != nil {
				b.Fatal(err)
			}
		}
		for s := 0; s < seriesN; s++ {
			k := SeriesKey{Dataset: "sps", Type: fmt.Sprintf("t%d", s), Region: "us-east-1", AZ: "us-east-1a"}
			for i := 0; i < tailN; i++ {
				if err := db.Append(k, t0.Add(time.Duration(pointsN+i)*time.Minute), float64(i)); err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := db.Close(); err != nil {
			b.Fatal(err)
		}
	}
	for _, cfg := range []struct {
		name       string
		checkpoint bool
	}{
		{"full-replay", false},
		{"checkpoint+tail", true},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			dir := b.TempDir()
			build(dir, cfg.checkpoint)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db, err := Open(dir)
				if err != nil {
					b.Fatal(err)
				}
				if db.PointCount() != seriesN*(pointsN+tailN) {
					b.Fatalf("recovered %d points", db.PointCount())
				}
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkWALWrite(b *testing.B) {
	db, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	k := SeriesKey{Dataset: "price", Type: "m5.xlarge", Region: "us-east-1", AZ: "us-east-1a"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Append(k, t0.Add(time.Duration(i)*time.Second), float64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointCompaction compares checkpoint cost over a large WAL
// tail under the two compaction strategies. Both variants pay the same
// snapshot write for the same data; "unlink" is the store's real
// checkpoint (compaction = rotation + manifest commit + unlink of the
// covered segments), while "rewrite-baseline" adds the whole-file copy +
// fsync + rename per segment that the pre-rotation compaction performed —
// the write amplification that grew with tail size and motivated
// rotation.
func BenchmarkCheckpointCompaction(b *testing.B) {
	build := func(b *testing.B, dir string, tailBytes int) *DB {
		b.Helper()
		db, err := OpenWithOptions(dir, Options{Shards: 1})
		if err != nil {
			b.Fatal(err)
		}
		k := SeriesKey{Dataset: "price", Type: "m5.xlarge", Region: "us-east-1", AZ: "us-east-1a"}
		recLen := 4 + 2 + len(k.String()) + 16
		n := tailBytes / recLen
		batch := make([]Entry, 0, 4096)
		for i := 0; i < n; i++ {
			batch = append(batch, Entry{Key: k, At: t0.Add(time.Duration(i) * time.Second), Value: float64(i)})
			if len(batch) == cap(batch) || i == n-1 {
				if stored, err := db.AppendBatch(batch); err != nil || stored != len(batch) {
					b.Fatalf("stored %d, err %v", stored, err)
				}
				batch = batch[:0]
			}
		}
		if err := db.Flush(); err != nil {
			b.Fatal(err)
		}
		return db
	}
	rewriteSegments := func(b *testing.B, dir string) {
		b.Helper()
		paths, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range paths {
			src, err := os.Open(p)
			if err != nil {
				b.Fatal(err)
			}
			tmp := p + ".rw"
			dst, err := os.Create(tmp)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := io.Copy(dst, src); err != nil {
				b.Fatal(err)
			}
			if err := dst.Sync(); err != nil {
				b.Fatal(err)
			}
			dst.Close()
			src.Close()
			if err := os.Rename(tmp, p); err != nil {
				b.Fatal(err)
			}
		}
	}
	for _, mb := range []int{8, 64} {
		b.Run(fmt.Sprintf("unlink/tail=%dMB", mb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				db := build(b, dir, mb<<20)
				b.StartTimer()
				if err := db.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				b.StopTimer()
				db.Close()
			}
		})
		b.Run(fmt.Sprintf("rewrite-baseline/tail=%dMB", mb), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dir := b.TempDir()
				db := build(b, dir, mb<<20)
				b.StartTimer()
				if err := db.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				rewriteSegments(b, dir)
				b.StopTimer()
				db.Close()
			}
		})
	}
}

// benchFill appends seriesN x perSeries points through batched ticks
// (one timestamp across all series per batch, the collector's shape) and
// returns the keys. Values repeat in short runs and timestamps step
// uniformly — the score-series shape the block codec is built for.
func benchFill(b *testing.B, db *DB, seriesN, perSeries int) []SeriesKey {
	b.Helper()
	keys := make([]SeriesKey, seriesN)
	for i := range keys {
		keys[i] = SeriesKey{Dataset: "sps", Type: fmt.Sprintf("t%d", i), Region: "us-east-1", AZ: "us-east-1a"}
	}
	batch := make([]Entry, seriesN)
	for t := 0; t < perSeries; t++ {
		at := t0.Add(time.Duration(t) * time.Minute)
		for j, k := range keys {
			batch[j] = Entry{Key: k, At: at, Value: float64(((t + j) / 7) % 5)}
		}
		if n, err := db.AppendBatch(batch); err != nil || n != seriesN {
			b.Fatalf("stored %d, err %v", n, err)
		}
	}
	if err := db.Flush(); err != nil {
		b.Fatal(err)
	}
	return keys
}

// BenchmarkSeal measures the cost of the seal step itself: a checkpoint
// over a hot archive that compresses everything behind the tail into
// block files. Reported alongside ns/op: sealed points per second of
// timed work, the on-disk compression ratio (sealed bytes over 16 raw
// bytes a point; the README's bound is 0.25), and the checkpoint file's
// bytes per hot point it holds.
func BenchmarkSeal(b *testing.B) {
	const seriesN, perSeries = 32, 4096
	var sealedPts, sealedBytes, hotPts, cpBytes int64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		db, err := OpenWithOptions(dir, Options{Shards: 4, HotTailPoints: 64, BlockPoints: 512})
		if err != nil {
			b.Fatal(err)
		}
		benchFill(b, db, seriesN, perSeries)
		b.StartTimer()
		if err := db.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		sealedPts += db.ColdPointCount()
		sealedBytes += db.ColdCompressedBytes()
		hotPts += db.HotPointCount()
		st, err := os.Stat(filepath.Join(dir, db.man.Checkpoint))
		if err != nil {
			b.Fatal(err)
		}
		cpBytes += st.Size()
		db.Close()
	}
	if sealedPts == 0 {
		b.Fatal("checkpoint sealed nothing")
	}
	b.ReportMetric(float64(sealedPts)/b.Elapsed().Seconds(), "points/s")
	b.ReportMetric(float64(sealedBytes)/float64(16*sealedPts), "compressed/raw")
	b.ReportMetric(float64(cpBytes)/float64(hotPts), "checkpoint-B/hot-point")
}

// archiveBlockPoints builds n points shaped like one archive-v1 series
// block: change-only on a 10-minute grid with one change in four ticks,
// integer values 1–10, so dods land in the 16-bit bucket and values
// reuse or redefine a short XOR window.
func archiveBlockPoints(seed uint64, n int) []sample {
	rng := simrand.New(seed)
	pts := make([]sample, n)
	at, v := t0, float64(1+rng.Intn(10))
	for i := range pts {
		pts[i] = sample{ns: at.UnixNano(), v: v}
		at = at.Add(10 * time.Minute)
		for rng.Intn(4) != 0 {
			at = at.Add(10 * time.Minute)
		}
		v = float64(1 + (int(v)+rng.Intn(9))%10) // any of the other nine values
	}
	return pts
}

// BenchmarkDecodeBlock measures the cold-decode stage alone: decodeBlock
// over 64 distinct archive-shaped 512-point blocks per op, the work as
// many block-cache misses pay. Reported alongside ns/op: ns per decoded
// point and encoded bytes per point.
func BenchmarkDecodeBlock(b *testing.B) {
	blocks := make([]encodedBlock, 64)
	var points, size int
	for i := range blocks {
		blocks[i] = encodeBlock(archiveBlockPoints(uint64(i+1), 512))
		points += int(blocks[i].count)
		size += len(blocks[i].data)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, eb := range blocks {
			if _, err := decodeBlock(nil, eb.data, int(eb.count), noHorizon); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(points), "ns/point")
	b.ReportMetric(float64(size)/float64(points), "B/point")
}

// encodedSink keeps BenchmarkEncodeBlock's result live.
var encodedSink encodedBlock

// BenchmarkEncodeBlock measures the block encoder alone: encodeBlock
// over the same 64 archive-shaped 512-point blocks BenchmarkDecodeBlock
// decodes, the work every seal and every checkpoint's hot tails pay.
// Reported alongside ns/op: ns per encoded point and bytes per point.
func BenchmarkEncodeBlock(b *testing.B) {
	blocks := make([][]sample, 64)
	var points, size int
	for i := range blocks {
		blocks[i] = archiveBlockPoints(uint64(i+1), 512)
		points += len(blocks[i])
		size += len(encodeBlock(blocks[i]).data)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, pts := range blocks {
			encodedSink = encodeBlock(pts)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(points), "ns/point")
	b.ReportMetric(float64(size)/float64(points), "B/point")
}

// BenchmarkColdQuery measures windowed reads over deep history when that
// history lives in compressed cold blocks (decoded on demand through the
// block cache) against the all-hot baseline where every point is a
// resident hot-tail sample. The cold path pays decode on cache misses and
// a copy on hits; the baseline is the memory ceiling the block tier
// exists to remove. cold-evicted reads windows a few points wide with
// caching disabled, after one full pass over every block: each read
// decodes its boundary block only through the window's end, and
// decoded/returned reports the points decoded per point returned.
func BenchmarkColdQuery(b *testing.B) {
	const seriesN, perSeries = 8, 8192
	for _, cfg := range []struct {
		name   string
		opts   Options
		seal   bool
		window int
	}{
		{"all-hot", Options{Shards: 4, HotTailPoints: -1}, false, 512},
		{"cold-blocks", Options{Shards: 4, HotTailPoints: 256, BlockPoints: 512}, true, 512},
		{"cold-evicted", Options{Shards: 4, HotTailPoints: 256, BlockPoints: 512, BlockCacheBytes: -1}, true, 4},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			db, err := OpenWithOptions(b.TempDir(), cfg.opts)
			if err != nil {
				b.Fatal(err)
			}
			defer db.Close()
			keys := benchFill(b, db, seriesN, perSeries)
			if cfg.seal {
				if err := db.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				if db.SealedBlocks() == 0 {
					b.Fatal("checkpoint sealed nothing")
				}
			}
			if cfg.opts.BlockCacheBytes < 0 {
				// A block's first read in a process decodes it in full.
				for _, k := range keys {
					noerr(db.Query(k, t0, t0.Add(perSeries*time.Minute)))
				}
			}
			decoded0 := db.bcache.decoded.Value()
			returned := 0
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Windows rotate through the sealed region, far behind the
				// hot tail, so the cold variants read blocks, not the tail.
				from := t0.Add(time.Duration((i*613)%(perSeries-cfg.window-512)) * time.Minute)
				pts := noerr(db.Query(keys[i%seriesN], from, from.Add(time.Duration(cfg.window)*time.Minute)))
				if len(pts) == 0 {
					b.Fatal("empty window")
				}
				returned += len(pts)
			}
			b.StopTimer()
			b.ReportMetric(float64(db.bcache.decoded.Value()-decoded0)/float64(returned), "decoded/returned")
		})
	}
}

// BenchmarkResidentHeap measures the steady-state heap of a recovered
// archive under the two storage layouts: every point resident (16 B
// hot-tail samples) versus sealed history (compressed blocks on disk, only the
// hot tail and block index resident), reported as heapB/point; the
// target is a >= 4x drop for the cold-dominated layout. The build
// runs inside the timed region on purpose: the expensive setup keeps the
// calibration loop at a handful of iterations.
func BenchmarkResidentHeap(b *testing.B) {
	const seriesN, perSeries = 40, 8192
	for _, cfg := range []struct {
		name string
		opts Options
	}{
		{"all-hot", Options{Shards: 4, HotTailPoints: -1}},
		{"cold-sealed", Options{Shards: 4}},
	} {
		b.Run(cfg.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				dir := b.TempDir()
				db, err := OpenWithOptions(dir, cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
				benchFill(b, db, seriesN, perSeries)
				if err := db.Checkpoint(); err != nil {
					b.Fatal(err)
				}
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				var before runtime.MemStats
				runtime.ReadMemStats(&before)
				db, err = OpenWithOptions(dir, cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
				runtime.GC()
				var after runtime.MemStats
				runtime.ReadMemStats(&after)
				points := int64(db.PointCount())
				if points != seriesN*perSeries {
					b.Fatalf("recovered %d points", points)
				}
				heap := int64(after.HeapAlloc) - int64(before.HeapAlloc)
				if heap < 0 {
					heap = 0
				}
				b.ReportMetric(float64(heap)/float64(points), "heapB/point")
				if err := db.Close(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// rollupBenchFill appends `days` of one-point-per-minute price data on a
// single series, so the 1h rollup holds 24*days buckets and the 1d
// rollup `days`.
func rollupBenchFill(b *testing.B, db *DB, days int) SeriesKey {
	b.Helper()
	k := SeriesKey{Dataset: DatasetPrice, Type: "m5.xlarge", Region: "us-east-1", AZ: "us-east-1a"}
	const perDay = 24 * 60
	batch := make([]Entry, 0, perDay)
	for d := 0; d < days; d++ {
		batch = batch[:0]
		for i := 0; i < perDay; i++ {
			at := t0.Add(time.Duration(d*perDay+i) * time.Minute)
			batch = append(batch, Entry{Key: k, At: at, Value: float64((d*perDay + i) % 97)})
		}
		if n, err := db.AppendBatch(batch); err != nil || n != len(batch) {
			b.Fatalf("day %d: stored %d, err %v", d, n, err)
		}
	}
	return k
}

// BenchmarkRollupQuery measures the same 90-day window of one sealed
// store read raw and folded into 1h and 1d mean buckets: the fold's cost
// over the raw read that feeds it. The `scanned` metric carries the
// points each read materializes.
func BenchmarkRollupQuery(b *testing.B) {
	const days = 90
	opts := Options{Shards: 2, HotTailPoints: 64, BlockPoints: 512, BlockCacheBytes: 4 << 20}
	db, err := OpenWithOptions(b.TempDir(), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer db.Close()
	k := rollupBenchFill(b, db, days)
	if err := db.Checkpoint(); err != nil {
		b.Fatal(err)
	}
	hourly, _ := db.Tier(Res1h, AggMean)
	daily, _ := db.Tier(Res1d, AggMean)
	from, to := t0, t0.Add(days*24*time.Hour)
	for _, tier := range []struct {
		name string
		src  interface {
			Query(SeriesKey, time.Time, time.Time) ([]Point, error)
		}
	}{
		{"raw", db},
		{"1h", hourly},
		{"1d", daily},
	} {
		b.Run(tier.name, func(b *testing.B) {
			var pts []Point
			s0 := db.scannedPoints()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pts = noerr(tier.src.Query(k, from, to))
				if len(pts) == 0 {
					b.Fatal("empty window")
				}
			}
			b.StopTimer()
			scanned := (db.scannedPoints() - s0) / uint64(b.N)
			b.ReportMetric(float64(len(pts)), "points")
			b.ReportMetric(float64(scanned), "scanned")
		})
	}
}
