package main

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/tsdb"
)

// span is one traced interval. Spans of one request share Req; Parent is
// the span that caused this one (0 for none).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run pays nothing for it.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

func (t *tracer) add(parent, req int, name string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: start.UnixNano(), End: end.UnixNano()})
	return id
}

// storeOptions are the options every open of the archive uses: tsdb's
// defaults but for the block cache (see spec.go), plus the byte-triggered
// maintenance checkpoint where a live writer will run.
func storeOptions(checkpointAfter int64) tsdb.Options {
	return tsdb.Options{BlockCacheBytes: blockCacheBytes, CheckpointAfterBytes: checkpointAfter}
}

// buildStats are the spans the bench puts around its own calls into
// tsdb while it builds one archive.
type buildStats struct {
	stored int
	// appendWall is the wall time of the back-to-back append loop, its
	// flushes included; ticks are its AppendBatchIfChanged calls alone.
	appendWall time.Duration
	ticks      []time.Duration
	// tail is the paced WAL tail: each tick's acknowledgement, timed
	// from the moment the tick fell due at the live rate.
	tail       []time.Duration
	flushes    []time.Duration
	checkpoint time.Duration
	closed     time.Duration
	reopens    []time.Duration
	diskBytes  int64
}

// tickWriter appends the archive's tick stream to a store: one
// nSeries-entry AppendBatchIfChanged a tick, a Flush every flushEvery
// ticks. It is the benchmark's only writer. The build runs it back to
// back; the build's WAL tail and the live writer inside the server run it
// paced at liveRate. It carries the series' value streams and not the
// model's rows, so a server holds no copy of the archive.
type tickWriter struct {
	db      *tsdb.DB
	keys    []tsdb.SeriesKey
	streams []valueStream // positioned before tick next
	next    int
	tr      *tracer

	// The ledger of the current run, read by the server's reports while
	// the run goes on.
	mu          sync.Mutex
	t0          time.Time       // paced runs: the run's i-th tick is due at dueAt(t0, i)
	acks        []time.Time     // when each tick was acknowledged
	took        []time.Duration // each AppendBatchIfChanged alone
	flushes     []time.Duration
	flushedTick int // the last tick a successful Flush covers
	err         error
}

// newTickWriter returns a writer whose first tick is tick next.
func newTickWriter(db *tsdb.DB, m *model, next int, tr *tracer) *tickWriter {
	w := &tickWriter{db: db, keys: m.keys, streams: m.streams(), next: next, tr: tr, flushedTick: next - 1}
	for j := range w.streams {
		for range next {
			w.streams[j].next()
		}
	}
	return w
}

// dueAt is when tick i of a paced run that began at t0 falls due.
func dueAt(t0 time.Time, i int) time.Time {
	return t0.Add(time.Duration(float64(i) / liveRate * float64(time.Second)))
}

func (w *tickWriter) fail(err error) error {
	w.mu.Lock()
	w.err = err
	w.mu.Unlock()
	return err
}

// run appends the next n ticks and starts the ledger afresh: back to
// back if t0 is zero, else each tick at its due time until stop closes.
// A late tick is not skipped: the stream falls behind, and the ledger
// shows by how much.
func (w *tickWriter) run(n int, t0 time.Time, stop <-chan struct{}) error {
	w.mu.Lock()
	w.t0, w.acks, w.took, w.flushes = t0, nil, nil, nil
	w.mu.Unlock()
	buf := make([]tsdb.Entry, nSeries)
	for i := range n {
		if d := time.Until(dueAt(t0, i)); !t0.IsZero() && d > 0 {
			select {
			case <-stop:
				return nil
			case <-time.After(d):
			}
		}
		at := tickTime(w.next)
		for j, k := range w.keys {
			buf[j] = tsdb.Entry{Key: k, At: at, Value: float64(w.streams[j].next())}
		}
		begin := time.Now()
		_, err := w.db.AppendBatchIfChanged(buf)
		ack := time.Now()
		if err != nil {
			return w.fail(fmt.Errorf("appending tick %d: %w", w.next, err))
		}
		w.tr.add(0, 0, "tsdb.append", begin, ack)
		w.next++
		w.mu.Lock()
		w.acks, w.took = append(w.acks, ack), append(w.took, ack.Sub(begin))
		w.mu.Unlock()
		if w.next%flushEvery == 0 {
			if err := w.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (w *tickWriter) flush() error {
	t0 := time.Now()
	if err := w.db.Flush(); err != nil {
		return w.fail(fmt.Errorf("flushing after tick %d: %w", w.next-1, err))
	}
	t1 := time.Now()
	w.tr.add(0, 0, "tsdb.flush", t0, t1)
	w.mu.Lock()
	w.flushes, w.flushedTick = append(w.flushes, t1.Sub(t0)), w.next-1
	w.mu.Unlock()
	return nil
}

// buildArchive writes archive-v1 into dir through tsdb's public write
// path — buildTicks ticks back to back, one Checkpoint, tailTicks more at
// the live writer's pace, Flush, Close — then times reopenTimes reopens
// of what it wrote.
func buildArchive(dir string, m *model, tr *tracer) (buildStats, error) {
	var st buildStats
	db, err := timedOpen(dir, &st, tr)
	if err != nil {
		return st, err
	}
	st.reopens = nil // the first open created the directory: not a reopen
	w := newTickWriter(db, m, 0, tr)
	t0 := time.Now()
	if err := w.run(buildTicks, time.Time{}, nil); err != nil {
		db.Close()
		return st, err
	}
	st.appendWall, st.ticks, st.flushes = time.Since(t0), w.took, w.flushes
	t0 = time.Now()
	if err := db.Checkpoint(); err != nil {
		db.Close()
		return st, fmt.Errorf("checkpoint: %w", err)
	}
	st.checkpoint = time.Since(t0)
	tr.add(0, 0, "tsdb.checkpoint", t0, t0.Add(st.checkpoint))
	t0 = time.Now()
	err = w.run(tailTicks, t0, nil)
	if err == nil {
		err = w.flush()
	}
	if err != nil {
		db.Close()
		return st, err
	}
	for i, ack := range w.acks {
		st.tail = append(st.tail, ack.Sub(dueAt(t0, i)))
	}
	st.flushes = append(st.flushes, w.flushes...)
	st.stored = db.PointCount()
	t0 = time.Now()
	if err := db.Close(); err != nil {
		return st, fmt.Errorf("close: %w", err)
	}
	st.closed = time.Since(t0)
	tr.add(0, 0, "tsdb.close", t0, t0.Add(st.closed))
	if st.diskBytes, err = dirBytes(dir); err != nil {
		return st, err
	}
	for range reopenTimes {
		db, err := timedOpen(dir, &st, tr)
		if err != nil {
			return st, err
		}
		if got := db.PointCount(); got != st.stored {
			db.Close()
			return st, fmt.Errorf("reopen holds %d points, the build stored %d", got, st.stored)
		}
		if err := db.Close(); err != nil {
			return st, fmt.Errorf("close: %w", err)
		}
	}
	return st, nil
}

func timedOpen(dir string, st *buildStats, tr *tracer) (*tsdb.DB, error) {
	t0 := time.Now()
	db, err := tsdb.OpenWithOptions(dir, storeOptions(0))
	if err != nil {
		return nil, fmt.Errorf("open: %w", err)
	}
	t1 := time.Now()
	st.reopens = append(st.reopens, t1.Sub(t0))
	tr.add(0, 0, "tsdb.open", t0, t1)
	return db, nil
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}

// freshDir returns an empty directory under bench/out for one archive.
func freshDir(outDir, name string) (string, error) {
	dir := filepath.Join(outDir, name)
	if err := os.RemoveAll(dir); err != nil {
		return "", err
	}
	return dir, os.MkdirAll(dir, 0o755)
}
