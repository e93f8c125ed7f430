package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/archive"
	"repro/internal/tsdb"
)

// `bench serve` is the server process: the bench binary re-executing
// itself with generated inputs only — a directory, the seed, a checkpoint
// threshold and a tick schedule — never a workload name. It wires the
// store exactly as cmd/spotlake-server does and is steered over its
// standard input: "report [gc]" prints one JSON line of process figures,
// "writer <unix-ns>" starts the live tick stream on that schedule,
// "quit" (or end of input, so a dead parent never leaves it behind)
// closes the store and exits.

// openService opens the archive directory and builds the serving stack
// of cmd/spotlake-server over it.
func openService(dir string, checkpointAfter int64, m *model) (*tsdb.DB, *archive.Service, error) {
	db, err := tsdb.OpenWithOptions(dir, storeOptions(checkpointAfter))
	if err != nil {
		return nil, nil, fmt.Errorf("open: %w", err)
	}
	svc := archive.NewService(db, m.cat)
	svc.SetAdmission(archive.NewAdmission(archive.AdmissionConfig{
		MaxInFlight: maxInFlight,
		MaxQueue:    maxInFlight,
		QueueWait:   queueWait,
	}))
	return db, svc, nil
}

func newHTTPServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      2 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
}

// procReport is what the server process says about itself.
type procReport struct {
	Ready        bool    `json:"ready,omitempty"`
	Addr         string  `json:"addr,omitempty"`
	OpenMs       float64 `json:"open_ms"`
	CloseMs      float64 `json:"close_ms,omitempty"`
	AtNs         int64   `json:"at_ns"`
	Points       int     `json:"points"`
	HeapAlloc    uint64  `json:"heap_alloc"`
	TotalAlloc   uint64  `json:"total_alloc"`
	PauseTotalNs uint64  `json:"pause_total_ns"`
	CPUMs        float64 `json:"cpu_ms"` // utime + stime
	MaxRSSKB     int64   `json:"max_rss_kb"`
	WriteBytes   int64   `json:"write_bytes"` // /proc/self/io
	// The live writer's ledger: when each tick was acknowledged, how
	// long each Flush took, and the last tick a successful Flush covers.
	WriterT0Ns  int64     `json:"writer_t0_ns,omitempty"`
	AckNs       []int64   `json:"ack_ns,omitempty"`
	FlushMs     []float64 `json:"flush_ms,omitempty"`
	FlushedTick int       `json:"flushed_tick"`
	WriterErr   string    `json:"writer_err,omitempty"`
}

// fillWriter copies the live writer's ledger into a report.
func fillWriter(w *tickWriter, r *procReport) {
	if w == nil {
		r.FlushedTick = baseTicks - 1
		return
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	r.WriterT0Ns = w.t0.UnixNano()
	for _, a := range w.acks {
		r.AckNs = append(r.AckNs, a.UnixNano())
	}
	r.FlushMs = sortedMs(w.flushes)
	r.FlushedTick = w.flushedTick
	if w.err != nil {
		r.WriterErr = w.err.Error()
	}
}

func procSelfWriteBytes() int64 {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes: "); ok {
			n, _ := strconv.ParseInt(v, 10, 64)
			return n
		}
	}
	return 0
}

func fillProc(r *procReport, gc bool) {
	if gc {
		runtime.GC()
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	r.AtNs = time.Now().UnixNano()
	r.HeapAlloc, r.TotalAlloc, r.PauseTotalNs = mem.HeapAlloc, mem.TotalAlloc, mem.PauseTotalNs
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		r.CPUMs = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e6
		r.MaxRSSKB = ru.Maxrss
	}
	r.WriteBytes = procSelfWriteBytes()
}

func serveMain(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	dir := fs.String("dir", "", "archive directory")
	seed := fs.Uint64("seed", 1, "the seed the archive was built from")
	cpBytes := fs.Int64("checkpoint-bytes", 0, "maintenance checkpoint once the WAL grew this much (0 = never)")
	writerTicks := fs.Int("writer-ticks", 0, "ticks the live writer may append after the built ones (0 = no writer)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *dir == "" {
		return errors.New("serve: -dir is required")
	}
	// The server holds the series layout, not the model's rows, which
	// would count against its resident size.
	m := newModel(*seed, 0)

	t0 := time.Now()
	db, svc, err := openService(*dir, *cpBytes, m)
	if err != nil {
		return err
	}
	openMs := ms(time.Since(t0))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		db.Close()
		return err
	}
	srv := newHTTPServer(svc.Handler())
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()

	out := json.NewEncoder(os.Stdout)
	ready := procReport{Ready: true, Addr: ln.Addr().String(), OpenMs: openMs, Points: db.PointCount()}
	fillProc(&ready, false)
	if err := out.Encode(ready); err != nil {
		return err
	}

	// The writer continues each series' value stream from the end of
	// the build, at liveRate.
	var writer *tickWriter
	if *writerTicks > 0 {
		writer = newTickWriter(db, m, baseTicks, nil)
	}
	stopWriter := make(chan struct{})
	writerDone := make(chan struct{})
	started := false
	lines := make(chan string)
	go func() {
		sc := bufio.NewScanner(os.Stdin)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
loop:
	for {
		select {
		case err := <-served:
			db.Close()
			return fmt.Errorf("serve: listener died: %w", err)
		case line, ok := <-lines:
			cmd, arg, _ := strings.Cut(line, " ")
			switch {
			case !ok || cmd == "quit":
				break loop
			case cmd == "report":
				r := procReport{OpenMs: openMs, Points: db.PointCount()}
				fillProc(&r, arg == "gc")
				fillWriter(writer, &r)
				if err := out.Encode(r); err != nil {
					return err
				}
			case cmd == "writer" && !started && writer != nil:
				ns, err := strconv.ParseInt(arg, 10, 64)
				if err != nil {
					return fmt.Errorf("serve: writer start time: %w", err)
				}
				started = true
				go func() {
					defer close(writerDone)
					_ = writer.run(*writerTicks, time.Unix(0, ns), stopWriter) // the next report carries the error
				}()
			default:
				return fmt.Errorf("serve: unknown command %q", line)
			}
		}
	}
	if started {
		close(stopWriter)
		<-writerDone
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	_ = srv.Shutdown(ctx) // the store closes next either way
	t0 = time.Now()
	if err := db.Close(); err != nil {
		return fmt.Errorf("serve: close: %w", err)
	}
	final := procReport{OpenMs: openMs, CloseMs: ms(time.Since(t0))}
	fillProc(&final, false)
	fillWriter(writer, &final)
	return out.Encode(final)
}
