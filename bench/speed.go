package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime"
	"syscall"
	"time"
)

// The machine this benchmark is run on is a small shared VM that spends a
// varying share of its time in a slow state a minute or two long, in which
// the same work costs a quarter to a third more CPU time: over ten runs of
// one workload the server's CPU time per request read 5.9–6.1 ms in the
// quiet runs and 7.1–7.9 ms in the others, and the quartiles of most
// timings lay 15–30 % of their median apart. No bound the driver allows
// holds against that, and one that did would guard nothing.
//
// So every run also measures how fast the machine is while it runs. A
// speedometer gzips a fixed text for burstCPU of its own thread's CPU
// time every speedEvery, beside whatever is being measured (3 % of one
// core); each burst's megabytes per CPU second — per CPU second, so that
// being scheduled out does not count — is the machine's speed at that
// moment, and the mean over a phase, as a share of refSpeed, the phase's
// speed. Every end-to-end timing is then reported at reference speed: a
// duration times its phase's speed, a rate divided by it. With that the
// quartiles of CPU time per request lie 2–9 % apart where they lay
// 13–25 %, those of set-up time 2–7 % (9–18 %), those of the p90 3–12 %
// (12–28 %).
//
// The kernel is gzip because the slow state is contention for the memory
// system, not for cycles: a loop that only computes in registers ran at
// the same pace ± 2 % throughout, while gzip's 300 KB of tables and window
// slowed in step with the server's own work. Operations a millisecond or
// two long that mostly wait to be woken (the median read of dash-hot, a
// paced append) feel a shallow slow state less than the speed says and a
// deep one as much; they are scaled like everything else, and keep the
// widest spreads of all (up to 19 %).
//
// The text and the work are the standard library's, the same on both
// sides of any comparison, and nothing of the served system runs in
// them. The speeds are per-layer metrics (loadgen.speed_*), so the raw
// figures can be had back; per-layer timings are as measured.

const (
	// refSpeed is what one core of the box this was built on reaches when
	// nothing interferes. It only sets the scale of the reported values.
	refSpeed   = 52.0 // MB per CPU second
	speedEvery = 250 * time.Millisecond
	burstCPU   = 8 * time.Millisecond
)

var speedText = func() []byte {
	var b bytes.Buffer
	x := uint64(1)
	for b.Len() < 32<<10 {
		r := splitmix(&x)
		fmt.Fprintf(&b, `{"at":"2022-01-%02dT%02d:%02d:00Z","value":%d},`, 1+r%28, (r>>8)%24, (r>>16)%6*10, 1+(r>>24)%10)
	}
	return b.Bytes()
}()

// threadCPU is the CPU time the calling thread has used; where the
// kernel will not say, the time that has passed stands in for it.
func threadCPU() time.Duration {
	const rusageThread = 1
	var ru syscall.Rusage
	if syscall.Getrusage(rusageThread, &ru) != nil {
		return time.Since(epoch)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// speedometer samples the machine's speed from start until speed is
// called.
type speedometer struct {
	stop   chan struct{}
	bursts chan []float64
}

func startSpeedometer() *speedometer {
	s := &speedometer{stop: make(chan struct{}), bursts: make(chan []float64, 1)}
	go func() {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		zw := gzip.NewWriter(io.Discard)
		var bursts []float64
		tick := time.NewTicker(speedEvery)
		defer tick.Stop()
		for {
			t0, n := threadCPU(), 0
			for threadCPU()-t0 < burstCPU {
				zw.Reset(io.Discard)
				_, _ = zw.Write(speedText) // io.Discard takes everything
				_ = zw.Close()
				n++
			}
			if d := threadCPU() - t0; d > 0 {
				bursts = append(bursts, float64(n*len(speedText))/1e6/d.Seconds())
			}
			select {
			case <-s.stop:
				s.bursts <- bursts
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// speed stops the sampling and returns the mean speed since start as a
// share of refSpeed.
func (s *speedometer) speed() float64 {
	close(s.stop)
	return mean(<-s.bursts) / refSpeed
}
