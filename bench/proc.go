package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"time"

	"repro/internal/obs"
)

// serverProc is the load generator's handle on one `bench serve`
// process.
type serverProc struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	out   *json.Decoder
	addr  string
	ready procReport
	spawn time.Duration // from exec to the ready line
}

// startServer re-executes the bench binary as a server over dir. The
// child gets generated inputs only.
func startServer(dir string, seed uint64, checkpointAfter int64, writerTicks int) (*serverProc, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, "serve",
		"-dir", dir,
		"-seed", strconv.FormatUint(seed, 10),
		"-checkpoint-bytes", strconv.FormatInt(checkpointAfter, 10),
		"-writer-ticks", strconv.Itoa(writerTicks))
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	s := &serverProc{cmd: cmd, stdin: stdin, out: json.NewDecoder(bufio.NewReader(stdout))}
	if err := s.out.Decode(&s.ready); err != nil || !s.ready.Ready {
		s.kill()
		return nil, fmt.Errorf("server did not come up: %v", err)
	}
	s.spawn = time.Since(t0)
	s.addr = s.ready.Addr
	return s, nil
}

func (s *serverProc) command(line string) error {
	_, err := io.WriteString(s.stdin, line+"\n")
	return err
}

// report asks the server for its process figures, after a GC if gc.
func (s *serverProc) report(gc bool) (procReport, error) {
	line := "report"
	if gc {
		line = "report gc"
	}
	var r procReport
	if err := s.command(line); err != nil {
		return r, err
	}
	if err := s.out.Decode(&r); err != nil {
		return r, fmt.Errorf("reading server report: %w", err)
	}
	if r.WriterErr != "" {
		return r, fmt.Errorf("live writer: %s", r.WriterErr)
	}
	return r, nil
}

func (s *serverProc) startWriter(t0 time.Time) error {
	return s.command("writer " + strconv.FormatInt(t0.UnixNano(), 10))
}

// quit closes the server's store cleanly and returns its last report.
func (s *serverProc) quit() (procReport, error) {
	var r procReport
	if err := s.command("quit"); err != nil {
		s.kill()
		return r, err
	}
	derr := s.out.Decode(&r)
	s.stdin.Close()
	if err := s.cmd.Wait(); err != nil {
		return r, fmt.Errorf("server exit: %w", err)
	}
	return r, derr
}

// kill ends the server with SIGKILL — no Close, no flush — and waits
// until it is gone.
func (s *serverProc) kill() {
	_ = s.cmd.Process.Kill()
	s.stdin.Close()
	_ = s.cmd.Wait() // "signal: killed" is the point
}

// scrape is one reading of /api/v1/metrics: sample name to value.
type scrape map[string]float64

func scrapeMetrics(addr string) (scrape, time.Duration, error) {
	t0 := time.Now()
	resp, err := http.Get("http://" + addr + "/api/v1/metrics")
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("metrics scrape: status %d", resp.StatusCode)
	}
	samples, err := obs.ParseExposition(resp.Body)
	if err != nil {
		return nil, 0, fmt.Errorf("metrics scrape: %w", err)
	}
	took := time.Since(t0)
	out := make(scrape, len(samples))
	for _, s := range samples {
		if s.Le == "" {
			out[s.Name] = s.Value
		}
	}
	return out, took, nil
}

// delta is after − before for one sample name.
func delta(before, after scrape, name string) float64 { return after[name] - before[name] }

// waitReady polls /readyz until the server answers.
func waitReady(addr string) error {
	var err error
	for range 100 {
		var resp *http.Response
		if resp, err = http.Get("http://" + addr + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("readyz: status %d", resp.StatusCode)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return err
}
