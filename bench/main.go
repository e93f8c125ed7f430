// Command bench is the repo's benchmark: it builds a seeded synthetic
// archive through tsdb's public write path, serves it from a separate
// server process wired like cmd/spotlake-server, drives it over loopback
// from this process, checks the answers against the generator's own
// model, and prints every metric by name and unit. See README.md.
//
//	bench --workload W --seed N --seconds S --trace 0|1   one run, result JSON on the last line
//	bench all    [-seed N] [-seconds S]                    every workload, untraced
//	bench trace  -workload W [-seed N] [-seconds S]        one traced run, spans to out/trace-W.jsonl
//	bench repeat [-seed N] [-seconds S]                    the full set twice, compared within the bounds
//	bench serve  ...                                       the server process (started by the others)
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// runLimit ends a run that hangs: a dead benchmark must not outlive the
// time its caller allows one run. The server process exits by itself
// when this process does (its standard input closes).
const runLimit = 170 * time.Second

const defaultSeconds = 12

type commonFlags struct {
	fs      *flag.FlagSet
	seed    *uint64
	seconds *int
	out     *string
}

func newFlags(name string) commonFlags {
	fs := flag.NewFlagSet(name, flag.ContinueOnError)
	return commonFlags{
		fs:      fs,
		seed:    fs.Uint64("seed", 1, "seed of the archive and the request schedule"),
		seconds: fs.Int("seconds", defaultSeconds, "seconds measured per run"),
		out:     fs.String("out", filepath.Join("bench", "out"), "scratch directory for archives and traces"),
	}
}

func main() {
	args := os.Args[1:]
	var err error
	switch {
	case len(args) > 0 && args[0] == "serve":
		err = serveMain(args[1:])
	case len(args) > 0 && args[0] == "all":
		err = allMain(args[1:])
	case len(args) > 0 && args[0] == "trace":
		err = traceMain(args[1:])
	case len(args) > 0 && args[0] == "repeat":
		err = repeatMain(args[1:])
	default:
		err = driverMain(args)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func watchdog(runs int) *time.Timer {
	return time.AfterFunc(time.Duration(runs)*runLimit, func() {
		fmt.Fprintln(os.Stderr, "bench: run limit exceeded")
		os.Exit(3)
	})
}

// driverResult is the one-line result the driver contract asks for.
type driverResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// driverMain is one run of one workload. With --trace 0 the result line
// carries every end-to-end metric, with --trace 1 every per-layer one.
func driverMain(args []string) error {
	f := newFlags("bench")
	name := f.fs.String("workload", "", "workload to run")
	traced := f.fs.Int("trace", 0, "1 = also make the traced pass and report the per-layer metrics")
	if err := f.fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	defer watchdog(1).Stop()
	res, err := runWorkload(w, *f.seed, *f.seconds, *traced == 1, *f.out)
	if err != nil {
		return err
	}
	res.printTable(os.Stdout)
	defs, vals := endToEnd, res.EndToEnd
	if *traced == 1 {
		defs, vals = perLayer, res.PerLayer
	}
	out := driverResult{Correct: res.correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		out.Metrics[d.name] = driverValue{Value: vals[d.name], Unit: d.unit}
	}
	return json.NewEncoder(os.Stdout).Encode(out)
}

// runSet runs every workload once and returns the results in order.
func runSet(f commonFlags) ([]*runResult, error) {
	var set []*runResult
	for _, w := range workloads {
		res, err := runWorkload(w, *f.seed, *f.seconds, false, *f.out)
		if err != nil {
			return set, fmt.Errorf("%s: %w", w.name, err)
		}
		res.printTable(os.Stdout)
		set = append(set, res)
	}
	return set, nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func incorrect(set []*runResult) error {
	for _, r := range set {
		if !r.correct() {
			return fmt.Errorf("%s: %d problems, first: %s", r.Workload, len(r.Problems), r.Problems[0])
		}
	}
	return nil
}

func allMain(args []string) error {
	f := newFlags("all")
	if err := f.fs.Parse(args); err != nil {
		return err
	}
	defer watchdog(len(workloads)).Stop()
	set, err := runSet(f)
	if err != nil {
		return err
	}
	path := filepath.Join(*f.out, "result.json")
	if err := writeJSON(path, set); err != nil {
		return err
	}
	fmt.Println("results written to", path)
	return incorrect(set)
}

func traceMain(args []string) error {
	f := newFlags("trace")
	name := f.fs.String("workload", "", "workload to trace")
	if err := f.fs.Parse(args); err != nil {
		return err
	}
	w, ok := findWorkload(*name)
	if !ok {
		return errors.New("trace: -workload is required: " + workloadNames())
	}
	defer watchdog(1).Stop()
	res, err := runWorkload(w, *f.seed, *f.seconds, true, *f.out)
	if err != nil {
		return err
	}
	res.printTable(os.Stdout)
	return incorrect([]*runResult{res})
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}
