package main

import (
	"fmt"
	"math"
	"path/filepath"
)

// repeatMain runs the full set twice with the same code and seed and
// shows, per workload and end-to-end metric, both values, how far apart
// they are and the bound. Two runs of one commit that disagree by more
// than a metric's bound mean the bound cannot guard that metric.
func repeatMain(args []string) error {
	f := newFlags("repeat")
	if err := f.fs.Parse(args); err != nil {
		return err
	}
	defer watchdog(2 * len(workloads)).Stop()
	var sets [2][]*runResult
	for i := range sets {
		set, err := runSet(f)
		if err != nil {
			return err
		}
		if err := incorrect(set); err != nil {
			return err
		}
		sets[i] = set
	}
	if err := writeJSON(filepath.Join(*f.out, "repeat.json"), sets); err != nil {
		return err
	}
	apart := 0
	fmt.Printf("%-14s %-26s %14s %14s %8s %8s\n", "workload", "metric", "first", "second", "diff", "bound")
	for w := range workloads {
		for _, d := range endToEnd {
			a, b := sets[0][w].EndToEnd[d.name], sets[1][w].EndToEnd[d.name]
			// The share of the first value the two lie apart by; a value
			// that was 0 and is not any more is apart by any bound.
			diff := math.Abs(b - a)
			switch {
			case d.absolute:
			case a != 0:
				diff /= math.Abs(a)
			case b != 0:
				diff = math.Inf(1)
			}
			mark := ""
			if diff > d.bound {
				mark = "  APART"
				apart++
			}
			fmt.Printf("%-14s %-26s %14.6g %14.6g %7.2f%% %7.2f%%%s\n", workloads[w].name, d.name, a, b, 100*diff, 100*d.bound, mark)
		}
	}
	if apart > 0 {
		return fmt.Errorf("%d end-to-end metrics differ between two runs of the same code by more than their bound", apart)
	}
	return nil
}
