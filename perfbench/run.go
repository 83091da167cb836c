package main

import (
	"fmt"
	"os"
	"runtime"
	"slices"
	"time"
)

// An end-to-end run measures all four paths, so that it reports every
// end-to-end metric; the workload names the two paths the run concentrates
// on. Each path is set up (several times, reporting the median), then the
// paths take turns in short steps until the measuring window is spent —
// each of the workload's own paths gets focusShare of the window, the
// others share the rest. Interleaving spreads every path's samples over
// the whole window, so a slow stretch of the machine lands on all paths
// alike instead of on whichever path happened to run then.

// path is one measurement path of an end-to-end run.
type path interface {
	// setup prepares the path; calling it again replaces the previous
	// set-up.
	setup(o options) error
	// step runs one measured iteration and checks its outputs.
	step(o options, res *result) error
	// finish sets the path's end-to-end metrics, prints its wall-clock
	// figures to standard error and releases its resources.
	finish(o options, res *result) error
}

const focusShare = 0.35

// namedPath pairs a path with its name and traced run.
type namedPath struct {
	name   string
	p      path
	traced func(options) (*result, error)
}

// newPaths returns the four paths in set-up order, with each path's
// traced run.
func newPaths() []namedPath {
	return []namedPath{
		{"longtrace", &longTracePath{}, traceLongTrace},
		{"tables-cold", &tablesPath{}, traceTables},
		{"parsec", &parsecPath{}, traceParsec},
		{"raced", &racedPath{}, traceRaced},
	}
}

// workload is one benchmark workload: the paths its end-to-end run
// concentrates on, the first of which leads its traced run.
type workload struct {
	name  string
	focus []string
}

// benchWorkloads are the benchmark's workloads: the batch reproduction of the
// paper (cold tables processes, warm PARSEC passes) and the long-lived
// detectors (one detector over a long trace, a server taking sessions).
var benchWorkloads = []workload{
	{"batch", []string{"tables-cold", "parsec"}},
	{"online", []string{"longtrace", "raced"}},
}

// findWorkload returns the named workload.
func findWorkload(name string) (workload, bool) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runTraced runs the traced runs of the workload's paths, each over an
// equal part of the window, and returns the first path's per-layer
// metrics; a metric that path leaves at 0 (a layer it does not exercise)
// is taken from the next path that measures it. Each path writes its own
// span file.
func runTraced(o options) (*result, error) {
	w, _ := findWorkload(o.workload)
	var res *result
	for _, name := range w.focus {
		for _, p := range newPaths() {
			if p.name != name {
				continue
			}
			po := o
			po.workload = o.workload + "-" + name
			po.seconds = o.seconds / float64(len(w.focus))
			r, err := p.traced(po)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", name, err)
			}
			if res == nil {
				res = r
			} else {
				res.fill(r)
			}
		}
	}
	return res, nil
}

// runEndToEnd sets up every path, interleaves their steps over the
// window, and reports setup_s as the sum of the paths' set-up medians.
func runEndToEnd(o options) (*result, error) {
	res := newResult()
	w, _ := findWorkload(o.workload)
	paths := newPaths()
	shares := make([]float64, len(paths))
	var setup float64
	for i, p := range paths {
		shares[i] = (1 - focusShare*float64(len(w.focus))) / float64(len(paths)-len(w.focus))
		if slices.Contains(w.focus, p.name) {
			shares[i] = focusShare
		}
		secs, err := medianSetup(setupRepeats(o), func() error { return p.p.setup(o) })
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", p.name, err)
		}
		setup += secs
		if h, ok := p.p.(*longTracePath); ok {
			h.measureHeap(o, res)
		}
	}
	err := interleave(o, res, paths, shares)
	for _, p := range paths {
		if ferr := p.p.finish(o, res); err == nil && ferr != nil {
			err = fmt.Errorf("%s: %w", p.name, ferr)
		}
	}
	if err != nil {
		return nil, err
	}
	res.set("setup_s", setup, "s")
	return res, nil
}

// interleave steps the paths until the window is spent.
func interleave(o options, res *result, paths []namedPath, shares []float64) error {
	used := make([]time.Duration, len(paths))
	steps := make([]int, len(paths))
	start := time.Now()
	for {
		next := pick(o, used, steps, shares)
		if next < 0 || steps[next] > 0 && time.Since(start) >= o.budget() {
			break
		}
		// Every step starts from a collected heap: the garbage of the
		// previous step, possibly another path's, is not this one's pause.
		runtime.GC()
		t := time.Now()
		if err := paths[next].p.step(o, res); err != nil {
			return fmt.Errorf("%s: %w", paths[next].name, err)
		}
		used[next] += time.Since(t)
		steps[next]++
	}
	for i, p := range paths {
		fmt.Fprintf(os.Stderr, "path %-11s %3d steps %8.3f s\n", p.name, steps[i], used[i].Seconds())
	}
	return nil
}

// pick returns the path to step next: one that has not stepped yet, else
// the one furthest behind its share of the window. The self-test steps
// each path exactly once; -1 means none is left.
func pick(o options, used []time.Duration, steps []int, shares []float64) int {
	next := -1
	for i := range used {
		switch {
		case o.tiny && steps[i] > 0:
		case next < 0:
			next = i
		case steps[i] == 0 || steps[next] == 0:
			if steps[next] > 0 {
				next = i
			}
		case float64(used[i])/shares[i] < float64(used[next])/shares[next]:
			next = i
		}
	}
	return next
}

// setupRepeats is how many times a run sets each path up, for a steady
// set-up median.
func setupRepeats(o options) int {
	if o.tiny {
		return 1
	}
	return 5
}

// maxPasses caps the measured repetitions (one in the self-test).
func maxPasses(o options) int {
	if o.tiny {
		return 1
	}
	return 1 << 30
}
