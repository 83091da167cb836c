// Command perfbench is the repository benchmark: four paths that exercise
// the race detector end to end (a cold `tables` regeneration, a warm
// PARSEC pass, a long streamed trace, and raced sessions), measured in
// every run under two workloads that each concentrate on two of them
// (batch: tables-cold and parsec; online: raced and longtrace), plus a
// traced run that attributes time to the layers (ir, spin/cfg, vm, event,
// detect, hb, lockset, core, harness, serve) by timing calls into each
// layer's public functions from outside.
//
// Usage:
//
//	perfbench -workload batch|online -seed N
//	          -seconds S -trace 0|1 [-tables-bin PATH] [-spans-dir DIR]
//	          [-commit ID]
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With -trace 0 the metrics are the
// end-to-end figures; with -trace 1 they are the per-layer figures and the
// span files (one per traced path) are written under -spans-dir. The line before it carries the
// machine metadata (nproc, GOMAXPROCS, Go version, commit). Progress and
// diagnostics go to standard error. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// options are the command-line inputs shared by every workload.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	tablesBin string
	spansDir  string
	commit    string
	// tiny shrinks every path to one small iteration (the self-test).
	tiny bool
}

// budget is the wall-clock measuring window of one run.
func (o options) budget() time.Duration {
	return time.Duration(o.seconds * float64(time.Second))
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "workload: batch, online")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed (selects the generated inputs)")
	flag.Float64Var(&o.seconds, "seconds", 10, "measuring window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced per-layer run instead of the end-to-end one")
	flag.StringVar(&o.tablesBin, "tables-bin", filepath.Join(".bench_build", "bin", "tables"), "built tables CLI (tables-cold)")
	flag.StringVar(&o.spansDir, "spans-dir", filepath.Join(".bench_build", "spans"), "directory the traced run writes its span file into")
	flag.StringVar(&o.commit, "commit", "unknown", "source revision stamped into the metadata")
	regenDir := flag.String("regen", "", "recompute the committed fingerprints into this directory and exit")
	flag.Parse()
	o.trace = trace == 1

	if *regenDir != "" {
		if err := regen(*regenDir); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: regen: %v\n", err)
			os.Exit(1)
		}
		return
	}
	run := runEndToEnd
	if o.trace {
		run = runTraced
	}
	if _, known := findWorkload(o.workload); !known || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %g)\n",
			o.workload, trace, o.seconds)
		os.Exit(2)
	}
	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", o.workload, err)
		os.Exit(1)
	}
	meta, err := json.Marshal(machineMeta(o))
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("meta %s\n%s\n", meta, line)
	if !res.Correct || res.Failed > 0 {
		for _, m := range res.mismatches {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %s\n", o.workload, m)
		}
		os.Exit(1)
	}
}

// machineMeta is the stamp every result carries: a perf figure counts
// only with the CPU count, scheduler width, toolchain and source revision
// it was measured under.
func machineMeta(o options) map[string]any {
	return map[string]any{
		"workload":   o.workload,
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"commit":     o.commit,
	}
}
