package main

import (
	"bytes"
	"context"
	"fmt"
	"os/exec"
	"runtime"
	"strings"
	"time"

	"adhocrace/internal/detect"
	"adhocrace/internal/harness"
	"adhocrace/internal/ir"
	"adhocrace/internal/sched"
	"adhocrace/internal/synth"
	"adhocrace/internal/workloads/dataracetest"
	"adhocrace/internal/workloads/parsec"
)

// The tables-cold path: the built `tables` CLI, all tables with
// default flags, as a fresh process each time — the paper-reproduction
// path. Its input is the paper's fixed experiment set, so the seed does not
// change it; every run's output must equal the committed golden byte for
// byte, and Table 1 must carry the paper's rows.

// paperTable1 is slide 24: false alarms, missed races, failed, correct.
var paperTable1 = map[string][4]int{
	"Helgrind+ lib":           {32, 8, 40, 80},
	"Helgrind+ lib+spin(7)":   {8, 7, 15, 105},
	"Helgrind+ nolib+spin(7)": {9, 7, 16, 104},
	"DRD":                     {13, 20, 33, 87},
}

// checkTable1 verifies the paper's Table 1 rows in a tables output (its
// first block).
func checkTable1(out []byte, res *result) {
	block, _, _ := strings.Cut(string(out), "\n\n")
	found := 0
	for _, line := range strings.Split(block, "\n") {
		for tool, want := range paperTable1 {
			rest, ok := strings.CutPrefix(line, tool+" ")
			if !ok || strings.HasPrefix(strings.TrimSpace(rest), "+") {
				continue
			}
			var got [4]int
			if _, err := fmt.Sscan(rest, &got[0], &got[1], &got[2], &got[3]); err != nil || got != want {
				res.mismatch("Table 1 row %q: got %v, want %v", tool, got, want)
			}
			found++
		}
	}
	if found != len(paperTable1) {
		res.mismatch("Table 1: found %d of the paper's %d rows", found, len(paperTable1))
	}
}

// tablesGolden is the expected output: all tables, or Table 1 alone in
// the self-test (the golden's first block).
func tablesGolden(o options) ([]byte, error) {
	g, err := goldenTables()
	if err != nil || !o.tiny {
		return g, err
	}
	end := bytes.Index(g, []byte("\n\n"))
	if end < 0 {
		return nil, fmt.Errorf("tables golden has no Table 1 block")
	}
	return g[:end+2], nil
}

func tablesArgs(o options) []string {
	if o.tiny {
		return []string{"-t", "1"}
	}
	return nil
}

// execTables runs the tables CLI once and returns its output and wall time.
func execTables(o options, args ...string) ([]byte, time.Duration, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, o.tablesBin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	start := time.Now()
	err := cmd.Run()
	elapsed := time.Since(start)
	if err != nil {
		return nil, elapsed, fmt.Errorf("%s %v: %w: %s", o.tablesBin, args, err, strings.TrimSpace(stderr.String()))
	}
	return stdout.Bytes(), elapsed, nil
}

// tablesRuns runs the CLI until the budget is spent (at least once),
// checking every output, and returns the wall times in seconds.
func tablesRuns(o options, res *result, budget time.Duration) ([]float64, error) {
	want, err := tablesGolden(o)
	if err != nil {
		return nil, err
	}
	var times []float64
	deadline := time.Now().Add(budget)
	for len(times) == 0 || (time.Now().Before(deadline) && len(times) < maxPasses(o)) {
		out, elapsed, err := execTables(o, tablesArgs(o)...)
		res.attempt(err)
		if err != nil {
			break
		}
		times = append(times, elapsed.Seconds())
		if !bytes.Equal(out, want) {
			res.mismatch("tables output differs from the committed golden (%d vs %d bytes)", len(out), len(want))
		}
		checkTable1(out, res)
	}
	return times, nil
}

// tablesPath runs the CLI as a fresh process per step. Set-up is the
// process's cold start: load, package init (the model registries), and the
// smallest table.
type tablesPath struct {
	times []float64
}

func (p *tablesPath) setup(o options) error {
	_, _, err := execTables(o, "-t", "3")
	return err
}

func (p *tablesPath) step(o options, res *result) error {
	times, err := tablesRuns(o, res, 0)
	p.times = append(p.times, times...)
	return err
}

func (p *tablesPath) finish(o options, res *result) error {
	logSamples("tables_s", p.times)
	return nil
}

// tablesInProcess regenerates the tables through the harness in this
// process, one span per harness call, and returns the text the CLI prints.
func tablesInProcess(o options, t *tracer, parent spanID, stats *harness.RunStats) (string, error) {
	runner := harness.NewRunner(sched.Options{}).WithStats(stats)
	var b strings.Builder
	var err error
	t.rec.do(parent, "harness.table1", func() {
		var rows []harness.AccuracyRow
		if rows, err = runner.AccuracyTable(harness.Table1Configs(), 1); err == nil {
			b.WriteString(harness.FormatAccuracy("Table 1 — data-race-test suite, 120 cases (slide 24)", rows) + "\n")
		}
	})
	if err != nil || o.tiny {
		return b.String(), err
	}
	t.rec.do(parent, "harness.table2", func() {
		var rows []harness.AccuracyRow
		if rows, err = runner.AccuracyTable(harness.Table2Configs(), 1); err == nil {
			b.WriteString(harness.FormatAccuracy("Table 2 — spin-window sensitivity (slide 25)", rows) + "\n")
		}
	})
	if err != nil {
		return "", err
	}
	b.WriteString(harness.FormatTable3() + "\n")
	t.rec.do(parent, "harness.parsec_tables", func() {
		for _, tb := range []struct {
			title string
			run   func() (map[string]map[string]float64, []string, error)
		}{
			{"Table 4 — programs without ad-hoc synchronizations (slide 27)", runner.Table4},
			{"Table 5 — programs with ad-hoc synchronizations (slides 28/29)", runner.Table5},
			{"Table 6 — universal race detector (slide 30)", runner.Table6},
		} {
			var cells map[string]map[string]float64
			var tools []string
			if cells, tools, err = tb.run(); err != nil {
				return
			}
			var programs []string
			for _, m := range parsec.Models() { // the paper's program order
				if _, ok := cells[m.Name]; ok {
					programs = append(programs, m.Name)
				}
			}
			b.WriteString(harness.FormatContexts(tb.title, programs, tools, cells) + "\n")
		}
	})
	if err != nil {
		return "", err
	}
	t.rec.do(parent, "harness.perf", func() {
		var rows []harness.OverheadRow
		if rows, err = runner.OverheadAll(); err == nil {
			b.WriteString(harness.FormatOverhead(rows) + "\n")
		}
	})
	if err != nil {
		return "", err
	}
	t.rec.do(parent, "harness.synth", func() {
		var rows []harness.SynthRow
		var rep *synth.CorpusReport
		if rows, rep, err = runner.SynthCorpus(100, 1); err == nil {
			b.WriteString(harness.FormatSynth("Synth corpus — 100 generated programs vs the ground-truth oracle", rows, rep) + "\n")
		}
	})
	return b.String(), err
}

// tablesUnits decomposes the tables' inputs: the suite under the Table 1
// tools, the PARSEC models under the paper's four tools, and the first
// synth corpus programs under every preset — each at scheduler seed 1.
func tablesUnits(o options, t *tracer, parent spanID, res *result) {
	type input struct {
		name  string
		build func() *ir.Program
		cfgs  []detect.Config
	}
	var inputs []input
	for _, c := range dataracetest.Suite() {
		inputs = append(inputs, input{c.Name, c.Build, harness.Table1Configs()})
		if o.tiny && len(inputs) == 4 {
			break
		}
	}
	if !o.tiny {
		for _, m := range parsec.Models() {
			inputs = append(inputs, input{m.Name, m.Build, detect.PaperTools(7)})
		}
		var presets []detect.Config
		for _, p := range synth.PresetNames {
			presets = append(presets, synth.PresetConfigs(7)[p])
		}
		for s := int64(1); s <= 20; s++ {
			seed := s
			inputs = append(inputs, input{fmt.Sprintf("synth:%d", seed),
				func() *ir.Program { return synth.Generate(seed, synth.Options{}).Prog }, presets})
		}
	}
	for _, in := range inputs {
		decomposeProgram(t, parent, res, in.name, in.build, in.cfgs, 1, false)
	}
}

// decomposeProgram builds a program once, instruments and decodes it once
// per spin window, and runs and probes it under every configuration. Each
// unit first runs untraced through a detect.Prepared of the same program
// (the detector as the vm's sink, the way the workload runs it); that time
// is the untraced counterpart of the unit's e2e.run span, and the traced
// report must equal the untraced one.
func decomposeProgram(t *tracer, parent spanID, res *result, name string, build func() *ir.Program,
	cfgs []detect.Config, seed int64, gc bool) {
	prog := t.build(parent, build)
	prep := detect.Prepare(prog)
	forms := make(map[int]unit) // instrumentation and decode per spin window
	for _, cfg := range cfgs {
		f, ok := forms[cfg.SpinWindow]
		if !ok {
			f.ins, f.dec = t.instrument(parent, prog, cfg.SpinWindow)
			forms[cfg.SpinWindow] = f
		}
		prep.Decoded(cfg) // outside the untraced timing, like the traced decode
		start := time.Now()
		want, _, err := prep.Run(cfg, seed, detect.RunOpts{GCShadow: gc})
		t.untraced += time.Since(start)
		res.attempt(err)
		u := unit{name: name, prog: prog, ins: f.ins, dec: f.dec, cfg: cfg, seed: seed, gc: gc}
		rep, err := t.run(parent, "e2e.run", u)
		res.attempt(err)
		if err != nil {
			continue
		}
		if want != nil {
			res.check(name+" under "+cfg.Name+" traced vs untraced report", fingerprint(rep), fingerprint(want))
		}
		res.attempt(t.probe(parent, u, rep))
	}
}

// traceTables regenerates the tables in process, one span per harness
// call, for the harness metrics; then decomposes the tables' inputs layer
// by layer. A tables process cannot be split into layers from outside, so
// the traced path the summary reports is the decomposed units.
func traceTables(o options) (*result, error) {
	res := newResult()
	want, err := tablesGolden(o)
	if err != nil {
		return nil, err
	}

	t := newTracer()
	stats := &harness.RunStats{}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	regen := t.rec.begin(0, "tables.harness")
	out, err := tablesInProcess(o, t, regen, stats)
	t.rec.end(regen)
	runtime.ReadMemStats(&after)
	res.attempt(err)
	if err == nil && out != string(want) {
		res.mismatch("in-process tables differ from the committed golden")
	}
	for _, name := range []string{"table1", "table2", "parsec_tables", "perf", "synth"} {
		res.set("harness."+name+"_ms", ms(t.rec.spanTotal("harness."+name)), "ms")
	}
	res.set("runtime.alloc_bytes_per_event", float64(after.TotalAlloc-before.TotalAlloc)/float64(max(stats.Events.Load(), 1)), "B")

	root := t.rec.begin(0, "tables.units")
	tablesUnits(o, t, root, res)
	t.rec.end(root)
	t.stats.metrics(res)
	zeroMetrics(res, serveMetrics, overheadMetrics)
	return res, t.rec.summarize(res, o, "e2e.run", t.untraced)
}
