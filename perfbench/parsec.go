package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/harness"
	"adhocrace/internal/vm"
	"adhocrace/internal/workloads/parsec"
)

// The parsec path: a warm, in-process pass over all 13 PARSEC models,
// each compiled once in set-up. A pass runs (a) the lib and lib+spin(7)
// live detector runs, (b) a vm-only run on the prepared uninstrumented
// decode with no sink, and (c) ReplayTrace of the spin trace recorded in
// set-up. The seed picks each model's scheduler seed from harness.Seeds, so
// every run's reports can be checked against committed fingerprints.

var (
	parsecLib  = detect.HelgrindPlusLib()
	parsecSpin = detect.HelgrindPlusLibSpin(7)
)

// parsecModel is one model compiled for the workload.
type parsecModel struct {
	name  string
	prep  *detect.Prepared
	seed  int64
	trace []byte // the lib+spin(7) stream at seed, recorded in set-up
}

// parsecSeed is the scheduler seed model i runs under for workload seed s.
func parsecSeed(s int64, i int) int64 {
	n := int64(len(harness.Seeds))
	return harness.Seeds[((s+int64(i))%n+n)%n]
}

// goldenKey names a model run in the committed fingerprint table.
func goldenKey(model string, cfg detect.Config, seed int64) string {
	return fmt.Sprintf("parsec/%s/%s/%d", model, cfg.Name, seed)
}

// setupParsec compiles every model (program, both instrumentations and
// decodes) and records its spin trace.
func setupParsec(seed int64) ([]*parsecModel, error) {
	var out []*parsecModel
	for i, m := range parsec.Models() {
		pm := &parsecModel{name: m.Name, prep: detect.PrepareBuild(m.Build), seed: parsecSeed(seed, i)}
		pm.prep.Decoded(parsecLib)
		pm.prep.Decoded(parsecSpin)
		var buf bytes.Buffer
		meta := event.TraceMeta{Workload: m.Name, Tool: "spin", Window: 7, Seed: pm.seed}
		if _, _, err := detect.RecordTrace(&buf, pm.prep.Prog, parsecSpin, pm.seed, meta); err != nil {
			return nil, fmt.Errorf("record %s: %w", m.Name, err)
		}
		pm.trace = buf.Bytes()
		out = append(out, pm)
	}
	return out, nil
}

// parsecPass is the timing of one pass, summed over models, plus each
// model's own times for the overhead figures.
type parsecPass struct {
	lib, spin, vmOnly, replay time.Duration
	events                    int64
	modelLib, modelSpin       []time.Duration
	modelVM, modelReplay      []time.Duration
}

// runPass runs one pass and checks every report: live reports against the
// committed fingerprints, the replayed report against the live spin run.
func runPass(models []*parsecModel, golden map[string]string, res *result) parsecPass {
	var p parsecPass
	for _, m := range models {
		start := time.Now()
		repLib, _, err := m.prep.Run(parsecLib, m.seed, detect.RunOpts{})
		libT := time.Since(start)
		res.attempt(err)

		start = time.Now()
		repSpin, _, err := m.prep.Run(parsecSpin, m.seed, detect.RunOpts{})
		spinT := time.Since(start)
		res.attempt(err)

		start = time.Now()
		_, err = vm.Run(m.prep.Prog, vm.Options{Seed: m.seed, KnownLibs: parsecLib.KnownLibs, Decoded: m.prep.Decoded(parsecLib)})
		vmT := time.Since(start)
		res.attempt(err)

		start = time.Now()
		var repReplay *detect.Report
		tr, err := event.NewTraceReader(bytes.NewReader(m.trace))
		if err == nil {
			repReplay, _, err = detect.ReplayTrace(tr, m.prep.Prog, parsecSpin, detect.RunOpts{})
		}
		replayT := time.Since(start)
		res.attempt(err)
		if repLib == nil || repSpin == nil || repReplay == nil {
			continue
		}

		p.lib += libT
		p.spin += spinT
		p.vmOnly += vmT
		p.replay += replayT
		p.modelLib = append(p.modelLib, libT)
		p.modelSpin = append(p.modelSpin, spinT)
		p.modelVM = append(p.modelVM, vmT)
		p.modelReplay = append(p.modelReplay, replayT)
		p.events += repLib.Events + repSpin.Events + repReplay.Events

		fpSpin := fingerprint(repSpin)
		checkGolden(res, golden, goldenKey(m.name, parsecLib, m.seed), fingerprint(repLib))
		checkGolden(res, golden, goldenKey(m.name, parsecSpin, m.seed), fpSpin)
		res.check(m.name+" replayed vs live spin report", fingerprint(repReplay), fpSpin)
	}
	return p
}

// parsecRatios are the passes' slowdowns over the uninstrumented vm-only
// run — the paper's overhead figure — of the lib and lib+spin(7) detector
// runs and of ReplayTrace of the spin trace: per model the median time
// over the median vm-only time, geometric mean over the models.
type parsecRatios struct{ lib, spin, replay float64 }

func ratios(passes []parsecPass) parsecRatios {
	if len(passes) == 0 {
		return parsecRatios{}
	}
	var libX, spinX, replayX []float64
	for i := range passes[0].modelVM {
		var l, s, v, r []float64
		for _, p := range passes {
			if i >= len(p.modelVM) {
				continue // a pass with a failed run (already counted)
			}
			l = append(l, ms(p.modelLib[i]))
			s = append(s, ms(p.modelSpin[i]))
			v = append(v, ms(p.modelVM[i]))
			r = append(r, ms(p.modelReplay[i]))
		}
		libX = append(libX, median(l)/median(v))
		spinX = append(spinX, median(s)/median(v))
		replayX = append(replayX, median(r)/median(v))
	}
	return parsecRatios{geomean(libX), geomean(spinX), geomean(replayX)}
}

// parsecPasses runs passes until the budget is spent (at least one).
func parsecPasses(o options, models []*parsecModel, golden map[string]string, res *result, budget time.Duration) []parsecPass {
	var passes []parsecPass
	deadline := time.Now().Add(budget)
	for len(passes) == 0 || (time.Now().Before(deadline) && len(passes) < maxPasses(o)) {
		passes = append(passes, runPass(models, golden, res))
	}
	return passes
}

// parsecPath runs one pass per step over the models compiled in set-up.
type parsecPath struct {
	golden map[string]string
	models []*parsecModel
	passes []parsecPass
}

func (p *parsecPath) setup(o options) error {
	var err error
	if p.golden, err = goldenFingerprints(); err != nil {
		return err
	}
	p.models, err = setupParsec(o.seed)
	return err
}

func (p *parsecPath) step(o options, res *result) error {
	p.passes = append(p.passes, runPass(p.models, p.golden, res))
	return nil
}

func (p *parsecPath) finish(o options, res *result) error {
	var lib, spin, replay []float64
	for _, ps := range p.passes {
		lib = append(lib, ms(ps.lib))
		spin = append(spin, ms(ps.spin))
		replay = append(replay, ms(ps.replay))
	}
	logSamples("parsec_lib_ms", lib)
	logSamples("parsec_spin_ms", spin)
	logSamples("parsec_replay_ms", replay)
	x := ratios(p.passes)
	res.set("parsec_lib_slowdown_x", x.lib, "x")
	res.set("parsec_spin_slowdown_x", x.spin, "x")
	res.set("parsec_replay_x", x.replay, "x")
	p.models = nil
	return nil
}

func traceParsec(o options) (*result, error) {
	res := newResult()
	golden, err := goldenFingerprints()
	if err != nil {
		return nil, err
	}
	models, err := setupParsec(o.seed)
	if err != nil {
		return nil, err
	}

	// Untraced half: the end-to-end passes, per-model times for the
	// overhead figures, and allocation per event.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	passes := parsecPasses(o, models, golden, res, o.budget()/2)
	runtime.ReadMemStats(&after)
	var events int64
	var perPass []float64
	for _, p := range passes {
		events += p.events
		perPass = append(perPass, ms(p.lib+p.spin))
	}
	x := ratios(passes)
	res.set("parsec.overhead_lib_x", x.lib, "x")
	res.set("parsec.overhead_spin_x", x.spin, "x")
	res.set("runtime.alloc_bytes_per_event", float64(after.TotalAlloc-before.TotalAlloc)/float64(events), "B")

	// Traced half: every model built, instrumented and decoded layer by
	// layer, then one pass of its lib and spin runs decomposed and probed.
	t := newTracer()
	root := t.rec.begin(0, "parsec.traced")
	for i, m := range parsec.Models() {
		prog := t.build(root, m.Build)
		_, libDec := t.instrument(root, prog, 0)
		spinIns, spinDec := t.instrument(root, prog, 7)
		seed := models[i].seed
		for _, u := range []unit{
			{name: m.Name, prog: prog, dec: libDec, cfg: parsecLib, seed: seed},
			{name: m.Name, prog: prog, ins: spinIns, dec: spinDec, cfg: parsecSpin, seed: seed},
		} {
			rep, err := t.run(root, "e2e.run", u)
			res.attempt(err)
			if err != nil {
				continue
			}
			checkGolden(res, golden, goldenKey(m.Name, u.cfg, seed), fingerprint(rep))
			res.attempt(t.probe(root, u, rep))
		}
	}
	t.rec.end(root)
	t.stats.metrics(res)
	zeroMetrics(res, harnessMetrics, serveMetrics)
	untraced := time.Duration(median(perPass) * float64(time.Millisecond))
	return res, t.rec.summarize(res, o, "e2e.run", untraced)
}

// parsecGoldens fingerprints every model under both presets at every seed
// the workload can draw.
func parsecGoldens(out map[string]string) error {
	for _, m := range parsec.Models() {
		prep := detect.PrepareBuild(m.Build)
		for _, cfg := range []detect.Config{parsecLib, parsecSpin} {
			for _, seed := range harness.Seeds {
				rep, _, err := prep.Run(cfg, seed, detect.RunOpts{})
				if err != nil {
					return fmt.Errorf("%s: %w", m.Name, err)
				}
				out[goldenKey(m.Name, cfg, seed)] = fingerprint(rep)
			}
		}
	}
	return nil
}
