package main

import (
	"fmt"
	"runtime"
	"time"

	"adhocrace/internal/detect"
	"adhocrace/internal/ir"
	"adhocrace/internal/synclib"
	"adhocrace/internal/synth"
	"adhocrace/internal/vm"
)

// The longtrace path: synth.LongTrace with the shadow GC on under the
// lib preset — one persistent detector fed window after window of a
// lock-heavy spawn/join churn program, millions of events per call. The
// seed picks the base scheduler seed from a fixed pool so the warnings can
// be checked against committed fingerprints.

// longTraceSeeds is the pool of base seeds (window w runs at base+w).
var longTraceSeeds = []int64{1, 1001, 2001, 3001}

// longTraceWindows is the windows per LongTrace call: ~26k events each,
// so a full call streams 1.3M events through one detector.
func longTraceWindows(o options) int {
	if o.tiny {
		return 2
	}
	return 50
}

func longTraceSeed(s int64) int64 {
	n := int64(len(longTraceSeeds))
	return longTraceSeeds[(s%n+n)%n]
}

func longTraceKey(windows int, seed int64) string {
	return fmt.Sprintf("longtrace/%d/%d", windows, seed)
}

// longTraceCall is one timed LongTrace call.
type longTraceCall struct {
	elapsed  time.Duration
	events   int64
	peakHeap uint64 // the largest HeapInuse sampled at each window
	fp       string
}

// runLongTraceCall runs one call. With sampleHeap it samples heap
// occupancy after every window; the sampling stops the world, so calls
// timed for their rate leave it off.
func runLongTraceCall(seed int64, windows int, sampleHeap bool) (longTraceCall, error) {
	var c longTraceCall
	opts := synth.LongTraceOpts{
		Windows: windows,
		Cfg:     detect.HelgrindPlusLib(),
		Opts:    detect.RunOpts{GCShadow: true},
	}
	if sampleHeap {
		var mem runtime.MemStats
		opts.OnWindow = func(int, *detect.Report) {
			runtime.ReadMemStats(&mem)
			c.peakHeap = max(c.peakHeap, mem.HeapInuse)
		}
	}
	start := time.Now()
	rep, err := synth.LongTrace(seed, opts)
	c.elapsed = time.Since(start)
	if err != nil {
		return c, err
	}
	c.events = rep.Events
	c.fp = fingerprint(rep)
	return c, nil
}

// longTraceCalls runs at least minCalls calls and more until the budget is
// spent, checking each against the committed fingerprint.
func longTraceCalls(o options, res *result, golden map[string]string, budget time.Duration, minCalls int,
	sampleHeap bool) []longTraceCall {
	seed, windows := longTraceSeed(o.seed), longTraceWindows(o)
	var calls []longTraceCall
	deadline := time.Now().Add(budget)
	for len(calls) < minCalls || (time.Now().Before(deadline) && len(calls) < maxPasses(o)) {
		c, err := runLongTraceCall(seed, windows, sampleHeap)
		res.attempt(err)
		if err != nil {
			break
		}
		checkGolden(res, golden, longTraceKey(windows, seed), c.fp)
		calls = append(calls, c)
	}
	return calls
}

// longTracePath runs one LongTrace call per step. Set-up warms the
// process: a short call fills the detector's pools and the heap.
type longTracePath struct {
	golden map[string]string
	prog   *ir.Program
	dec    *vm.Decoded
	rates  []float64
	slow   []float64
	heaps  []float64
}

// heapCalls is how many calls measure the peak heap.
const heapCalls = 3

func (p *longTracePath) setup(o options) error {
	var err error
	if p.golden, err = goldenFingerprints(); err != nil {
		return err
	}
	_, err = runLongTraceCall(longTraceSeed(o.seed), 4, false)
	return err
}

// measureHeap runs the calls whose peak heap the run reports. HeapInuse
// counts everything the process holds, so these calls must run while the
// heap holds nothing but the long trace: before any other path is set up.
func (p *longTracePath) measureHeap(o options, res *result) {
	runtime.GC()
	for _, c := range longTraceCalls(o, res, p.golden, 0, min(heapCalls, maxPasses(o)), true) {
		p.heaps = append(p.heaps, float64(c.peakHeap)/(1<<20))
	}
}

// step times one call, then the same windows on the vm alone (the
// uninstrumented program, no sink) for the call's slowdown. The vm-only
// program is built at the first step, after the heap measurement, so the
// peak heap holds nothing but the long trace.
func (p *longTracePath) step(o options, res *result) error {
	seed, windows := longTraceSeed(o.seed), longTraceWindows(o)
	libs := detect.HelgrindPlusLib().KnownLibs
	if p.prog == nil {
		p.prog = buildLongTraceProgram()
		p.dec = detect.Prepare(p.prog).Decoded(detect.HelgrindPlusLib())
	}
	for _, c := range longTraceCalls(o, res, p.golden, 0, 1, false) {
		p.rates = append(p.rates, float64(c.events)/c.elapsed.Seconds())
		start := time.Now()
		for w := 0; w < windows; w++ {
			_, err := vm.Run(p.prog, vm.Options{Seed: seed + int64(w), KnownLibs: libs, Decoded: p.dec})
			res.attempt(err)
		}
		p.slow = append(p.slow, float64(c.elapsed)/float64(time.Since(start)))
	}
	return nil
}

func (p *longTracePath) finish(o options, res *result) error {
	logSamples("longtrace_events_per_s", p.rates)
	logSamples("longtrace_slowdown_x", p.slow)
	logSamples("longtrace_peak_heap_mb", p.heaps)
	res.set("longtrace_slowdown_x", median(p.slow), "x")
	res.set("longtrace_peak_heap_mb", median(p.heaps), "MB")
	return nil
}

// buildLongTraceProgram builds the same phased churn program synth.LongTrace
// runs with its default options (32 phases of 2 workers making 4 locked
// passes over a 48-word slice, plus one unprotected store each), so the
// traced run can drive it through the layers one call at a time. The
// traced run checks its report against synth.LongTrace's fingerprint, which
// pins the two builds together.
func buildLongTraceProgram() *ir.Program {
	const phases, span, workers, passes = 32, 48, 2, 4
	b := ir.NewBuilder("longtrace")
	lib := synclib.Install(b, ir.LibPthread)
	data := b.GlobalArray("DATA", phases*span)
	racy := b.GlobalArray("RACY", phases)
	mus := make([]int64, phases)
	for p := range mus {
		mus[p] = b.Global(fmt.Sprintf("mu%d", p))
	}
	for p := 0; p < phases; p++ {
		f := b.Func(fmt.Sprintf("phase%d", p), 0)
		lo := f.Const(int64(p * span))
		hi := f.Const(int64((p + 1) * span))
		one := f.Const(1)
		for pass := 0; pass < passes; pass++ {
			lib.Lock(f, mus[p], "")
			idx := f.Mov(lo)
			head, body, done := f.NewBlock(), f.NewBlock(), f.NewBlock()
			f.Jmp(head)
			f.SetBlock(head)
			f.Br(f.CmpLT(idx, hi), body, done)
			f.SetBlock(body)
			v := f.LoadIdx(data, idx, "DATA")
			f.StoreIdx(data, idx, f.Add(v, one), "DATA")
			f.BinTo(ir.OpAdd, idx, idx, one)
			f.Jmp(head)
			f.SetBlock(done)
			lib.Unlock(f, mus[p], "")
		}
		f.StoreAddr(racy+int64(p)*8, one)
		f.Ret(ir.NoReg)
	}
	m := b.Func("main", 0)
	for p := 0; p < phases; p++ {
		tids := make([]int, workers)
		for w := range tids {
			tids[w] = m.Spawn(fmt.Sprintf("phase%d", p))
		}
		for _, tid := range tids {
			m.Join(tid)
		}
	}
	m.Ret(ir.NoReg)
	return b.MustBuild()
}

func traceLongTrace(o options) (*result, error) {
	res := newResult()
	golden, err := goldenFingerprints()
	if err != nil {
		return nil, err
	}
	seed, windows := longTraceSeed(o.seed), longTraceWindows(o)

	// Untraced half.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	calls := longTraceCalls(o, res, golden, o.budget()/2, 1, false)
	runtime.ReadMemStats(&after)
	var events int64
	var perWindow []float64
	for _, c := range calls {
		events += c.events
		perWindow = append(perWindow, float64(c.elapsed)/float64(windows))
	}
	res.set("runtime.alloc_bytes_per_event", float64(after.TotalAlloc-before.TotalAlloc)/float64(events), "B")

	// Traced half: one call's windows, layer by layer, into one
	// persistent detector.
	t := newTracer()
	root := t.rec.begin(0, "longtrace.traced")
	cfg := detect.HelgrindPlusLib()
	prog := t.build(root, buildLongTraceProgram)
	_, dec := t.instrument(root, prog, 0)
	var d *detect.Detector
	t.stats.newT += t.rec.do(root, "detect.new", func() {
		d = detect.New(cfg, nil, prog)
		d.EnableShadowGC(0)
	})
	t.stats.news++
	var rep *detect.Report
	for w := 0; w < windows; w++ {
		id := t.rec.begin(root, "e2e.window")
		t.trace.Events = t.trace.Events[:0]
		var vres vm.Result
		t.stats.vmRun += t.rec.do(id, "vm.run", func() {
			vres, err = vm.Run(prog, vm.Options{Seed: seed + int64(w), KnownLibs: cfg.KnownLibs, Decoded: dec, Sink: &t.trace})
		})
		res.attempt(err)
		if err != nil {
			t.rec.end(id)
			break
		}
		t.stats.steps += vres.Steps
		t.stats.handle += t.rec.do(id, "detect.handle", func() {
			for i := range t.trace.Events {
				d.Handle(&t.trace.Events[i])
			}
			d.Flush()
		})
		t.stats.handledEvents += int64(len(t.trace.Events))
		t.stats.report += t.rec.do(id, "detect.report", func() { rep = d.Report() })
		t.rec.end(id)
	}
	if rep != nil {
		t.stats.observe(rep)
		checkGolden(res, golden, longTraceKey(windows, seed), fingerprint(rep))
	}

	// Probe the layers inside the detector on the last window's stream,
	// replayed through a fresh detector.
	u := unit{name: "longtrace", prog: prog, dec: dec, cfg: cfg, seed: seed + int64(windows-1), gc: true}
	probeRep, err := t.run(root, "probe.run", u)
	res.attempt(err)
	if err == nil {
		res.attempt(t.probe(root, u, probeRep))
	}
	t.rec.end(root)
	t.stats.metrics(res)
	zeroMetrics(res, harnessMetrics, serveMetrics, overheadMetrics)
	untraced := time.Duration(median(perWindow) * float64(windows))
	return res, t.rec.summarize(res, o, "e2e.window", untraced)
}

// longTraceGoldens fingerprints every pool seed at the full and tiny
// window counts.
func longTraceGoldens(out map[string]string) error {
	for _, windows := range []int{longTraceWindows(options{}), longTraceWindows(options{tiny: true})} {
		for _, seed := range longTraceSeeds {
			c, err := runLongTraceCall(seed, windows, false)
			if err != nil {
				return err
			}
			out[longTraceKey(windows, seed)] = c.fp
		}
	}
	return nil
}
