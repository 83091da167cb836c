package main

import (
	"bytes"
	"fmt"
	"time"

	"adhocrace/internal/core"
	"adhocrace/internal/detect"
	"adhocrace/internal/event"
	"adhocrace/internal/hb"
	"adhocrace/internal/ir"
	"adhocrace/internal/lockset"
	"adhocrace/internal/spin"
	"adhocrace/internal/vm"
)

// The layer decomposition drives one (program, tool, seed) unit through
// the layers one public call at a time — build, instrument, decode, vm.Run
// into an event.Trace, that trace into detect.New(...).Handle, Report —
// and then probes the layers the detector hides: the trace encoder and
// decoder, ReplayTrace, and the hb, lockset and core engines each fed the
// recorded stream on their own. The shadow-word path has no public entry,
// so its cost is reported as the residual of Handle after hb, lockset and
// core.

// layerStats accumulates work counts and busy time per layer over every
// decomposed unit of a traced run.
type layerStats struct {
	build, analyze, decode time.Duration
	loops                  int64

	vmRun time.Duration
	steps int64

	header, decodeEv, encode time.Duration
	decodedEvents            int64
	encodedEvents            int64
	traceBytes               int64

	news                           int64
	newT, handle, report, replayOv time.Duration
	handledEvents                  int64
	// probeHandle and probeEvents cover only the streams probe fed to
	// the hb, lockset and core engines, the base of the residual.
	probeHandle              time.Duration
	probeEvents              int64
	events, warnings, shadow int64
	gcCycles, gcWords        int64

	hbT       time.Duration
	hbOps     int64
	hbObjects int64

	lsT        time.Duration
	lsAccesses int64

	coreT      time.Duration
	coreEvents int64
	coreEdges  int64
}

// perEvent returns d in nanoseconds per n events (0 for none).
func perEvent(d time.Duration, n int64) float64 {
	if n == 0 {
		return 0
	}
	return float64(d) / float64(n)
}

// metrics sets every layer metric the decomposition measures.
func (ls *layerStats) metrics(res *result) {
	res.set("ir.build_ms", ms(ls.build), "ms")
	res.set("spin.analyze_ms", ms(ls.analyze), "ms")
	res.set("spin.loops", float64(ls.loops), "count")
	res.set("vm.decode_ms", ms(ls.decode), "ms")
	res.set("vm.run_ms", ms(ls.vmRun), "ms")
	res.set("vm.ns_per_step", perEvent(ls.vmRun, ls.steps), "ns")
	res.set("vm.steps", float64(ls.steps), "count")
	res.set("event.header_ms", ms(ls.header), "ms")
	res.set("event.decode_ns_per_event", perEvent(ls.decodeEv, ls.decodedEvents), "ns")
	res.set("event.encode_ns_per_event", perEvent(ls.encode, ls.encodedEvents), "ns")
	bpe := 0.0
	if ls.encodedEvents > 0 {
		bpe = float64(ls.traceBytes) / float64(ls.encodedEvents)
	}
	res.set("event.bytes_per_event", bpe, "B")
	newUs := 0.0
	if ls.news > 0 {
		newUs = float64(ls.newT) / float64(ls.news) / 1e3
	}
	res.set("detect.new_us", newUs, "us")
	res.set("detect.handle_ns_per_event", perEvent(ls.handle, ls.handledEvents), "ns")
	residual := ls.probeHandle - ls.hbT - ls.lsT - ls.coreT
	res.set("detect.access_residual_ns_per_event", perEvent(residual, ls.probeEvents), "ns")
	res.set("detect.report_ms", ms(ls.report), "ms")
	res.set("detect.replay_overhead_ms", ms(ls.replayOv), "ms")
	res.set("detect.events", float64(ls.events), "count")
	res.set("detect.warnings", float64(ls.warnings), "count")
	res.set("detect.shadow_bytes", float64(ls.shadow), "B")
	res.set("detect.gc_cycles", float64(ls.gcCycles), "count")
	res.set("detect.gc_words_retired", float64(ls.gcWords), "count")
	res.set("hb.ns_per_op", perEvent(ls.hbT, ls.hbOps), "ns")
	res.set("hb.sync_objects", float64(ls.hbObjects), "count")
	res.set("lockset.ns_per_access", perEvent(ls.lsT, ls.lsAccesses), "ns")
	res.set("core.ns_per_spin_event", perEvent(ls.coreT, ls.coreEvents), "ns")
	res.set("core.edges", float64(ls.coreEdges), "count")
}

// observe folds a detector report's counters into the stats.
func (ls *layerStats) observe(rep *detect.Report) {
	ls.events += rep.Events
	ls.warnings += int64(len(rep.Warnings))
	ls.shadow += rep.ShadowBytes
	ls.gcCycles += rep.GCCycles
	ls.gcWords += rep.GCWordsRetired
}

// tracer couples the span recorder with the layer stats of one traced run.
type tracer struct {
	rec   *recorder
	stats layerStats
	trace event.Trace // reused event buffer
	// lastHandle is the detect.handle time of the stream in trace.
	lastHandle time.Duration
	// untraced is the untraced time of the decomposed units, where the
	// decomposition measures it (decomposeProgram).
	untraced time.Duration
}

func newTracer() *tracer { return &tracer{rec: newRecorder()} }

// unit is one decomposed detector run.
type unit struct {
	name string
	prog *ir.Program
	ins  *spin.Instrumentation
	dec  *vm.Decoded
	cfg  detect.Config
	seed int64
	gc   bool
}

// build runs a program's build function inside an ir.build span.
func (t *tracer) build(parent spanID, f func() *ir.Program) *ir.Program {
	var p *ir.Program
	t.stats.build += t.rec.do(parent, "ir.build", func() { p = f() })
	return p
}

// instrument runs the spin analysis (when cfg enables it) and the vm
// decode of the instrumented program, each inside its own span.
func (t *tracer) instrument(parent spanID, p *ir.Program, window int) (*spin.Instrumentation, *vm.Decoded) {
	var ins *spin.Instrumentation
	if window > 0 {
		t.stats.analyze += t.rec.do(parent, "spin.analyze", func() { ins = spin.Analyze(p, window) })
		t.stats.loops += int64(ins.NumLoops())
	}
	var dec *vm.Decoded
	t.stats.decode += t.rec.do(parent, "vm.decode", func() { dec = vm.Decode(p, ins) })
	return ins, dec
}

// run executes one unit layer by layer under a span named spanName: the vm
// into the reused event trace, then a fresh detector fed that trace. The
// recorded events stay in t.trace for probe.
func (t *tracer) run(parent spanID, spanName string, u unit) (*detect.Report, error) {
	id := t.rec.begin(parent, spanName)
	defer t.rec.end(id)
	t.trace.Events = t.trace.Events[:0]
	var res vm.Result
	var err error
	t.stats.vmRun += t.rec.do(id, "vm.run", func() {
		res, err = vm.Run(u.prog, vm.Options{
			Seed: u.seed, KnownLibs: u.cfg.KnownLibs, Instr: u.ins, Decoded: u.dec, Sink: &t.trace,
		})
	})
	if err != nil {
		return nil, fmt.Errorf("%s: vm: %w", u.name, err)
	}
	t.stats.steps += res.Steps
	var d *detect.Detector
	t.stats.newT += t.rec.do(id, "detect.new", func() {
		d = detect.New(u.cfg, u.ins, u.prog)
		if u.gc {
			d.EnableShadowGC(0)
		}
	})
	t.stats.news++
	t.lastHandle = t.rec.do(id, "detect.handle", func() {
		evs := t.trace.Events
		for i := range evs {
			d.Handle(&evs[i])
		}
		d.Flush()
	})
	t.stats.handle += t.lastHandle
	t.stats.handledEvents += int64(len(t.trace.Events))
	var rep *detect.Report
	t.stats.report += t.rec.do(id, "detect.report", func() { rep = d.Report() })
	t.stats.observe(rep)
	return rep, nil
}

// probe measures the layers inside the detector over the stream run just
// recorded: trace encode, header parse, decode-only, ReplayTrace, and the
// hb, lockset and core engines each fed the stream alone. rep is run's
// report; the replayed report and the core engine's edge count must match
// it, or the probe fails.
func (t *tracer) probe(parent spanID, u unit, rep *detect.Report) error {
	id := t.rec.begin(parent, "probe.unit")
	defer t.rec.end(id)
	evs := t.trace.Events
	n := int64(len(evs))

	var buf bytes.Buffer
	var werr error
	t.stats.encode += t.rec.do(id, "event.encode", func() {
		tw := event.NewTraceWriter(&buf, event.TraceMeta{Workload: u.name, Tool: u.cfg.Name, Seed: u.seed}, u.prog.Interning())
		for i := range evs {
			tw.Handle(&evs[i])
		}
		werr = tw.Close()
	})
	if werr != nil {
		return fmt.Errorf("%s: encode: %w", u.name, werr)
	}
	t.stats.encodedEvents += n
	t.stats.traceBytes += int64(buf.Len())
	data := buf.Bytes()

	var tr *event.TraceReader
	var err error
	t.stats.header += t.rec.do(id, "event.header", func() { tr, err = event.NewTraceReader(bytes.NewReader(data)) })
	if err != nil {
		return fmt.Errorf("%s: header: %w", u.name, err)
	}
	var decoded int64
	decodeT := t.rec.do(id, "event.decode", func() {
		var ev event.Event
		for {
			ok, derr := tr.Next(&ev)
			if derr != nil {
				err = derr
				return
			}
			if !ok {
				return
			}
			decoded++
		}
	})
	if err != nil || decoded != n {
		return fmt.Errorf("%s: decode: %d of %d events: %v", u.name, decoded, n, err)
	}
	t.stats.decodeEv += decodeT
	t.stats.decodedEvents += n

	tr, err = event.NewTraceReader(bytes.NewReader(data))
	if err != nil {
		return err
	}
	var replayed *detect.Report
	replayT := t.rec.do(id, "detect.replay", func() {
		replayed, _, err = detect.ReplayTrace(tr, u.prog, u.cfg, detect.RunOpts{GCShadow: u.gc})
	})
	if err != nil {
		return fmt.Errorf("%s: replay: %w", u.name, err)
	}
	t.stats.replayOv += replayT - decodeT - t.lastHandle
	if fingerprint(replayed) != fingerprint(rep) {
		return fmt.Errorf("%s under %s: replayed report differs from the live run", u.name, u.cfg.Name)
	}

	t.stats.probeHandle += t.lastHandle
	t.stats.probeEvents += n
	t.stats.hbT += t.rec.do(id, "hb.replay", func() { t.hbPass(u.cfg) })
	t.stats.lsT += t.rec.do(id, "lockset.replay", func() { t.locksetPass(u.cfg) })
	var edges int64
	t.stats.coreT += t.rec.do(id, "core.replay", func() { edges = t.corePass(u) })
	if edges != rep.SpinEdges {
		return fmt.Errorf("%s under %s: core engine alone injected %d edges, detector %d",
			u.name, u.cfg.Name, edges, rep.SpinEdges)
	}
	t.stats.coreEdges += edges
	return nil
}

// supports mirrors the detector's sync-kind filter (Config.SyncSupport; nil
// means every kind).
func supports(cfg detect.Config, k ir.SyncKind) bool {
	return cfg.SyncSupport == nil || cfg.SyncSupport[k]
}

// skipAccess mirrors the detector's DRD rule: atomic accesses are
// invisible to it.
func skipAccess(cfg detect.Config, k event.Kind) bool {
	return cfg.Tool == detect.DRDTool && cfg.AtomicsInvisible && k.IsAtomic()
}

// hbPass replays the trace's sync and lifecycle events into a fresh
// happens-before engine, with one Snapshot per access — the engine calls the
// detector makes for the stream.
func (t *tracer) hbPass(cfg detect.Config) {
	h := hb.New()
	var ops int64
	for i := range t.trace.Events {
		ev := &t.trace.Events[i]
		ops++
		switch ev.Kind {
		case event.KindRead, event.KindWrite, event.KindAtomicRead, event.KindAtomicWrite:
			if skipAccess(cfg, ev.Kind) {
				ops--
				continue
			}
			h.Snapshot(ev.Tid)
		case event.KindSyncPre:
			switch {
			case ev.Sync == ir.SyncDestroy:
				h.ForgetObject(ev.Addr)
			case !supports(cfg, ev.Sync):
				ops--
			case ev.Sync == ir.SyncCondWait:
				h.Release(ev.Tid, ev.Addr2)
			case ev.Sync == ir.SyncBarrierWait:
				h.BarrierArrive(ev.Tid, ev.Addr)
			case ev.Sync == ir.SyncMutexUnlock, ev.Sync == ir.SyncCondSignal, ev.Sync == ir.SyncSemPost,
				ev.Sync == ir.SyncQueuePut, ev.Sync == ir.SyncRWUnlock:
				h.Release(ev.Tid, ev.Addr)
			default:
				ops--
			}
		case event.KindSyncPost:
			switch {
			case ev.Sync == ir.SyncDestroy || !supports(cfg, ev.Sync):
				ops--
			case ev.Sync == ir.SyncCondWait:
				h.Acquire(ev.Tid, ev.Addr)
				h.Acquire(ev.Tid, ev.Addr2)
			case ev.Sync == ir.SyncBarrierWait:
				h.BarrierLeave(ev.Tid, ev.Addr)
			case ev.Sync == ir.SyncMutexLock, ev.Sync == ir.SyncSemWait, ev.Sync == ir.SyncQueueGet,
				ev.Sync == ir.SyncOnceEnter, ev.Sync == ir.SyncRWLockRd, ev.Sync == ir.SyncRWLockWr:
				h.Acquire(ev.Tid, ev.Addr)
			default:
				ops--
			}
		case event.KindSpawn:
			h.Spawn(ev.Tid, ev.Child)
		case event.KindJoin:
			h.Join(ev.Tid, ev.Child)
		case event.KindThreadStart:
			h.ThreadStarted(ev.Tid)
		case event.KindThreadExit:
			h.ThreadExited(ev.Tid)
		default:
			ops--
		}
	}
	t.stats.hbOps += ops
	t.stats.hbObjects += h.Objects()
}

// locksetPass replays the trace's lock operations into a fresh tracker and
// runs the Eraser state machine for every access, the way the hybrid
// detector does (DRD keeps no locksets).
func (t *tracer) locksetPass(cfg detect.Config) {
	if cfg.Tool == detect.DRDTool {
		return
	}
	tr := lockset.NewTracker()
	var accesses int64
	for i := range t.trace.Events {
		ev := &t.trace.Events[i]
		switch ev.Kind {
		case event.KindRead, event.KindWrite, event.KindAtomicRead, event.KindAtomicWrite:
			tr.AccessWith(ev.Tid, ev.Addr, ev.Kind.IsWrite(), tr.HeldSnapshot(ev.Tid))
			accesses++
		case event.KindSyncPre:
			if !supports(cfg, ev.Sync) {
				continue
			}
			switch ev.Sync {
			case ir.SyncMutexUnlock, ir.SyncRWUnlock:
				tr.LockReleased(ev.Tid, ev.Addr)
			case ir.SyncCondWait:
				tr.LockReleased(ev.Tid, ev.Addr2)
			}
		case event.KindSyncPost:
			if !supports(cfg, ev.Sync) {
				continue
			}
			switch ev.Sync {
			case ir.SyncMutexLock, ir.SyncRWLockRd, ir.SyncRWLockWr:
				tr.LockAcquired(ev.Tid, ev.Addr)
			case ir.SyncCondWait:
				tr.LockAcquired(ev.Tid, ev.Addr2)
			}
		}
	}
	t.stats.lsAccesses += accesses
}

// corePass feeds the trace's spin marks and writes to a fresh ad-hoc
// synchronization engine (over its own happens-before engine) and returns
// the edges it injected.
func (t *tracer) corePass(u unit) int64 {
	c := core.New(hb.New(), u.ins, u.prog)
	c.InferLocks = u.cfg.InferLocks
	var fed int64
	for i := range t.trace.Events {
		ev := &t.trace.Events[i]
		switch {
		case ev.Kind == event.KindSpinRead:
			c.OnSpinRead(ev)
		case ev.Kind == event.KindSpinExit:
			c.OnSpinExit(ev)
		case ev.Kind.IsWrite() && !skipAccess(u.cfg, ev.Kind):
			c.OnWrite(ev)
		default:
			continue
		}
		fed++
	}
	t.stats.coreEvents += fed
	return c.Edges
}
