package detect

import (
	"sync/atomic"
	"time"

	"adhocrace/internal/event"
	"adhocrace/internal/fault"
	"adhocrace/internal/ir"
	"adhocrace/internal/obs"
	"adhocrace/internal/spin"
	"adhocrace/internal/vm"
)

// RunOpts selects the pipeline shape of one detector run. The zero value
// is the plain synchronous single-threaded pipeline. Every combination
// produces byte-identical reports; the knobs trade wall-clock time only.
type RunOpts struct {
	// Shards partitions the detector's shadow state across this many shard
	// workers (see NewSharded); values below 2 mean single-threaded.
	Shards int
	// SegmentEvents > 0 overlaps vm execution with detection through
	// double-buffered trace segments of this many events
	// (vm.Options.SegmentEvents); negative uses event.DefaultSegmentEvents.
	SegmentEvents int
	// AdaptiveSegments grows/shrinks the overlap segment size from
	// observed pipeline stalls (vm.Options.AdaptiveSegments); reports are
	// byte-identical under every sizing policy.
	AdaptiveSegments bool

	// GCShadow enables the quiescence shadow-state GC (see gc.go): shadow
	// words, read-sets, sync objects, and release histories dominated by
	// every live thread's clock are retired during the run. Warnings stay
	// byte-identical to the unbounded detector (the equivalence suite's
	// bar); ShadowBytes and the representation counters reflect the
	// retirement — that bounded footprint is the point.
	GCShadow bool
	// GCEvents sets the GC cycle period in events (0 means
	// DefaultGCEvents). Only meaningful with GCShadow.
	GCEvents int64

	// OnWarning, when set, observes every warning of the run exactly once,
	// in the final report's order — the server's incremental report stream.
	// With a single shard the callback fires inline as warnings are
	// appended (stream order); with more shards, warnings surface when the
	// merged report is assembled, still in the same order. Either way the
	// observed sequence equals Report.Warnings byte for byte. The callback
	// runs on whichever goroutine drives detection (the vm's execution
	// goroutine, or the overlap pipeline's consumer), so it may block —
	// blocking is the server's backpressure — but must not call back into
	// the detector.
	OnWarning func(Warning)
	// Tap, when non-nil, observes the raw event stream ahead of the
	// detector (live progress gauges; event.AtomicCounter is the intended
	// implementation). Called once per event on the producing goroutine.
	Tap event.Sink
	// Interrupt, when non-nil, aborts the run once it reads true
	// (vm.Options.Interrupt): vm.Run returns vm.ErrInterrupted and the
	// report covers exactly the events emitted before the stop.
	Interrupt *atomic.Bool
	// Deadline, when non-zero, aborts the run once the wall clock passes it
	// (vm.Options.Deadline): vm.Run returns vm.ErrDeadline, polled
	// alongside Interrupt at scheduling points. The server's per-run
	// timeout (raced -run-timeout).
	Deadline time.Time
	// Fault, when non-nil, arms the pipeline's named failpoints (segment
	// rotation, demux dispatch, shard apply, merge, GC cycle — see
	// internal/fault). Nil (the default) keeps every site a nil-check;
	// this is the chaos suite's injection handle, never set in production
	// runs unless explicitly configured.
	Fault *fault.Registry
	// Obs, when non-nil, records per-stage observability for the run —
	// vm quanta, segment pipeline stalls, demux batches, shard applies,
	// GC cycles, merge time — into the pipeline's recorder (internal/obs).
	// Nil (the default) makes every probe a nil-check; reports are
	// byte-identical either way.
	Obs *obs.Pipeline
	// Reference runs the vm's legacy switch interpreter instead of the
	// pre-decoded dispatch (vm.Options.Reference) — the equivalence suite's
	// oracle. Reports are byte-identical either way; only speed differs.
	Reference bool
}

// Overlapped returns o with the segment overlap enabled at the default
// segment size (unless a size is already chosen).
func (o RunOpts) Overlapped() RunOpts {
	if o.SegmentEvents == 0 {
		o.SegmentEvents = -1
	}
	return o
}

// Prepared is a workload compiled once and shared by many detector runs.
// Its instrumentation and vm decode per spin window are the program's own
// memoized analyses (Config.Instrument, ir.Program.Derived) — both
// immutable at run time: the vm keeps all execution state private and the
// spin analysis is purely static — so concurrent runs (the experiment
// engine's jobs, sharded workers) share them, and so does every other
// entry point handed the same program (RunOpt, RecordTrace, ReplayTrace).
type Prepared struct {
	Prog *ir.Program
}

// Prepare wraps an already-built program for shared runs.
func Prepare(p *ir.Program) *Prepared { return &Prepared{Prog: p} }

// PrepareBuild builds and wraps a workload.
func PrepareBuild(build func() *ir.Program) *Prepared { return Prepare(build()) }

// Instrument returns cfg's instrumentation phase over the program (nil
// when the spin feature is off); see Config.Instrument. Safe for
// concurrent use.
func (pr *Prepared) Instrument(cfg Config) *spin.Instrumentation { return cfg.Instrument(pr.Prog) }

// Decoded returns the program's pre-decoded executable form under cfg's
// instrumentation (vm.Decode), memoized per spin window like Instrument.
// Safe for concurrent use; the decoded form is immutable.
func (pr *Prepared) Decoded(cfg Config) *vm.Decoded { return decoded(pr.Prog, cfg.SpinWindow) }

// Run executes the prepared workload under one tool configuration, seed,
// and pipeline shape, feeding the event stream through a fresh detector.
func (pr *Prepared) Run(cfg Config, seed int64, opts RunOpts) (*Report, vm.Result, error) {
	return run(pr.Prog, cfg, seed, opts, nil)
}

// RunWithCounter is Run with an event counter tapping the stream ahead of
// the detector.
func (pr *Prepared) RunWithCounter(cfg Config, seed int64, opts RunOpts) (*Report, *event.Counter, vm.Result, error) {
	ctr := &event.Counter{}
	rep, res, err := run(pr.Prog, cfg, seed, opts, ctr)
	return rep, ctr, res, err
}

// Run executes a program under one tool configuration and seed: it runs the
// instrumentation phase, executes the program on the VM with the
// configuration's interception set, and feeds the event stream through a
// fresh detector.
func Run(p *ir.Program, cfg Config, seed int64) (*Report, vm.Result, error) {
	return RunOpt(p, cfg, seed, RunOpts{})
}

// RunSharded is Run with the detector's shadow state partitioned across
// the given number of shard workers (see NewSharded). The report is
// byte-identical to shards == 1; only wall-clock time changes.
func RunSharded(p *ir.Program, cfg Config, seed int64, shards int) (*Report, vm.Result, error) {
	return RunOpt(p, cfg, seed, RunOpts{Shards: shards})
}

// RunOpt is Run with an explicit pipeline shape.
func RunOpt(p *ir.Program, cfg Config, seed int64, opts RunOpts) (*Report, vm.Result, error) {
	return run(p, cfg, seed, opts, nil)
}

// RunWithCounter is Run with an event counter attached (for the performance
// figures measuring instrumentation load).
func RunWithCounter(p *ir.Program, cfg Config, seed int64) (*Report, *event.Counter, vm.Result, error) {
	return RunWithCounterOpt(p, cfg, seed, RunOpts{})
}

// RunWithCounterSharded is RunWithCounter with a sharded detector (see
// NewSharded). The counter runs on the event-consuming goroutine either
// way.
func RunWithCounterSharded(p *ir.Program, cfg Config, seed int64, shards int) (*Report, *event.Counter, vm.Result, error) {
	return RunWithCounterOpt(p, cfg, seed, RunOpts{Shards: shards})
}

// RunWithCounterOpt is RunWithCounter with an explicit pipeline shape.
func RunWithCounterOpt(p *ir.Program, cfg Config, seed int64, opts RunOpts) (*Report, *event.Counter, vm.Result, error) {
	ctr := &event.Counter{}
	rep, res, err := run(p, cfg, seed, opts, ctr)
	return rep, ctr, res, err
}

// run is the shared run body: build the detector for the requested
// pipeline shape, execute the program's memoized decode under cfg's
// instrumentation, report. ctr, when non-nil, taps the stream ahead of the
// detector.
func run(p *ir.Program, cfg Config, seed int64, opts RunOpts, ctr *event.Counter) (*Report, vm.Result, error) {
	d := newPipeline(p, cfg, opts)
	defer d.Close()
	var sink event.Sink = d
	switch {
	case ctr != nil && opts.Tap != nil:
		sink = event.Multi(ctr, opts.Tap, d)
	case ctr != nil:
		sink = event.Multi(ctr, d)
	case opts.Tap != nil:
		sink = event.Multi(opts.Tap, d)
	}
	res, err := vm.Run(p, vm.Options{
		Seed:             seed,
		KnownLibs:        cfg.KnownLibs,
		Instr:            d.ins,
		Sink:             sink,
		SegmentEvents:    opts.SegmentEvents,
		AdaptiveSegments: opts.AdaptiveSegments,
		Interrupt:        opts.Interrupt,
		Deadline:         opts.Deadline,
		Obs:              opts.Obs,
		Fault:            opts.Fault,
		Decoded:          decoded(p, cfg.SpinWindow),
		Reference:        opts.Reference,
	})
	return d.Report(), res, err
}

// newPipeline builds the detector of one run or replay: cfg's memoized
// instrumentation of p, opts' shard count, shadow GC, observability,
// failpoints and warning observer. The caller closes it.
func newPipeline(p *ir.Program, cfg Config, opts RunOpts) *Detector {
	d := NewSharded(cfg, cfg.Instrument(p), p, opts.Shards)
	if opts.GCShadow {
		d.EnableShadowGC(opts.GCEvents)
	}
	d.setObs(opts.Obs)
	d.setFault(opts.Fault)
	d.setWarningObserver(opts.OnWarning)
	return d
}

// instrumentKey and decodeKey are detect's ir.Program.Derived keys: the
// spin instrumentation and the vm decode of a program, per spin window
// (decodeKey 0 is the uninstrumented decode every spin-off configuration
// shares).
type (
	instrumentKey int
	decodeKey     int
)

// instrument is Config.Instrument by window.
func instrument(p *ir.Program, window int) *spin.Instrumentation {
	if window <= 0 {
		return nil
	}
	return p.Derived(instrumentKey(window), func() any { return spin.Analyze(p, window) }).(*spin.Instrumentation)
}

// decoded returns the program's pre-decoded executable form under the
// window's instrumentation (vm.Decode), memoized on the program like
// instrument.
func decoded(p *ir.Program, window int) *vm.Decoded {
	if window < 0 {
		window = 0
	}
	ins := instrument(p, window)
	return p.Derived(decodeKey(window), func() any { return vm.Decode(p, ins) }).(*vm.Decoded)
}

// Baseline executes the program with no detector attached, for runtime
// overhead comparisons: the uninstrumented vm on the program's memoized
// decode, so repeated baselines time execution alone.
func Baseline(p *ir.Program, seed int64) (vm.Result, error) {
	return vm.Run(p, vm.Options{Seed: seed, Decoded: decoded(p, 0), KnownLibs: map[ir.LibTag]bool{
		ir.LibPthread: true, ir.LibGlib: true, ir.LibOMP: true,
	}})
}
