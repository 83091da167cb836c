// Package detect implements the dynamic race detectors evaluated in the
// paper: the Helgrind+ hybrid (lockset + happens-before, with the spin-loop
// feature of this paper), the DRD-style pure happens-before baseline, and a
// pure Eraser lockset reference used in tests.
//
// A Detector consumes the vm event stream of one execution and produces a
// Report. The paper's four tool configurations are exposed as presets:
//
//	Helgrind+ lib          — library interception only
//	Helgrind+ lib+spin(k)  — interception plus spin detection, window k
//	Helgrind+ nolib+spin(k)— spin detection only (the universal detector)
//	DRD                    — pure happens-before baseline
package detect

import (
	"fmt"

	"adhocrace/internal/ir"
	"adhocrace/internal/spin"
)

// Tool selects the detection algorithm.
type Tool uint8

// Tools.
const (
	// HelgrindPlus is the hybrid detector: vector-clock happens-before
	// race checking with Eraser lockset classification, per-address
	// report deduplication, unlimited access history, and — configurably —
	// the spin-loop feature.
	HelgrindPlus Tool = iota
	// DRDTool is the pure happens-before baseline: per-access-site report
	// granularity, a bounded segment history (old accesses are recycled
	// and can no longer pair into races), atomic accesses excluded from
	// race checking, and no barrier awareness.
	DRDTool
	// EraserTool is the classic lockset-only detector (test reference;
	// not part of the paper's tables).
	EraserTool
)

var toolNames = [...]string{"helgrind+", "drd", "eraser"}

// String names the tool.
func (t Tool) String() string {
	if int(t) < len(toolNames) {
		return toolNames[t]
	}
	return "tool(?)"
}

// Config selects a tool configuration. Zero value is not valid; use the
// preset constructors.
type Config struct {
	// Name labels the configuration in reports and tables.
	Name string
	// Tool is the detection algorithm.
	Tool Tool
	// KnownLibs is the set of library tags whose calls are intercepted:
	// their internals are hidden and replaced by semantic sync events.
	KnownLibs map[ir.LibTag]bool
	// SyncSupport lists the semantic sync kinds the detector turns into
	// happens-before edges. Nil means all kinds. DRD famously lacks
	// barrier support.
	SyncSupport map[ir.SyncKind]bool
	// SpinWindow is the basic-block window of the spin-loop
	// instrumentation; 0 disables the feature.
	SpinWindow int
	// AtomicSuppression, when true (Helgrind+ with the spin feature off),
	// suppresses race reports on any address that has ever been accessed
	// atomically — the coarse sync-variable heuristic the spin feature
	// replaces with exact spin-confirmed classification.
	AtomicSuppression bool
	// AtomicsInvisible, when true (DRD), excludes atomic accesses from
	// race checking entirely.
	AtomicsInvisible bool
	// HistoryWindow bounds, in events, how far apart two accesses may be
	// and still be paired into a race report; 0 means unlimited. Models
	// DRD's segment recycling.
	HistoryWindow int64
	// DedupPerAddr, when true (Helgrind+), reports only the first racy
	// context per address; otherwise every (address, location) pair
	// reports once (DRD).
	DedupPerAddr bool
	// LongRunMSM, when true, uses the long-running-application memory
	// state machine: the first racy observation on an address is only
	// recorded as suspicion; a second racy observation reports. Less
	// sensitive, fewer false positives (integration-testing mode).
	LongRunMSM bool
	// InferLocks enables the paper's future-work extension: identify lock
	// words (conditions of CAS-acquire spin loops) so that fast-path
	// acquires outside the loop also synchronize. Improves the accuracy
	// of the universal detector on two-phase locks.
	InferLocks bool

	// fullVCReads switches the shard read representation from the adaptive
	// FastTrack epochs back to the seed full-vector-clock implementation
	// (refreads.go) — the reference the epoch-equivalence tests replay
	// corpora against. Test-only, reachable through an export_test hook;
	// never set by the presets.
	fullVCReads bool
	// fullVCSync switches the happens-before engine from the
	// epoch-compressed clock store to the seed full-vector-clock reference
	// (hb.NewReference) — the sync-side counterpart of fullVCReads, used
	// by the TestSyncStoreEquivalence tests. Test-only.
	fullVCSync bool
}

// drdHistoryWindow is the event-distance budget modeling DRD's segment
// recycling.
const drdHistoryWindow = 2000

func pthreadGlib() map[ir.LibTag]bool {
	return map[ir.LibTag]bool{ir.LibPthread: true, ir.LibGlib: true}
}

// HelgrindPlusLib is the paper's "Helgrind+ lib" configuration: pthread and
// GLIB interception, no spin detection, atomic sync-variable heuristic.
func HelgrindPlusLib() Config {
	return Config{
		Name:              "Helgrind+ lib",
		Tool:              HelgrindPlus,
		KnownLibs:         pthreadGlib(),
		AtomicSuppression: true,
		DedupPerAddr:      true,
	}
}

// HelgrindPlusLibSpin is "Helgrind+ lib+spin(k)": interception plus the
// spin-loop feature with basic-block window k.
func HelgrindPlusLibSpin(window int) Config {
	return Config{
		Name:         sprintfCfg("Helgrind+ lib+spin(%d)", window),
		Tool:         HelgrindPlus,
		KnownLibs:    pthreadGlib(),
		SpinWindow:   window,
		DedupPerAddr: true,
	}
}

// HelgrindPlusNolibSpin is "Helgrind+ nolib+spin(k)": the universal
// detector — no library knowledge at all, spin detection only.
func HelgrindPlusNolibSpin(window int) Config {
	return Config{
		Name:         sprintfCfg("Helgrind+ nolib+spin(%d)", window),
		Tool:         HelgrindPlus,
		KnownLibs:    map[ir.LibTag]bool{},
		SpinWindow:   window,
		DedupPerAddr: true,
	}
}

// HelgrindPlusNolibSpinLocks is the universal detector with the paper's
// future-work extension enabled: lock-operation identification.
func HelgrindPlusNolibSpinLocks(window int) Config {
	cfg := HelgrindPlusNolibSpin(window)
	cfg.Name = sprintfCfg("Helgrind+ nolib+spin(%d)+locks", window)
	cfg.InferLocks = true
	return cfg
}

// DRD is the paper's comparison baseline.
func DRD() Config {
	sup := map[ir.SyncKind]bool{
		ir.SyncMutexLock: true, ir.SyncMutexUnlock: true,
		ir.SyncCondSignal: true, ir.SyncCondWait: true,
		ir.SyncSemPost: true, ir.SyncSemWait: true,
		ir.SyncRWLockRd: true, ir.SyncRWLockWr: true, ir.SyncRWUnlock: true,
		ir.SyncOnceEnter: true, ir.SyncQueuePut: true, ir.SyncQueueGet: true,
		// SyncBarrierWait deliberately absent: DRD has no barrier model.
	}
	return Config{
		Name:             "DRD",
		Tool:             DRDTool,
		KnownLibs:        map[ir.LibTag]bool{ir.LibPthread: true},
		SyncSupport:      sup,
		AtomicsInvisible: true,
		HistoryWindow:    drdHistoryWindow,
	}
}

// Eraser is the pure lockset reference detector.
func Eraser() Config {
	return Config{
		Name:         "Eraser",
		Tool:         EraserTool,
		KnownLibs:    pthreadGlib(),
		DedupPerAddr: true,
	}
}

// PaperTools returns the four configurations of the paper's tables, with
// the given spin window (the paper uses 7).
func PaperTools(window int) []Config {
	return []Config{
		HelgrindPlusLib(),
		HelgrindPlusLibSpin(window),
		HelgrindPlusNolibSpin(window),
		DRD(),
	}
}

func sprintfCfg(format string, a ...any) string {
	return fmt.Sprintf(format, a...)
}

// forgetfulReadsOK reports whether the configuration's reporting can never
// observe retired read history, which is what licenses FastTrack demotion
// (readstate.go): a write ordered after every recorded read retires them.
// A race between a retired read r and a later access a implies every write
// in the shadow write-epoch chain from the retiring write up to a either
// races (w_i ⊀ w_i+1 — detected as a write-write race at w_i+1) or
// transitively orders r before a (no race to lose). So the only way a
// retired read changes output is through the report that the chain-break
// race produces *instead* — and under per-address deduplication with
// unlimited history and no long-run arming, that earlier report (or its
// address-monotone suppression) silences the later one identically.
// DRD-style per-site dedup or a bounded history window can tell the two
// apart, so those configurations keep every read until a read-set's
// natural end.
func (c *Config) forgetfulReadsOK() bool {
	return c.DedupPerAddr && !c.LongRunMSM && c.HistoryWindow == 0
}

// supportsSync reports whether the configuration turns the given sync kind
// into happens-before edges.
func (c *Config) supportsSync(k ir.SyncKind) bool {
	if c.SyncSupport == nil {
		return true
	}
	return c.SyncSupport[k]
}

// Instrument returns the instrumentation phase of the configuration over a
// program (nil when the spin feature is off). The analysis runs once per
// (program, spin window) and is memoized on the program (ir.Program.Derived),
// so every run, recording and replay of one program shares the same
// *spin.Instrumentation — the load-time phase of the paper's tool, paid
// once. Safe for concurrent use.
func (c *Config) Instrument(p *ir.Program) *spin.Instrumentation {
	return instrument(p, c.SpinWindow)
}
