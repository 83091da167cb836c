package detect

// The program memo contract (ir.Program.Derived): the spin instrumentation
// and the vm decode of a program are computed once per spin window and
// shared by every entry point — Config.Instrument, Prepared, the run
// functions, RecordTrace, ReplayTrace — including concurrent ones. `make
// race` runs these under the Go race detector.

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"adhocrace/internal/event"
	"adhocrace/internal/spin"
)

// reportBytes renders every field of a report (fmt prints maps sorted), so
// two reports compare byte for byte.
func reportBytes(rep *Report) string { return fmt.Sprintf("%+v", *rep) }

// TestInstrumentMemoConcurrent starts every entry point at once on a fresh
// program, so the first analysis itself races: all of them must end up
// with one *spin.Instrumentation, the decode must be built from it, and
// concurrent replays of one trace must produce byte-identical reports
// equal to the live run's.
func TestInstrumentMemoConcurrent(t *testing.T) {
	cfg := HelgrindPlusLibSpin(7)
	rec := adhocFlagProgram(t)
	var buf bytes.Buffer
	if _, _, err := RecordTrace(&buf, rec, cfg, 1, event.TraceMeta{Workload: rec.Name}); err != nil {
		t.Fatalf("record: %v", err)
	}
	trace := buf.Bytes()
	live := reportBytes(mustRun(t, adhocFlagProgram(t), cfg, 1))

	p := adhocFlagProgram(t) // fresh: nothing memoized yet
	before := p.Disassemble()
	prep := Prepare(p)
	const rounds = 8
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		seen    []*spin.Instrumentation
		reports []string
		errs    []error
	)
	start := make(chan struct{})
	note := func(ins *spin.Instrumentation, rep string, err error) {
		mu.Lock()
		defer mu.Unlock()
		if ins != nil {
			seen = append(seen, ins)
		}
		if rep != "" {
			reports = append(reports, rep)
		}
		if err != nil {
			errs = append(errs, err)
		}
	}
	for i := 0; i < rounds; i++ {
		wg.Add(5)
		go func() {
			defer wg.Done()
			<-start
			note(cfg.Instrument(p), "", nil)
		}()
		go func() {
			defer wg.Done()
			<-start
			note(prep.Instrument(cfg), "", nil)
		}()
		go func() {
			defer wg.Done()
			<-start
			// The detector ReplayTrace and every run build.
			d := newPipeline(p, cfg, RunOpts{})
			note(d.ins, "", nil)
		}()
		go func() {
			defer wg.Done()
			<-start
			ins := prep.Instrument(cfg)
			if !prep.Decoded(cfg).Matches(p, ins) {
				note(nil, "", fmt.Errorf("decode not built from the memoized instrumentation"))
			}
		}()
		go func() {
			defer wg.Done()
			<-start
			tr, err := event.NewTraceReader(bytes.NewReader(trace))
			if err != nil {
				note(nil, "", err)
				return
			}
			rep, _, err := ReplayTrace(tr, p, cfg, RunOpts{})
			if err != nil {
				note(nil, "", err)
				return
			}
			note(nil, reportBytes(rep), nil)
		}()
	}
	close(start)
	wg.Wait()

	for _, err := range errs {
		t.Error(err)
	}
	if len(seen) != 3*rounds {
		t.Fatalf("collected %d instrumentations, want %d", len(seen), 3*rounds)
	}
	for i, ins := range seen {
		if ins != seen[0] {
			t.Fatalf("instrumentation %d is a different analysis (%p, first %p)", i, ins, seen[0])
		}
	}
	if got := cfg.Instrument(p); got != seen[0] {
		t.Fatalf("Config.Instrument after the race returned %p, want the memoized %p", got, seen[0])
	}
	for i, rep := range reports {
		if rep != live {
			t.Fatalf("replay %d differs from the live run:\n%s\nlive:\n%s", i, rep, live)
		}
	}
	if p.Disassemble() != before {
		t.Fatal("analysis or runs mutated the program")
	}
}

// TestInstrumentMemoPerWindow: the memo is keyed by spin window — distinct
// windows get distinct analyses, spin-off configurations none, and every
// spin-off configuration shares the one uninstrumented decode.
func TestInstrumentMemoPerWindow(t *testing.T) {
	p := adhocFlagProgram(t)
	w3, w7 := HelgrindPlusLibSpin(3), HelgrindPlusLibSpin(7)
	if a, b := w3.Instrument(p), w7.Instrument(p); a == nil || a == b || a.Window != 3 || b.Window != 7 {
		t.Fatalf("windows 3 and 7 must have their own analyses: %p (window %d), %p (window %d)", a, a.Window, b, b.Window)
	}
	lib := HelgrindPlusLib()
	if ins := lib.Instrument(p); ins != nil {
		t.Fatalf("spin-off configuration got an instrumentation: %+v", ins)
	}
	prep := Prepare(p)
	if prep.Decoded(lib) != prep.Decoded(DRD()) || !prep.Decoded(lib).Matches(p, nil) {
		t.Fatal("spin-off configurations must share the uninstrumented decode")
	}
	if prep.Decoded(w7) == prep.Decoded(lib) || !prep.Decoded(w7).Matches(p, w7.Instrument(p)) {
		t.Fatal("the spin decode must be built from the memoized window-7 analysis")
	}
	// A second Prepared of the same program shares the memo: it lives on
	// the program, not the wrapper.
	if Prepare(p).Decoded(w7) != prep.Decoded(w7) {
		t.Fatal("a second Prepared of one program re-decoded it")
	}
}

// TestBaselineUsesMemoizedDecode: Baseline runs on the program's shared
// uninstrumented decode — built by its first call, reused afterwards — and
// repeated baselines execute identically.
func TestBaselineUsesMemoizedDecode(t *testing.T) {
	p := adhocFlagProgram(t)
	first, err := Baseline(p, 3)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	p.Derived(decodeKey(0), func() any {
		t.Fatal("Baseline did not memoize the uninstrumented decode")
		return nil
	})
	again, err := Baseline(p, 3)
	if err != nil {
		t.Fatalf("baseline: %v", err)
	}
	if first.Steps != again.Steps || first.Steps == 0 {
		t.Fatalf("baseline steps %d then %d", first.Steps, again.Steps)
	}
}
