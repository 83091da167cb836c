package synth

import (
	"go/format"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// findInjected runs a corpus with a deliberately undersized spin window,
// which un-classifies every generated loop larger than the window and so
// injects oracle-vs-spin disagreements (false positives on race-free
// hand-offs the full-window preset resolves).
func findInjected(t *testing.T, d *Differ) Disagreement {
	t.Helper()
	r, err := d.RunCorpus(1, 40)
	if err != nil {
		t.Fatal(err)
	}
	for _, dis := range r.Disagreements {
		if dis.Preset == "spin" && dis.Frag.Kind == KindSpinPlain && dis.Frag.Blocks > d.Window {
			return dis
		}
	}
	t.Fatal("window injection produced no spin disagreement in 40 seeds")
	return Disagreement{}
}

// TestShrinkInjectedDisagreement: an injected disagreement shrinks to a
// single-fragment reproducer that still disagrees, without editing the
// original workload's program, and the emitted Go
// source is compilable (parses and formats cleanly) and round-trips the
// fragment list.
func TestShrinkInjectedDisagreement(t *testing.T) {
	d := &Differ{Window: 3}
	dis := findInjected(t, d)
	w := Generate(dis.Seed, d.Opts)
	if len(w.Frags) < 2 {
		t.Skipf("seed %d generated a single fragment; nothing to shrink", dis.Seed)
	}
	// Analyze and run the original first: the shrinker must rebuild every
	// candidate rather than edit a program (ir.Program is immutable once
	// built; its memoized analyses would go stale), so the original's
	// disassembly is the same afterwards.
	if _, err := d.runPreset(func() *Workload { return w }, dis.Preset); err != nil {
		t.Fatal(err)
	}
	before := w.Prog.Disassemble()
	min, err := d.Shrink(w, dis)
	if err != nil {
		t.Fatal(err)
	}
	if w.Prog.Disassemble() != before {
		t.Fatal("Shrink mutated the workload's program")
	}
	if len(min.Frags) != 1 {
		t.Fatalf("shrink left %d fragments, want 1: %v", len(min.Frags), min.Frags)
	}
	if min.Frags[0].Index != dis.Frag.Index {
		t.Fatalf("shrink kept fragment %v, want index %d", min.Frags[0], dis.Frag.Index)
	}

	// The minimal workload still reproduces: spin at the injected window
	// warns on a fragment the oracle declares race-free.
	outs, err := d.runPreset(func() *Workload {
		return Assemble(min.Name, min.Frags)
	}, "spin")
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 || !outs[0].Warned || outs[0].Match() {
		t.Fatalf("minimal reproducer no longer disagrees: %+v", outs)
	}

	src := EmitGo(min, "BuildRepro")
	fset := token.NewFileSet()
	if _, err := parser.ParseFile(fset, "repro.go", src, parser.AllErrors); err != nil {
		t.Fatalf("emitted source does not parse: %v\n%s", err, src)
	}
	formatted, err := format.Source([]byte(src))
	if err != nil {
		t.Fatalf("emitted source does not format: %v", err)
	}
	if string(formatted) != src {
		t.Errorf("emitted source is not gofmt-clean")
	}
	if !strings.Contains(src, "package dataracetest") ||
		!strings.Contains(src, min.Frags[0].Kind.GoName()) {
		t.Errorf("emitted source missing expected content:\n%s", src)
	}
}

// TestShrinkRejectsNonReproducing: shrinking a disagreement that does not
// exist fails loudly instead of fabricating a reproducer.
func TestShrinkRejectsNonReproducing(t *testing.T) {
	d := &Differ{} // full window: no injected disagreement
	w := Generate(1, Options{})
	_, err := d.Shrink(w, Disagreement{
		Seed: 1, Preset: "spin", Frag: w.Frags[0],
		Expected: !Expectations(w.Frags[0].Kind)["spin"].Warn,
		Warned:   !Expectations(w.Frags[0].Kind)["spin"].Warn,
	})
	if err == nil {
		t.Fatal("Shrink accepted a non-reproducing disagreement")
	}
}

// TestOracleRejectsWrongLabels: the runtime oracle catches a deliberately
// mislabelled workload — flip a racy fragment's declared truth and
// CheckOracle must flag it.
func TestOracleRejectsWrongLabels(t *testing.T) {
	w := Assemble("mislabel", []Fragment{{Kind: KindRacyPlain, Index: 0, Threads: 2}})
	for i := range w.Vars {
		w.Vars[i].Racy = false // lie: the race is real
	}
	bad, err := CheckOracle(w, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(bad) == 0 {
		t.Fatal("oracle accepted a mislabelled racy fragment")
	}
}
