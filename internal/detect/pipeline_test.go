// Pipeline determinism tests live in the external test package: they
// drive the detector exclusively through its exported API, and they pull
// in the workload packages (which, via the synthesis engine, import
// detect — an import cycle for an in-package test).
package detect_test

import (
	"fmt"
	"strings"
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/ir"
	"adhocrace/internal/workloads/dataracetest"
	"adhocrace/internal/workloads/parsec"
)

// fingerprint renders everything a Report exposes, so two reports with
// equal fingerprints are observably identical: every warning with all its
// fields, every counter, the shadow accounting, and the derived context
// metrics.
func fingerprint(rep *detect.Report) string {
	var b strings.Builder
	fmt.Fprintf(&b, "config=%s events=%d spinEdges=%d spinLoops=%d inferredLocks=%d shadowBytes=%d\n",
		rep.Config.Name, rep.Events, rep.SpinEdges, rep.SpinLoops,
		rep.InferredLockWords, rep.ShadowBytes)
	fmt.Fprintf(&b, "promotions=%d demotions=%d\n", rep.ReadSetPromotions, rep.ReadSetDemotions)
	fmt.Fprintf(&b, "syncEpochHits=%d syncRebases=%d syncInflates=%d\n",
		rep.SyncEpochHits, rep.SyncRebases, rep.SyncInflates)
	fmt.Fprintf(&b, "racyContexts=%d contexts=%v\n", rep.RacyContexts(), rep.ContextList())
	for i, w := range rep.Warnings {
		fmt.Fprintf(&b, "warning[%d]=%+v\n", i, w)
	}
	return b.String()
}

// overlapModes are the pipeline shapes compared against the synchronous
// run: overlap at the default segment size, and at a segment size smaller
// than most streams, so segment boundaries fall inside every run.
var overlapModes = []struct {
	name string
	opts detect.RunOpts
}{
	{"overlap", detect.RunOpts{}.Overlapped()},
	{"overlap-64", detect.RunOpts{SegmentEvents: 64}},
}

// checkPipelineDeterminism runs one (program, config, seed) synchronously
// and under every overlap mode, and asserts byte-identical reports.
func checkPipelineDeterminism(t *testing.T, build func() *ir.Program, name string, cfg detect.Config, seed int64) {
	t.Helper()
	prep := detect.PrepareBuild(build)
	base, _, err := prep.Run(cfg, seed, detect.RunOpts{})
	if err != nil {
		t.Fatalf("%s under %s seed %d (sync): %v", name, cfg.Name, seed, err)
	}
	want := fingerprint(base)
	for _, mode := range overlapModes {
		rep, _, err := prep.Run(cfg, seed, mode.opts)
		if err != nil {
			t.Fatalf("%s under %s seed %d (%s): %v", name, cfg.Name, seed, mode.name, err)
		}
		if got := fingerprint(rep); got != want {
			t.Errorf("%s under %s seed %d: %s report differs from the synchronous run\n--- sync ---\n%s--- %s ---\n%s",
				name, cfg.Name, seed, mode.name, want, mode.name, got)
		}
	}
}

// TestPipelineDeterminism sweeps the data-race-test suite under the paper
// tools, the lock-inference variant and Eraser, and the PARSEC models with
// the densest event streams and the heaviest ad-hoc synchronization: the
// overlapped pipeline must report exactly what the synchronous one does.
func TestPipelineDeterminism(t *testing.T) {
	t.Run("suite", func(t *testing.T) {
		cfgs := append(detect.PaperTools(7), detect.Eraser(), detect.HelgrindPlusNolibSpinLocks(7))
		for _, c := range dataracetest.Suite() {
			for _, cfg := range cfgs {
				checkPipelineDeterminism(t, c.Build, c.Name, cfg, 1)
			}
		}
	})
	t.Run("parsec", func(t *testing.T) {
		for _, name := range []string{"x264", "freqmine", "dedup"} {
			m, ok := parsec.ByName(name)
			if !ok {
				t.Fatalf("no model %q", name)
			}
			for _, cfg := range detect.PaperTools(7) {
				checkPipelineDeterminism(t, m.Build, m.Name, cfg, 1)
			}
		}
	})
}
