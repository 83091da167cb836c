package harness

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"adhocrace/internal/detect"
	"adhocrace/internal/sched"
	"adhocrace/internal/synth"
	"adhocrace/internal/workloads/dataracetest"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden/ from the current detector")

// goldenRun is one (workload, preset, seed) detector run of the golden
// corpus.
type goldenRun struct {
	workload string
	prep     *detect.Prepared
	cfg      detect.Config
	preset   string
	seed     int64
}

// goldenCase pins one corpus: every run's sha256(ReportFingerprint), one
// line each, against a committed file under testdata/golden/.
type goldenCase struct {
	file string
	runs func() []goldenRun
}

// goldenSuiteRuns is the 120-case accuracy suite under Table 1's tools, the
// lock-inference extension and Eraser, at Table 1's seed.
func goldenSuiteRuns() []goldenRun {
	cfgs := append(detect.PaperTools(7), detect.HelgrindPlusNolibSpinLocks(7), detect.Eraser())
	var runs []goldenRun
	for i, c := range dataracetest.Suite() {
		prep := preparedSuite()[i]
		for _, cfg := range cfgs {
			runs = append(runs, goldenRun{c.Name, prep, cfg, cfg.Name, 1})
		}
	}
	return runs
}

// goldenSynthRuns is the synth corpus `tables -t synth` scores: generator
// seeds 1..100 under every differ preset, scheduler seed 1.
func goldenSynthRuns() []goldenRun {
	presets := synth.PresetConfigs(7)
	var runs []goldenRun
	for s := int64(1); s <= 100; s++ {
		w := synth.Generate(s, synth.Options{})
		prep := detect.Prepare(w.Prog)
		for _, p := range synth.PresetNames {
			runs = append(runs, goldenRun{w.Name, prep, presets[p], p, 1})
		}
	}
	return runs
}

// render runs the corpus on a parallel engine and renders one line per run
// in corpus order: workload, preset, seed and the fingerprint's digest,
// tab-separated.
func (gc goldenCase) render(t *testing.T) string {
	runs := gc.runs()
	lines, err := sched.Map(sched.New(sched.Options{}), runs, func(r goldenRun) (string, error) {
		rep, _, err := r.prep.Run(r.cfg, r.seed, detect.RunOpts{})
		if err != nil {
			return "", fmt.Errorf("%s under %s: %w", r.workload, r.preset, err)
		}
		return fmt.Sprintf("%s\t%s\t%d\t%x\n", r.workload, r.preset, r.seed,
			sha256.Sum256([]byte(ReportFingerprint(rep)))), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return strings.Join(lines, "")
}

// TestGoldenReports pins every report of the accuracy suite and the synth
// corpus to a committed digest, so a change to the detector's mechanics is
// checked against a fixed artifact, not only against live reference code.
// Run with -update to rewrite the files after an intended report change.
func TestGoldenReports(t *testing.T) {
	for _, gc := range []goldenCase{
		{"suite.txt", goldenSuiteRuns},
		{"synth.txt", goldenSynthRuns},
	} {
		t.Run(strings.TrimSuffix(gc.file, ".txt"), func(t *testing.T) {
			path := filepath.Join("testdata", "golden", gc.file)
			got := gc.render(t)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			gotLines := strings.SplitAfter(got, "\n")
			wantLines := strings.SplitAfter(string(want), "\n")
			if len(gotLines) != len(wantLines) {
				t.Fatalf("%s: %d runs, golden has %d", path, len(gotLines)-1, len(wantLines)-1)
			}
			bad := 0
			for i := range gotLines {
				if gotLines[i] != wantLines[i] {
					if bad < 10 {
						t.Errorf("%s line %d:\n got %q\nwant %q", path, i+1, gotLines[i], wantLines[i])
					}
					bad++
				}
			}
			if bad > 0 {
				t.Errorf("%s: %d of %d runs differ from the golden", path, bad, len(gotLines)-1)
			}
		})
	}
}
