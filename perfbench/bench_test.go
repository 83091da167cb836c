package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// benchmarkDef is the part of ../BENCHMARK.json the self-test checks
// against: the metric names every run must emit.
type benchmarkDef struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadDef(t *testing.T) benchmarkDef {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkDef
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	return def
}

// tinyOptions builds the tables CLI once and returns self-test options.
func tinyOptions(t *testing.T) options {
	t.Helper()
	dir := t.TempDir()
	bin := filepath.Join(dir, "tables")
	if out, err := exec.Command("go", "build", "-o", bin, "adhocrace/cmd/tables").CombinedOutput(); err != nil {
		t.Fatalf("building tables: %v\n%s", err, out)
	}
	return options{seed: 3, seconds: 0.1, tablesBin: bin, spansDir: dir, commit: "test", tiny: true}
}

// deterministicCounts are the per-layer counts that must repeat exactly
// between two traced runs of the same inputs.
var deterministicCounts = []string{"vm.steps", "detect.events", "detect.warnings", "detect.shadow_bytes", "spin.loops", "core.edges"}

// TestTinyRuns runs every workload at tiny size, end to end and traced
// twice: every named metric must be emitted with its unit, every
// correctness check must pass, and the deterministic counts must repeat.
func TestTinyRuns(t *testing.T) {
	def := loadDef(t)
	base := tinyOptions(t)
	for _, w := range benchWorkloads {
		t.Run(w.name, func(t *testing.T) {
			o := base
			o.workload = w.name
			res, err := runEndToEnd(o)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res)
			for _, m := range def.EndToEnd {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit || got.Value <= 0 {
					t.Errorf("end-to-end %s: got %+v (present %v), want a positive value in %s", m.Name, got, ok, m.Unit)
				}
			}

			o.trace = true
			var runs [2]*result
			for i := range runs {
				if runs[i], err = runTraced(o); err != nil {
					t.Fatal(err)
				}
				checkResult(t, runs[i])
			}
			for _, m := range def.PerLayer {
				if got, ok := runs[0].Metrics[m.Name]; !ok || got.Unit != m.Unit {
					t.Errorf("per-layer %s: got %+v (present %v), want unit %s", m.Name, got, ok, m.Unit)
				}
			}
			if len(runs[0].Metrics) != len(def.PerLayer) {
				t.Errorf("traced run emitted %d metrics, BENCHMARK.json names %d", len(runs[0].Metrics), len(def.PerLayer))
			}
			for _, name := range deterministicCounts {
				if a, b := runs[0].Metrics[name].Value, runs[1].Metrics[name].Value; a != b {
					t.Errorf("%s differs between identical traced runs: %v vs %v", name, a, b)
				}
			}
			if runs[0].Metrics["detect.events"].Value <= 0 || runs[0].Metrics["vm.steps"].Value <= 0 {
				t.Errorf("traced run decomposed no work: %+v", runs[0].Metrics)
			}
			// The summary must cover a path made of layer calls, with its
			// untraced counterpart measured.
			m := runs[0].Metrics
			if m["trace.e2e_ms"].Value <= 0 || m["trace.layer_sum_ms"].Value <= 0 || m["trace.overhead_pct"].Value == 0 {
				t.Errorf("trace summary: e2e %v ms, layer sum %v ms, overhead %v%%",
					m["trace.e2e_ms"].Value, m["trace.layer_sum_ms"].Value, m["trace.overhead_pct"].Value)
			}
			for _, name := range w.focus {
				if _, err := os.Stat(filepath.Join(o.spansDir, w.name+"-"+name+"-seed3.json")); err != nil {
					t.Errorf("span file: %v", err)
				}
			}
		})
	}
}

func checkResult(t *testing.T, res *result) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d: %v", res.Correct, res.Attempted, res.Failed, res.mismatches)
	}
}

// TestWorkloadsMatchDefinition pins the workload list to BENCHMARK.json
// and checks that the workloads concentrate on every path between them.
func TestWorkloadsMatchDefinition(t *testing.T) {
	def := loadDef(t)
	if len(def.Workloads) != len(benchWorkloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark program %d", len(def.Workloads), len(benchWorkloads))
	}
	for _, w := range def.Workloads {
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("workload %q is not the benchmark program's", w.Name)
		}
	}
	focused := make(map[string]bool)
	for _, w := range benchWorkloads {
		for _, name := range w.focus {
			focused[name] = true
		}
	}
	for _, p := range newPaths() {
		if !focused[p.name] {
			t.Errorf("no workload concentrates on path %q", p.name)
		}
	}
}

// TestQuantile pins the statistics helpers.
func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 0.95); got < 3.8 || got > 3.9 {
		t.Errorf("p95 = %v, want 3.85", got)
	}
	if got := geomean([]float64{2, 8}); got < 3.999 || got > 4.001 {
		t.Errorf("geomean = %v, want 4", got)
	}
}
