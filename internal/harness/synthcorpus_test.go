package harness

import (
	"testing"

	"adhocrace/internal/sched"
)

// TestSynthCorpusDeterminism: the corpus rows are byte-identical across
// the sequential engine, a parallel engine, and the overlapped pipeline —
// the same guarantee the paper tables carry.
func TestSynthCorpusDeterminism(t *testing.T) {
	const n = 20
	baseRows, _, err := NewRunner(sched.Options{Sequential: true}).SynthCorpus(n, 1)
	if err != nil {
		t.Fatal(err)
	}
	variants := []*Runner{
		NewRunner(sched.Options{Workers: 4}),
		NewRunner(sched.Options{Workers: 4}).WithOverlap(true),
	}
	for i, r := range variants {
		rows, _, err := r.SynthCorpus(n, 1)
		if err != nil {
			t.Fatal(err)
		}
		for j := range rows {
			if rows[j] != baseRows[j] {
				t.Errorf("variant %d row %q differs: %+v vs %+v", i, rows[j].Tool, rows[j], baseRows[j])
			}
		}
	}
}

// TestSynthCorpusHealthy: on a healthy corpus the exact presets score no
// hard misses, and the rows cover all four presets.
func TestSynthCorpusHealthy(t *testing.T) {
	rows, rep, err := SynthCorpus(40, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Tool == "spin" && (r.FalsePos != 0 || r.FalseNeg != 0) {
			t.Errorf("spin preset has hard misses: %+v", r)
		}
		if r.Fragments != r.Match+r.FalsePos+r.FalseNeg+r.ProximityMiss {
			t.Errorf("%s: tallies do not add up: %+v", r.Tool, r)
		}
	}
	if out := FormatSynth("t", rows, rep); out == "" {
		t.Error("empty formatted table")
	}
}
