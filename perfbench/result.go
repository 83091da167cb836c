package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"time"
)

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// mismatches explains every correctness failure (printed to stderr).
	mismatches []string
}

func newResult() *result {
	return &result{Correct: true, Metrics: make(map[string]metric)}
}

// set records a metric.
func (r *result) set(name string, value float64, unit string) {
	r.Metrics[name] = metric{Value: value, Unit: unit}
}

// fill adds another run's operations and correctness to r, and takes from
// it every metric r lacks or left at 0.
func (r *result) fill(o *result) {
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	r.Correct = r.Correct && o.Correct
	r.mismatches = append(r.mismatches, o.mismatches...)
	for name, m := range o.Metrics {
		if r.Metrics[name].Value == 0 {
			r.Metrics[name] = m
		}
	}
}

// attempt counts one operation, failed when err is non-nil.
func (r *result) attempt(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.mismatch("operation failed: %v", err)
	}
}

// mismatch records a correctness failure.
func (r *result) mismatch(format string, args ...any) {
	r.Correct = false
	if len(r.mismatches) < 20 {
		r.mismatches = append(r.mismatches, fmt.Sprintf(format, args...))
	}
}

// check records a correctness failure unless got equals want.
func (r *result) check(what, got, want string) {
	if got != want {
		r.mismatch("%s: got %q, want %q", what, short(got), short(want))
	}
}

func short(s string) string {
	if len(s) > 80 {
		return s[:80] + "..."
	}
	return s
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median returns the middle value (mean of the two middle values for an
// even count); 0 for no values.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile by linear interpolation between order
// statistics; 0 for no values.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// logSamples prints a sample summary to stderr, so a noisy figure can be
// told from a noisy machine.
func logSamples(name string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	fmt.Fprintf(os.Stderr, "samples %-24s n=%-4d min %-10.4g p25 %-10.4g median %-10.4g p75 %-10.4g max %.4g\n",
		name, len(xs), quantile(xs, 0), quantile(xs, 0.25), median(xs), quantile(xs, 0.75), quantile(xs, 1))
}

// geomean returns the geometric mean of positive values; 0 for none.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// medianSetup runs a set-up step n times, each from a collected heap, and
// returns the median wall time in seconds, so set-up time is reported as
// steadily as the measured work.
func medianSetup(n int, step func() error) (float64, error) {
	var times []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		start := time.Now()
		err := step()
		times = append(times, time.Since(start).Seconds())
		if err != nil {
			return 0, err
		}
	}
	return median(times), nil
}

// Layer metrics of layers a traced path does not exercise: the traced run
// still emits every per-layer metric, as 0 (no work done).
var (
	harnessMetrics = []metricName{
		{"harness.table1_ms", "ms"}, {"harness.table2_ms", "ms"}, {"harness.parsec_tables_ms", "ms"},
		{"harness.synth_ms", "ms"}, {"harness.perf_ms", "ms"},
	}
	serveMetrics = []metricName{
		{"serve.accept_ms.cached", "ms"}, {"serve.accept_ms.fresh", "ms"}, {"serve.frames_per_session", "count"},
	}
	overheadMetrics = []metricName{{"parsec.overhead_lib_x", "x"}, {"parsec.overhead_spin_x", "x"}}
)

type metricName struct{ name, unit string }

// zeroMetrics sets the given metrics to 0.
func zeroMetrics(res *result, groups ...[]metricName) {
	for _, g := range groups {
		for _, m := range g {
			res.set(m.name, 0, m.unit)
		}
	}
}
