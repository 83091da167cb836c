package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// The traced run records a span around every call it makes into a layer:
// name ("<layer>.<call>"), start, end, and the span that caused it. Spans
// stay in memory and are written out once, when the run ends. A layer's
// self time is the sum of its spans' durations minus the parts covered by
// their child spans.

// spanID identifies a span; 0 is "no parent".
type spanID int32

type span struct {
	ID     spanID `json:"id"`
	Parent spanID `json:"parent"`
	Name   string `json:"name"`
	// Start and End are nanoseconds since the recorder was created.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

// recorder collects spans. It is safe for concurrent use (raced clients
// record from their own goroutines).
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(parent spanID, name string) spanID {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	id := spanID(len(r.spans) + 1)
	r.spans = append(r.spans, span{ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes a span and returns its duration.
func (r *recorder) end(id spanID) time.Duration {
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[id-1]
	s.End = now
	return time.Duration(s.End - s.Start)
}

// do runs f inside a span and returns the span's duration.
func (r *recorder) do(parent spanID, name string, f func()) time.Duration {
	id := r.begin(parent, name)
	f()
	return r.end(id)
}

// layerOf is the layer prefix of a span name ("vm.run" → "vm").
func layerOf(name string) string {
	layer, _, _ := strings.Cut(name, ".")
	return layer
}

// selfTimes returns each layer's self time, and the total self time of
// every span, in nanoseconds.
func (r *recorder) selfTimes() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	self := make(map[spanID]int64, len(r.spans))
	for _, s := range r.spans {
		self[s.ID] += s.End - s.Start
		if s.Parent != 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	out := make(map[string]int64)
	for _, s := range r.spans {
		out[layerOf(s.Name)] += self[s.ID]
	}
	return out
}

// spanTotal sums the durations of every span with the given name.
func (r *recorder) spanTotal(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, s := range r.spans {
		if s.Name == name {
			n += s.End - s.Start
		}
	}
	return time.Duration(n)
}

// childTotal sums the durations of the direct children of every span with
// the given name.
func (r *recorder) childTotal(name string) time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	parents := make(map[spanID]bool)
	for _, s := range r.spans {
		if s.Name == name {
			parents[s.ID] = true
		}
	}
	var n int64
	for _, s := range r.spans {
		if parents[s.Parent] {
			n += s.End - s.Start
		}
	}
	return time.Duration(n)
}

// traceLayers are the repository's modules, as the traced run names them.
var traceLayers = []string{"ir", "spin", "vm", "event", "detect", "hb", "lockset", "core", "harness", "serve"}

// summarize adds the trace summary to a traced result and writes the span
// file. pathSpan names the spans whose durations make up the traced
// end-to-end time; their direct children are the layer calls on that path,
// so the children's sum against the path total is the attribution gap.
// untraced is the same work's end-to-end time measured without tracing in
// this run; tracing overhead is the traced time's excess over it.
func (r *recorder) summarize(res *result, o options, pathSpan string, untraced time.Duration) error {
	self := r.selfTimes()
	for _, layer := range traceLayers {
		res.set("self_ms."+layer, float64(self[layer])/1e6, "ms")
	}
	e2e := r.spanTotal(pathSpan)
	sum := r.childTotal(pathSpan)
	res.set("trace.e2e_ms", ms(e2e), "ms")
	res.set("trace.layer_sum_ms", ms(sum), "ms")
	gap, over := 0.0, 0.0
	if e2e > 0 {
		gap = 100 * float64(e2e-sum) / float64(e2e)
	}
	if untraced > 0 {
		over = 100 * float64(e2e-untraced) / float64(untraced)
	}
	res.set("trace.gap_pct", gap, "%")
	res.set("trace.overhead_pct", over, "%")
	fmt.Fprintf(os.Stderr, "trace %s: e2e %.3f ms (untraced %.3f ms, overhead %+.1f%%), layer sum %.3f ms (gap %.1f%%)\n",
		o.workload, ms(e2e), ms(untraced), over, ms(sum), gap)
	layers := make([]string, 0, len(self))
	for l := range self {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(os.Stderr, "  self %-9s %10.3f ms\n", l, float64(self[l])/1e6)
	}
	return r.write(o)
}

// write dumps every span as JSON into the spans directory.
func (r *recorder) write(o options) error {
	if err := os.MkdirAll(o.spansDir, 0o755); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	data, err := json.Marshal(map[string]any{"meta": machineMeta(o), "spans": r.spans})
	if err != nil {
		return err
	}
	path := filepath.Join(o.spansDir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	return os.WriteFile(path, data, 0o644)
}
