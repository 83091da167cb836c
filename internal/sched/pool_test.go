package sched

import (
	"sync/atomic"
	"testing"
)

// TestPoolPerWorkerFIFO submits jobs with balanced placement and checks
// that each worker ran the jobs placed on it serially, in placement order.
func TestPoolPerWorkerFIFO(t *testing.T) {
	const workers, jobs = 4, 200
	p := NewPool(workers)
	var seq atomic.Int64
	ranAt := make([]int64, jobs)
	placed := make([][]int, workers)
	for j := 0; j < jobs; j++ {
		w := p.SubmitBalanced(func() { ranAt[j] = seq.Add(1) })
		placed[w] = append(placed[w], j)
	}
	p.Close()
	for w, js := range placed {
		for i := 1; i < len(js); i++ {
			if ranAt[js[i]] <= ranAt[js[i-1]] {
				t.Errorf("worker %d ran job %d before job %d", w, js[i], js[i-1])
			}
		}
	}
}

// TestPoolCloseDrains checks that Close completes every submitted job.
func TestPoolCloseDrains(t *testing.T) {
	p := NewPool(3)
	var n atomic.Int64
	for j := 0; j < 500; j++ {
		p.SubmitBalanced(func() { n.Add(1) })
	}
	p.Close()
	if n.Load() != 500 {
		t.Fatalf("ran %d jobs, want 500", n.Load())
	}
}

// TestPoolPanic checks that a panicking job surfaces on the closing
// goroutine via Close instead of killing the worker silently.
func TestPoolPanic(t *testing.T) {
	p := NewPool(1)
	p.SubmitBalanced(func() { panic("boom") })
	// The worker must survive and keep processing.
	var ran atomic.Bool
	p.SubmitBalanced(func() { ran.Store(true) })
	defer func() {
		if r := recover(); r != "boom" {
			t.Errorf("recovered %v, want \"boom\"", r)
		}
		if !ran.Load() {
			t.Error("worker did not keep draining after a panicking job")
		}
	}()
	p.Close()
}

// TestSubmitBalanced checks that least-loaded placement spreads blocked
// jobs across all workers instead of stacking one queue, and that every
// job still runs exactly once.
func TestSubmitBalanced(t *testing.T) {
	const workers = 4
	p := NewPool(workers)
	release := make(chan struct{})
	var started atomic.Int64
	picked := make(map[int]bool)
	// Each blocked job holds its worker; the next placement must pick a
	// different (idle) one, so the first `workers` jobs cover every worker.
	for i := 0; i < workers; i++ {
		w := p.SubmitBalanced(func() { started.Add(1); <-release })
		picked[w] = true
	}
	if len(picked) != workers {
		t.Errorf("first %d balanced submissions used %d workers, want all", workers, len(picked))
	}
	// Release the holders before queuing more: the per-worker queues are
	// bounded, so submission can block behind held workers.
	close(release)
	var n atomic.Int64
	for j := 0; j < 100; j++ {
		p.SubmitBalanced(func() { n.Add(1) })
	}
	p.Close()
	if n.Load() != 100 {
		t.Fatalf("ran %d jobs, want 100", n.Load())
	}
}
