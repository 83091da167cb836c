package detect

import (
	"testing"

	"adhocrace/internal/event"
	"adhocrace/internal/ir"
	"adhocrace/internal/vc"
)

// benchDetector builds a bare detector with the ad-hoc engine disabled — the
// microbenchmarks drive the access path directly through feed, below the
// event plumbing and the happens-before engine.
func benchDetector(cfg Config) *Detector { return New(cfg, nil, nil) }

// entry is one access fed straight into the access path: the event fields
// it reads, its stream position, and the accessing thread's clock.
type entry struct {
	kind  event.Kind
	tid   event.Tid
	addr  int64
	sym   ir.SymID
	loc   ir.LocID
	idx   int64
	clock vc.Frozen
}

// feed runs the access path for e at stream position e.idx.
func (d *Detector) feed(e *entry) {
	d.events = e.idx
	d.access(&event.Event{Kind: e.kind, Tid: e.tid, Addr: e.addr, Sym: e.sym, Loc: e.loc}, e.clock)
}

func readEntryFor(tid event.Tid, addr int64, clock *vc.Clock, idx int64) entry {
	return entry{kind: event.KindRead, tid: tid, addr: addr,
		loc: ir.LocID(tid), idx: idx, clock: clock.Freeze()}
}

func writeEntryFor(tid event.Tid, addr int64, clock *vc.Clock, idx int64) entry {
	e := readEntryFor(tid, addr, clock, idx)
	e.kind = event.KindWrite
	return e
}

// TestShadowAccessSameEpochZeroAlloc pins the acceptance bar: the
// same-epoch read path — one thread re-reading a word — must not allocate.
func TestShadowAccessSameEpochZeroAlloc(t *testing.T) {
	s := benchDetector(HelgrindPlusLib())
	clock := vc.New()
	clock.Tick(1)
	e := readEntryFor(1, 64, clock, 1)
	s.feed(&e) // warm up: page + lockset var materialize once
	allocs := testing.AllocsPerRun(200, func() {
		e.idx++
		s.feed(&e)
	})
	if allocs != 0 {
		t.Errorf("same-epoch access path allocates %.1f per op, want 0", allocs)
	}
}

// TestReadStateAdaptive walks one word through the representation's
// lifecycle: epoch → promoted read-set (second reader) → demoted back by
// an ordering write, with the set recycled through the detector pool.
func TestReadStateAdaptive(t *testing.T) {
	s := benchDetector(HelgrindPlusLib())
	c1, c2 := vc.New(), vc.New()
	c1.Set(1, 5)
	c2.Set(2, 9)

	r1 := readEntryFor(1, 0, c1, 1)
	s.feed(&r1)
	w := s.shadow.word(0)
	if w.reads.set != nil || w.reads.last.Tid() != 1 {
		t.Fatalf("single reader must stay in epoch mode: %+v", w.reads)
	}

	r2 := readEntryFor(2, 0, c2, 2)
	s.feed(&r2)
	if w.reads.set == nil || len(w.reads.set.e) != 2 {
		t.Fatalf("second reader must promote to a 2-entry set: %+v", w.reads)
	}
	if s.promotions != 1 {
		t.Fatalf("promotions = %d, want 1", s.promotions)
	}
	if n, maxTid := w.reads.readers(); n != 2 || maxTid != 2 {
		t.Fatalf("readers() = (%d, %d), want (2, 2)", n, maxTid)
	}

	// A write ordered after both reads demotes (HelgrindPlusLib dedups per
	// address with unlimited history, so demotion is licensed).
	cw := vc.New()
	cw.Set(1, 6)
	cw.Set(2, 10)
	cw.Set(3, 1)
	wr := writeEntryFor(3, 0, cw, 3)
	s.feed(&wr)
	if !w.reads.empty() {
		t.Fatalf("ordering write must demote the read-set: %+v", w.reads)
	}
	if s.demotions != 1 {
		t.Fatalf("demotions = %d, want 1", s.demotions)
	}
	if len(s.setPool) != 1 {
		t.Fatalf("demoted set must return to the pool, pool len = %d", len(s.setPool))
	}

	// The next promotion must reuse the pooled set, not allocate a new one.
	pooled := s.setPool[0]
	r3 := readEntryFor(1, 0, c1, 4)
	r4 := readEntryFor(2, 0, c2, 5)
	s.feed(&r3)
	s.feed(&r4)
	if w.reads.set != pooled {
		t.Error("promotion must reuse the pooled read-set")
	}
}

// TestDemotionGating: a configuration whose reporting can observe retired
// reads (DRD: per-site dedup, bounded history) must never demote.
func TestDemotionGating(t *testing.T) {
	s := benchDetector(DRD())
	c1, c2 := vc.New(), vc.New()
	c1.Set(1, 5)
	c2.Set(2, 9)
	r1 := readEntryFor(1, 0, c1, 1)
	r2 := readEntryFor(2, 0, c2, 2)
	s.feed(&r1)
	s.feed(&r2)

	cw := vc.New()
	cw.Set(1, 6)
	cw.Set(2, 10)
	cw.Set(3, 1)
	wr := writeEntryFor(3, 0, cw, 3)
	s.feed(&wr)
	w := s.shadow.word(0)
	if w.reads.set == nil || len(w.reads.set.e) != 2 {
		t.Fatalf("DRD must keep the read-set across ordering writes: %+v", w.reads)
	}
	if s.demotions != 0 {
		t.Fatalf("demotions = %d, want 0 under DRD", s.demotions)
	}
}

// BenchmarkShadowAccess measures the per-access shadow path in its three
// representation regimes. Run with -benchmem: same-epoch must be 0
// allocs/op; promoted and demoted are 0 allocs/op at steady state because
// read-sets recycle through the detector pool.
func BenchmarkShadowAccess(b *testing.B) {
	b.Run("same-epoch", func(b *testing.B) {
		s := benchDetector(HelgrindPlusLib())
		clock := vc.New()
		clock.Tick(1)
		e := readEntryFor(1, 64, clock, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.idx = int64(i)
			s.feed(&e)
		}
	})
	b.Run("promoted", func(b *testing.B) {
		// Two reader threads alternating on one word: the set persists, so
		// every access is a sorted in-set update.
		s := benchDetector(HelgrindPlusLib())
		c1, c2 := vc.New(), vc.New()
		c1.Set(1, 5)
		c2.Set(2, 9)
		e1 := readEntryFor(1, 64, c1, 0)
		e2 := readEntryFor(2, 64, c2, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e := &e1
			if i&1 == 1 {
				e = &e2
			}
			e.idx = int64(i)
			s.feed(e)
		}
	})
	b.Run("demoted", func(b *testing.B) {
		// Promote–demote cycle: two concurrent reads build a set, an
		// ordering write retires it to the pool; the next cycle reuses it.
		s := benchDetector(HelgrindPlusLib())
		c1, c2 := vc.New(), vc.New()
		c1.Set(1, 5)
		c2.Set(2, 9)
		cw := vc.New()
		cw.Set(1, 6)
		cw.Set(2, 10)
		cw.Set(3, 1)
		r1 := readEntryFor(1, 64, c1, 0)
		r2 := readEntryFor(2, 64, c2, 0)
		wr := writeEntryFor(3, 64, cw, 0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			idx := int64(3 * i)
			r1.idx, r2.idx, wr.idx = idx, idx+1, idx+2
			s.feed(&r1)
			s.feed(&r2)
			s.feed(&wr)
		}
	})
}
