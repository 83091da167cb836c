package event

import (
	"bytes"
	"errors"
	"reflect"
	"testing"
	"testing/iotest"

	"adhocrace/internal/ir"
)

// testTable builds a small interning table for synthetic traces.
func testTable() *ir.Interning {
	tab := ir.NewInterning()
	tab.InternSym("FLAG")
	tab.InternSym("LOCK")
	tab.InternLoc(ir.Loc{File: "a.c", Line: 7})
	tab.InternLoc(ir.Loc{File: "b.c", Line: 42})
	return tab
}

// testEvents synthesizes n events cycling through every kind with every
// kind-valid field populated (including negative addresses and values, to
// exercise the zigzag encoding).
func testEvents(n int) []Event {
	evs := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		tid := Tid(i % 5)
		switch Kind(i % int(KindSpinExit+1)) {
		case KindRead:
			evs = append(evs, Event{Kind: KindRead, Tid: tid, Addr: int64(i * 8), Value: -int64(i), Sym: 1, Loc: 1})
		case KindWrite:
			evs = append(evs, Event{Kind: KindWrite, Tid: tid, Addr: -int64(i * 8), Value: int64(i), Sym: ir.NoSym, Loc: 2})
		case KindAtomicRead:
			evs = append(evs, Event{Kind: KindAtomicRead, Tid: tid, Addr: 16, Value: 1, Sym: 2, Loc: ir.NoLoc})
		case KindAtomicWrite:
			evs = append(evs, Event{Kind: KindAtomicWrite, Tid: tid, Addr: 16, Value: 0, Sym: 2, Loc: 1, RMW: i%2 == 0})
		case KindSyncPre:
			evs = append(evs, Event{Kind: KindSyncPre, Tid: tid, Sync: ir.SyncMutexLock, Addr: 128, Addr2: 136, Loc: 2})
		case KindSyncPost:
			evs = append(evs, Event{Kind: KindSyncPost, Tid: tid, Sync: ir.SyncMutexUnlock, Addr: 128, Loc: 1})
		case KindSpawn:
			evs = append(evs, Event{Kind: KindSpawn, Tid: tid, Child: tid + 1})
		case KindJoin:
			evs = append(evs, Event{Kind: KindJoin, Tid: tid, Child: tid + 1})
		case KindThreadStart:
			evs = append(evs, Event{Kind: KindThreadStart, Tid: tid})
		case KindThreadExit:
			evs = append(evs, Event{Kind: KindThreadExit, Tid: tid})
		case KindSpinRead:
			evs = append(evs, Event{Kind: KindSpinRead, Tid: tid, SpinLoop: int32(i % 3), Addr: 8, Value: -1, Loc: 2})
		case KindSpinExit:
			evs = append(evs, Event{Kind: KindSpinExit, Tid: tid, SpinLoop: int32(i % 3)})
		}
	}
	return evs
}

// encodeTrace writes events into a finalized trace.
func encodeTrace(t *testing.T, meta TraceMeta, tab *ir.Interning, evs []Event) []byte {
	t.Helper()
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf, meta, tab)
	for i := range evs {
		tw.Handle(&evs[i])
	}
	if err := tw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	return buf.Bytes()
}

// TestTraceRoundTrip pins the format's core property: every field of
// every kind survives encode → decode exactly, along with the meta and
// interning tables.
func TestTraceRoundTrip(t *testing.T) {
	tab := testTable()
	meta := TraceMeta{Workload: "wl", Tool: "spin", Window: 7, Seed: -3}
	want := testEvents(997)
	data := encodeTrace(t, meta, tab, want)

	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	if tr.Meta() != meta {
		t.Fatalf("meta round trip: got %+v want %+v", tr.Meta(), meta)
	}
	if err := tr.CheckTable(tab); err != nil {
		t.Fatalf("table round trip: %v", err)
	}
	var got []Event
	var ev Event
	for {
		ok, err := tr.Next(&ev)
		if err != nil {
			t.Fatalf("next after %d events: %v", len(got), err)
		}
		if !ok {
			break
		}
		got = append(got, ev)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("stream round trip: %d events decoded, %d written", len(got), len(want))
	}
	if tr.Count() != int64(len(want)) {
		t.Fatalf("count: got %d want %d", tr.Count(), len(want))
	}
	// A second Next after the end marker stays a clean end.
	if ok, err := tr.Next(&ev); ok || err != nil {
		t.Fatalf("next after end: ok=%v err=%v", ok, err)
	}
}

// TestTraceCheckTableMismatch verifies a replayer rebuilding a different
// program is rejected before any event decodes.
func TestTraceCheckTableMismatch(t *testing.T) {
	data := encodeTrace(t, TraceMeta{}, testTable(), testEvents(3))
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	other := testTable()
	other.InternSym("EXTRA")
	if err := tr.CheckTable(other); err == nil {
		t.Fatal("CheckTable accepted a mismatched table")
	}
	renamed := ir.NewInterning()
	renamed.InternSym("GALF")
	renamed.InternSym("KCOL")
	renamed.InternLoc(ir.Loc{File: "a.c", Line: 7})
	renamed.InternLoc(ir.Loc{File: "b.c", Line: 42})
	if err := tr.CheckTable(renamed); err == nil {
		t.Fatal("CheckTable accepted renamed symbols")
	}
}

// TestTraceHeaderRejection covers the header error paths: wrong magic,
// version skew, and truncation at every header prefix length.
func TestTraceHeaderRejection(t *testing.T) {
	data := encodeTrace(t, TraceMeta{Workload: "wl", Tool: "spin", Window: 7, Seed: 1}, testTable(), testEvents(5))

	bad := append([]byte("JUNK"), data[4:]...)
	if _, err := NewTraceReader(bytes.NewReader(bad)); !errors.Is(err, ErrTraceMagic) {
		t.Fatalf("bad magic: got %v, want ErrTraceMagic", err)
	}
	if _, err := NewTraceReader(bytes.NewReader(nil)); !errors.Is(err, ErrTraceMagic) {
		t.Fatalf("empty input: got %v, want ErrTraceMagic", err)
	}

	// The version is the single uvarint byte right after the magic.
	skew := append([]byte(nil), data...)
	skew[4] = TraceVersion + 1
	if _, err := NewTraceReader(bytes.NewReader(skew)); !errors.Is(err, ErrTraceVersion) {
		t.Fatalf("version skew: got %v, want ErrTraceVersion", err)
	}

	// Truncating anywhere inside the header must reject, never panic.
	// (The header of this trace ends well before byte 64.)
	for cut := 5; cut < 64 && cut < len(data); cut++ {
		if _, err := NewTraceReader(bytes.NewReader(data[:cut])); err == nil {
			// A cut can land exactly on the header/stream boundary; then
			// the reader opens fine and the stream is what's truncated.
			tr, _ := NewTraceReader(bytes.NewReader(data[:cut]))
			var ev Event
			for {
				ok, nerr := tr.Next(&ev)
				if nerr != nil {
					break
				}
				if !ok {
					t.Fatalf("cut at %d decoded a clean end from a truncated trace", cut)
				}
			}
		}
	}
}

// TestTraceTruncatedStream verifies a trace cut inside the event stream
// or missing its end marker surfaces ErrTraceCorrupt.
func TestTraceTruncatedStream(t *testing.T) {
	data := encodeTrace(t, TraceMeta{}, testTable(), testEvents(64))
	for _, cut := range []int{len(data) - 1, len(data) - 2, len(data) - 8} {
		tr, err := NewTraceReader(bytes.NewReader(data[:cut]))
		if err != nil {
			t.Fatalf("cut %d: header rejected: %v", cut, err)
		}
		var ev Event
		for {
			ok, err := tr.Next(&ev)
			if err != nil {
				if !errors.Is(err, ErrTraceCorrupt) {
					t.Fatalf("cut %d: got %v, want ErrTraceCorrupt", cut, err)
				}
				break
			}
			if !ok {
				t.Fatalf("cut %d: truncated trace decoded a clean end", cut)
			}
		}
	}

	// A forged end-marker count must be caught.
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf, TraceMeta{}, testTable())
	evs := testEvents(4)
	for i := range evs {
		tw.Handle(&evs[i])
	}
	tw.count = 99 // lie about the total
	if err := tw.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	tr, err := NewTraceReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	var ev Event
	for {
		ok, err := tr.Next(&ev)
		if err != nil {
			if !errors.Is(err, ErrTraceCorrupt) {
				t.Fatalf("count mismatch: got %v, want ErrTraceCorrupt", err)
			}
			return
		}
		if !ok {
			t.Fatal("count mismatch went undetected")
		}
	}
}

// TestTraceReaderZeroAlloc pins the steady-state decode loop at zero
// allocations per event — the replay hot path's budget, same bar as the
// pipeline's other 0-alloc pins.
func TestTraceReaderZeroAlloc(t *testing.T) {
	const n = 8192
	data := encodeTrace(t, TraceMeta{Workload: "wl"}, testTable(), testEvents(n))
	tr, err := NewTraceReader(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("reader: %v", err)
	}
	var ev Event
	allocs := testing.AllocsPerRun(n/2, func() {
		if ok, err := tr.Next(&ev); !ok || err != nil {
			t.Fatalf("next: ok=%v err=%v", ok, err)
		}
	})
	if allocs != 0 {
		t.Fatalf("steady-state Next allocates %.1f per event, want 0", allocs)
	}
}

// FuzzTraceDecode drives the decoder with arbitrary bytes: it must reject
// or cleanly decode every input — no panics, no unbounded allocation —
// the decoded count must match the reader's tally, and a one-byte-per-read
// source must decode exactly like the in-memory one (decodeAll,
// reader_test.go).
func FuzzTraceDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("ADRT"))
	valid := func(n int) []byte {
		var buf bytes.Buffer
		tw := NewTraceWriter(&buf, TraceMeta{Workload: "wl", Tool: "spin", Window: 7, Seed: 1}, testTable())
		evs := testEvents(n)
		for i := range evs {
			tw.Handle(&evs[i])
		}
		tw.Close()
		return buf.Bytes()
	}
	f.Add(valid(0))
	f.Add(valid(13))
	f.Add(valid(13)[:20])
	f.Add(valid(13)[:40])
	f.Fuzz(func(t *testing.T, data []byte) {
		want := decodeAll(bytes.NewReader(data))
		if int64(len(want.Events)) != want.Count {
			t.Fatalf("decoded %d events, reader counted %d", len(want.Events), want.Count)
		}
		// The same bytes one per read must decode identically: the
		// reader's refills are invisible in what it returns.
		if got := decodeAll(iotest.OneByteReader(bytes.NewReader(data))); !reflect.DeepEqual(got, want) {
			t.Fatalf("OneByteReader decodes differently: header %v/%v, stream %v/%v, %d/%d events",
				got.HeaderErr, want.HeaderErr, got.StreamErr, want.StreamErr, len(got.Events), len(want.Events))
		}
	})
}
