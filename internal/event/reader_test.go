package event

// Decoder equivalence across input shapes: the TraceReader refills its own
// window from whatever io.Reader it is handed, so how the source chunks
// the bytes must never show in what it decodes. Every leg below decodes
// the same traces and must agree with the bytes.Reader leg on the header,
// the events, the count and the class of any error — at every truncation
// point of a small trace, and at chunk-boundary truncations of one larger
// than two refill chunks.

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"adhocrace/internal/ir"
)

// readerLegs are the source shapes: whole-buffer reads, one byte per read,
// half of each request, and the final data arriving together with io.EOF.
var readerLegs = []struct {
	name string
	wrap func([]byte) io.Reader
}{
	{"bytes.Reader", func(b []byte) io.Reader { return bytes.NewReader(b) }},
	{"OneByteReader", func(b []byte) io.Reader { return iotest.OneByteReader(bytes.NewReader(b)) }},
	{"HalfReader", func(b []byte) io.Reader { return iotest.HalfReader(bytes.NewReader(b)) }},
	{"DataErrReader", func(b []byte) io.Reader { return iotest.DataErrReader(bytes.NewReader(b)) }},
}

// decodeOutcome is everything a decode exposes to a caller.
type decodeOutcome struct {
	HeaderErr error
	Meta      TraceMeta
	Syms      []string
	Locs      []ir.Loc
	Events    []Event
	Count     int64
	StreamErr error
	Clean     bool // reached the end marker
}

// errClass reduces an error to its sentinel (the details carry positions
// that are allowed to differ only in wording, never in class).
func errClass(err error) error {
	for _, sentinel := range []error{ErrTraceMagic, ErrTraceVersion, ErrTraceCorrupt} {
		if errors.Is(err, sentinel) {
			return sentinel
		}
	}
	if err != nil {
		return fmt.Errorf("unclassified: %v", err)
	}
	return nil
}

// decodeAll opens r and decodes to the end or the first error.
func decodeAll(r io.Reader) decodeOutcome {
	tr, err := NewTraceReader(r)
	if err != nil {
		return decodeOutcome{HeaderErr: errClass(err)}
	}
	out := decodeOutcome{Meta: tr.Meta(), Syms: tr.Syms(), Locs: tr.Locs()}
	var ev Event
	for {
		ok, err := tr.Next(&ev)
		if err != nil {
			out.StreamErr = errClass(err)
			break
		}
		if !ok {
			out.Clean = true
			break
		}
		out.Events = append(out.Events, ev)
	}
	out.Count = tr.Count()
	return out
}

// checkLegsAgree decodes data[:cut] through every leg and compares each
// against the bytes.Reader leg.
func checkLegsAgree(t *testing.T, data []byte, cut int) decodeOutcome {
	t.Helper()
	want := decodeAll(readerLegs[0].wrap(data[:cut]))
	for _, leg := range readerLegs[1:] {
		if got := decodeAll(leg.wrap(data[:cut])); !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d of %d: %s decodes differently from bytes.Reader:\n got header=%v stream=%v clean=%v events=%d count=%d\nwant header=%v stream=%v clean=%v events=%d count=%d",
				cut, len(data), leg.name,
				got.HeaderErr, got.StreamErr, got.Clean, len(got.Events), got.Count,
				want.HeaderErr, want.StreamErr, want.Clean, len(want.Events), want.Count)
		}
	}
	return want
}

// TestTraceReaderShapesEveryCut truncates a small trace at every byte and
// checks every leg agrees; the full trace decodes cleanly to its events,
// and every proper prefix is rejected (never a clean end).
func TestTraceReaderShapesEveryCut(t *testing.T) {
	evs := testEvents(240)
	data := encodeTrace(t, TraceMeta{Workload: "wl", Tool: "spin", Window: 7, Seed: -9}, testTable(), evs)
	for cut := 0; cut <= len(data); cut++ {
		out := checkLegsAgree(t, data, cut)
		switch {
		case cut == len(data):
			if !out.Clean || !reflect.DeepEqual(out.Events, evs) || out.Count != int64(len(evs)) {
				t.Fatalf("full trace: clean=%v, %d events (want %d), err %v", out.Clean, len(out.Events), len(evs), out.StreamErr)
			}
		case out.Clean:
			t.Fatalf("cut %d: truncated trace decoded a clean end", cut)
		case cut < len(traceMagic) && out.HeaderErr != ErrTraceMagic:
			t.Fatalf("cut %d inside the magic: got %v, want ErrTraceMagic", cut, out.HeaderErr)
		case cut >= len(traceMagic) && out.HeaderErr == nil && out.StreamErr != ErrTraceCorrupt:
			t.Fatalf("cut %d inside the stream: got %v, want ErrTraceCorrupt", cut, out.StreamErr)
		}
	}
}

// bigTrace builds a trace longer than two refill chunks whose header alone
// exceeds one, so the pinned header tables must outgrow the window and
// refills land inside header strings; multi-byte addresses and values make
// the later refills land inside varints. (The one-byte and half readers
// split every string and varint as well, at every position.)
func bigTrace(t *testing.T) ([]byte, []Event) {
	t.Helper()
	tab := ir.NewInterning()
	for i := 0; i < 1500; i++ {
		tab.InternSym(fmt.Sprintf("sym_%04d_%s", i, strings.Repeat("s", 40)))
		tab.InternLoc(ir.Loc{File: fmt.Sprintf("dir/%s/file_%04d.c", strings.Repeat("d", 20), i%300), Line: i * 37})
	}
	evs := testEvents(8000)
	for i := range evs {
		ev := &evs[i]
		if ev.Kind.IsAccess() || ev.Kind == KindSpinRead {
			ev.Addr = ev.Addr*1_000_003 + int64(i)<<20
			ev.Value = int64(i) * -7_777_777
			ev.Loc = ir.LocID(1 + i%1500)
		}
		if ev.Kind.IsAccess() {
			ev.Sym = ir.SymID(i % 1501)
		}
	}
	data := encodeTrace(t, TraceMeta{Workload: "big", Tool: "spin", Window: 7, Seed: 5}, tab, evs)
	t.Logf("big trace: %d bytes", len(data))
	if len(data) <= 2*traceChunk {
		t.Fatalf("big trace is %d bytes, want more than two %d-byte chunks", len(data), traceChunk)
	}
	return data, evs
}

// TestTraceReaderShapesAcrossChunks decodes a trace spanning several
// refill chunks through every leg, whole and cut around each chunk
// boundary (inside the header table too) and at a stride through the
// rest.
func TestTraceReaderShapesAcrossChunks(t *testing.T) {
	data, evs := bigTrace(t)
	if out := checkLegsAgree(t, data, len(data)); !out.Clean || !reflect.DeepEqual(out.Events, evs) {
		t.Fatalf("big trace: clean=%v, %d of %d events, err %v", out.Clean, len(out.Events), len(evs), out.StreamErr)
	}
	cuts := map[int]bool{}
	for k := 1; k*traceChunk < len(data); k++ {
		for d := -6; d <= 6; d++ {
			cuts[k*traceChunk+d] = true
		}
	}
	stride := len(data) / 24
	for c := 5; c < len(data); c += stride {
		cuts[c] = true
	}
	for cut := range cuts {
		if out := checkLegsAgree(t, data, cut); out.Clean {
			t.Fatalf("cut %d: truncated trace decoded a clean end", cut)
		}
	}
}

// TestNewTraceReaderAllocsFlat pins the header's allocation count: each
// interning table converts to one string, so a 1,000-entry table costs
// the same number of allocations as a 4-entry one.
func TestNewTraceReaderAllocsFlat(t *testing.T) {
	headerAllocs := func(nsyms, nlocs int) float64 {
		tab := ir.NewInterning()
		for i := 1; i < nsyms; i++ {
			tab.InternSym(fmt.Sprintf("SYM%d", i))
		}
		for i := 1; i < nlocs; i++ {
			tab.InternLoc(ir.Loc{File: fmt.Sprintf("f%d.c", i%7), Line: i})
		}
		data := encodeTrace(t, TraceMeta{Workload: "wl", Tool: "spin"}, tab, testEvents(8))
		return testing.AllocsPerRun(50, func() {
			if _, err := NewTraceReader(bytes.NewReader(data)); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := headerAllocs(4, 4), headerAllocs(1000, 1000)
	if small != large {
		t.Fatalf("NewTraceReader allocates %.0f for a 4-entry header but %.0f for a 1,000-entry one", small, large)
	}
}

// TestTraceReaderLiveStream decodes a trace from a pipe whose writer stays
// open after the last byte: the reader must reach the end marker without
// waiting for more input (it never asks the source for bytes past the
// varint it is decoding), so a live recording's events are not held back
// until the writer closes.
func TestTraceReaderLiveStream(t *testing.T) {
	evs := testEvents(240)
	data := encodeTrace(t, TraceMeta{Workload: "wl", Tool: "spin", Window: 7}, testTable(), evs)
	pr, pw := io.Pipe()
	release := make(chan struct{})
	go func() {
		pw.Write(data)
		<-release
		pw.Close()
	}()
	defer close(release)
	done := make(chan decodeOutcome, 1)
	go func() { done <- decodeAll(pr) }()
	select {
	case out := <-done:
		if !out.Clean || !reflect.DeepEqual(out.Events, evs) || out.Count != int64(len(evs)) {
			t.Fatalf("live stream: clean=%v, %d events (want %d), header %v, stream %v",
				out.Clean, len(out.Events), len(evs), out.HeaderErr, out.StreamErr)
		}
	case <-time.After(10 * time.Second):
		pw.CloseWithError(errors.New("timed out"))
		t.Fatal("decoding stalled waiting for bytes past the end of the trace")
	}
}
