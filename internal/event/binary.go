package event

// Binary trace record/replay.
//
// A recorded trace is the detector's entire input — the totally ordered
// event stream plus the interning tables that give its Sym/Loc ids
// meaning — so replaying one through a fresh detector reproduces the
// original report byte for byte without running the vm at all. That is
// what the scaling harness measures (events/sec through 1/2/4/8 shard
// workers on an identical stream) and what `racedetect -record/-replay`
// expose on the command line.
//
// Layout (all integers varint-encoded, signed fields zigzag):
//
//	"ADRT" magic | version | meta (workload, tool, window, seed)
//	sym table    | loc table          (dense, index == id)
//	events: tag(kind+1) + per-kind fields ...
//	end: tag 0 + total event count    (truncation check)
//
// Events are encoded per kind — only the fields that kind populates are
// in the stream — so a typical access costs a handful of bytes. The
// reader decodes into a caller-owned Event with no allocation in the
// steady state; all header allocations are bounded up front so a corrupt
// or adversarial header cannot balloon memory (the fuzz target's bar).

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"adhocrace/internal/ir"
)

// TraceVersion is the current binary trace format version. A reader
// rejects every other version — the format carries no compatibility
// shims; re-record instead.
const TraceVersion = 1

// traceMagic brands a binary trace file ("ad-hoc race trace").
const traceMagic = "ADRT"

// Decode-side bounds: a header must not make the reader allocate more
// than these, whatever its length words claim.
const (
	maxTableEntries = 1 << 20
	maxStringLen    = 1 << 16
	// traceFlushBytes is the writer's internal buffer threshold.
	traceFlushBytes = 32 << 10
	// maxTid bounds decoded thread ids; a real run's ids are dense and
	// small, so anything near the cap is corruption, not scale.
	maxTid = 1 << 30
)

// Trace decode errors, distinguishable by errors.Is.
var (
	// ErrTraceMagic: the input does not start with a trace header.
	ErrTraceMagic = errors.New("event: not a binary trace (bad magic)")
	// ErrTraceVersion: the trace was written by an incompatible format
	// version.
	ErrTraceVersion = errors.New("event: unsupported trace version")
	// ErrTraceCorrupt: the header or stream is malformed or truncated.
	ErrTraceCorrupt = errors.New("event: corrupt trace")
)

// TraceMeta is the provenance a trace header carries: everything a
// replayer needs to rebuild the recording side (the workload registry
// name, the short tool name and spin window to resolve the detector
// configuration, and the scheduler seed the recording ran under).
type TraceMeta struct {
	Workload string
	Tool     string
	Window   int
	Seed     int64
}

// TraceWriter streams events into the binary trace format. It is a Sink
// (single producer goroutine, like every sink) and a Flusher; errors from
// the underlying writer are sticky and surface from Close, so the hot
// Handle path stays error-check-free for callers.
type TraceWriter struct {
	w      io.Writer
	buf    []byte
	count  uint64
	closed bool
	err    error
}

// NewTraceWriter writes the trace header (magic, version, meta, and the
// interning tables — pass the recorded program's ir.Program.Interning; nil
// means an empty table) and returns the streaming writer. The caller must
// Close it to finalize the trace.
func NewTraceWriter(w io.Writer, meta TraceMeta, tab *ir.Interning) *TraceWriter {
	if tab == nil {
		tab = ir.NewInterning()
	}
	t := &TraceWriter{w: w, buf: make([]byte, 0, traceFlushBytes)}
	t.buf = append(t.buf, traceMagic...)
	t.buf = binary.AppendUvarint(t.buf, TraceVersion)
	t.str(meta.Workload)
	t.str(meta.Tool)
	t.buf = binary.AppendUvarint(t.buf, uint64(meta.Window))
	t.buf = binary.AppendVarint(t.buf, meta.Seed)
	syms := tab.Syms()
	t.buf = binary.AppendUvarint(t.buf, uint64(len(syms)))
	for _, s := range syms {
		t.str(s)
	}
	locs := tab.Locs()
	t.buf = binary.AppendUvarint(t.buf, uint64(len(locs)))
	for _, l := range locs {
		t.str(l.File)
		t.buf = binary.AppendUvarint(t.buf, uint64(l.Line))
	}
	return t
}

// str appends a length-prefixed string.
func (t *TraceWriter) str(s string) {
	t.buf = binary.AppendUvarint(t.buf, uint64(len(s)))
	t.buf = append(t.buf, s...)
}

// Handle implements Sink: encode one event. Per-kind encoding — the
// switch mirrors the Event doc comment's field-validity table exactly,
// and the decoder's round-trip test (full-field equality against real vm
// streams) keeps the two in sync.
func (t *TraceWriter) Handle(ev *Event) {
	if t.err != nil || t.closed {
		return
	}
	b := t.buf
	b = binary.AppendUvarint(b, uint64(ev.Kind)+1)
	b = binary.AppendUvarint(b, uint64(ev.Tid))
	switch {
	case ev.Kind.IsAccess():
		b = binary.AppendVarint(b, ev.Addr)
		b = binary.AppendVarint(b, ev.Value)
		b = binary.AppendUvarint(b, uint64(ev.Sym))
		b = binary.AppendUvarint(b, uint64(ev.Loc))
		if ev.Kind == KindAtomicWrite {
			rmw := byte(0)
			if ev.RMW {
				rmw = 1
			}
			b = append(b, rmw)
		}
	case ev.Kind == KindSyncPre || ev.Kind == KindSyncPost:
		b = binary.AppendUvarint(b, uint64(ev.Sync))
		b = binary.AppendVarint(b, ev.Addr)
		b = binary.AppendVarint(b, ev.Addr2)
		b = binary.AppendUvarint(b, uint64(ev.Loc))
	case ev.Kind == KindSpawn || ev.Kind == KindJoin:
		b = binary.AppendUvarint(b, uint64(ev.Child))
	case ev.Kind == KindSpinRead:
		b = binary.AppendUvarint(b, uint64(ev.SpinLoop))
		b = binary.AppendVarint(b, ev.Addr)
		b = binary.AppendVarint(b, ev.Value)
		b = binary.AppendUvarint(b, uint64(ev.Loc))
	case ev.Kind == KindSpinExit:
		b = binary.AppendUvarint(b, uint64(ev.SpinLoop))
	}
	t.buf = b
	t.count++
	if len(t.buf) >= traceFlushBytes {
		t.flushBuf()
	}
}

// flushBuf writes the internal buffer through, keeping the first error.
func (t *TraceWriter) flushBuf() {
	if len(t.buf) == 0 || t.err != nil {
		return
	}
	_, err := t.w.Write(t.buf)
	if err != nil && t.err == nil {
		t.err = err
	}
	t.buf = t.buf[:0]
}

// Flush implements Flusher: push buffered bytes to the underlying writer.
// The trace is not finalized until Close.
func (t *TraceWriter) Flush() { t.flushBuf() }

// Count returns the events encoded so far.
func (t *TraceWriter) Count() int64 { return int64(t.count) }

// Close finalizes the trace — end marker, total event count, final flush —
// and returns the first error the underlying writer produced. Idempotent.
func (t *TraceWriter) Close() error {
	if !t.closed {
		t.closed = true
		t.buf = binary.AppendUvarint(t.buf, 0)
		t.buf = binary.AppendUvarint(t.buf, t.count)
		t.flushBuf()
	}
	return t.err
}

// TraceReader decodes a binary trace: the header eagerly (bounded
// allocation), then one event per Next call into a caller-owned Event
// with no steady-state allocation.
//
// The reader owns its input window: buf[off:] holds the bytes read from
// the source but not yet decoded, refilled traceChunk bytes at a time, and
// varints decode straight off the slice (binary.Uvarint, with a one-byte
// fast path) — no per-byte interface call into the source. A header table
// is pinned in the window while it is validated so its strings can be
// converted in one piece (readTable).
//
// Because it reads ahead, the reader may consume bytes of the source that
// follow the trace's end marker; they are lost to the caller. Give it a
// source that holds the trace alone (ends after it), such as a
// bytes.Reader or a file. On a live stream it never blocks for more bytes
// than the record it is decoding needs, so every event is returned as soon
// as its last byte arrives.
type TraceReader struct {
	src   io.Reader
	buf   []byte
	off   int
	pin   int   // window offset kept across refills, or -1
	rerr  error // sticky source error (io.EOF at the end of input)
	meta  TraceMeta
	syms  []string
	locs  []ir.Loc
	count uint64
	done  bool
}

// traceChunk is the reader's refill size: the window's capacity, and how
// much one source read asks for.
const traceChunk = 64 << 10

// NewTraceReader parses the trace header and returns a reader positioned
// at the first event. Returns ErrTraceMagic, ErrTraceVersion, or
// ErrTraceCorrupt (all wrapped with detail) on a bad header.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	size := traceChunk
	if l, ok := r.(interface{ Len() int }); ok && l.Len() < size {
		// An in-memory trace shorter than a chunk (bytes.Reader and
		// strings.Reader report what is left) gets a window its size:
		// short replays would otherwise spend more on a zeroed 64 KiB
		// window than on their header.
		size = l.Len()
	}
	t := &TraceReader{src: r, buf: make([]byte, 0, size), pin: -1}
	if !t.fill(len(traceMagic)) {
		return nil, fmt.Errorf("%w: input ends before the magic (%v)", ErrTraceMagic, t.rerr)
	}
	if magic := t.buf[t.off : t.off+len(traceMagic)]; string(magic) != traceMagic {
		return nil, fmt.Errorf("%w: got %q", ErrTraceMagic, magic)
	}
	t.off += len(traceMagic)
	version, ok := t.uvarint()
	if !ok {
		return nil, t.corrupt("truncated version")
	}
	if version != TraceVersion {
		return nil, fmt.Errorf("%w: trace is v%d, reader is v%d", ErrTraceVersion, version, TraceVersion)
	}
	if err := t.readHeader(); err != nil {
		return nil, err
	}
	return t, nil
}

// fill makes at least n undecoded bytes available in buf[off:], reading
// from the source as needed, and reports whether it could (false once the
// source ends or fails first). Undecoded bytes — and a pinned table — move
// to the front of the window; the window grows only when n (or the pinned
// table) outgrows it, so its size is bounded by bytes actually read.
func (t *TraceReader) fill(n int) bool {
	for empty := 0; len(t.buf)-t.off < n; {
		if t.rerr != nil {
			return false
		}
		keep := t.off
		if t.pin >= 0 {
			keep = t.pin
			t.pin = 0
		}
		if keep > 0 {
			t.buf = t.buf[:copy(t.buf, t.buf[keep:])]
			t.off -= keep
		}
		if need := t.off + n; need > cap(t.buf) {
			grown := make([]byte, len(t.buf), max(need, 2*cap(t.buf)))
			copy(grown, t.buf)
			t.buf = grown
		}
		m, err := t.src.Read(t.buf[len(t.buf):cap(t.buf)])
		t.buf = t.buf[:len(t.buf)+m]
		switch {
		case err != nil:
			t.rerr = err
		case m > 0:
			empty = 0
		default:
			// A source returning nothing and no error (io.Reader allows
			// it) gets bufio's patience before it counts as stuck.
			if empty++; empty >= 100 {
				t.rerr = io.ErrNoProgress
			}
		}
	}
	return true
}

// uvarint decodes one unsigned varint off the window.
func (t *TraceReader) uvarint() (uint64, bool) {
	if i := t.off; i < len(t.buf) && t.buf[i] < 0x80 {
		t.off = i + 1
		return uint64(t.buf[i]), true
	}
	return t.uvarintSlow()
}

// uvarintSlow is uvarint's multi-byte and refill path. A varint the input
// ends inside, or one that overflows 64 bits, fails. It refills only while
// the window holds no complete varint, asking for one more byte each time,
// so it never waits on the source for bytes past the varint's last one.
func (t *TraceReader) uvarintSlow() (uint64, bool) {
	for {
		v, n := binary.Uvarint(t.buf[t.off:])
		if n > 0 {
			t.off += n
			return v, true
		}
		if n < 0 || !t.fill(len(t.buf)-t.off+1) {
			return 0, false
		}
	}
}

// varint decodes one zigzag-encoded signed varint off the window.
func (t *TraceReader) varint() (int64, bool) {
	ux, ok := t.uvarint()
	x := int64(ux >> 1)
	if ux&1 != 0 {
		x = ^x
	}
	return x, ok
}

// readByte decodes one raw byte.
func (t *TraceReader) readByte() (byte, bool) {
	if t.off >= len(t.buf) && !t.fill(1) {
		return 0, false
	}
	b := t.buf[t.off]
	t.off++
	return b, true
}

// skipStr steps over one length-prefixed string, bounded by maxStringLen,
// and returns its bytes (valid until the next refill).
func (t *TraceReader) skipStr() ([]byte, bool) {
	n, ok := t.uvarint()
	if !ok || n > maxStringLen || !t.fill(int(n)) {
		return nil, false
	}
	b := t.buf[t.off : t.off+int(n)]
	t.off += int(n)
	return b, true
}

// readStr decodes one length-prefixed string.
func (t *TraceReader) readStr() (string, bool) {
	b, ok := t.skipStr()
	return string(b), ok
}

// readHeader decodes meta and the interning tables.
func (t *TraceReader) readHeader() error {
	var ok bool
	if t.meta.Workload, ok = t.readStr(); !ok {
		return t.corrupt("workload name")
	}
	if t.meta.Tool, ok = t.readStr(); !ok {
		return t.corrupt("tool name")
	}
	window, ok := t.uvarint()
	if !ok || window > maxTableEntries {
		return t.corrupt("spin window")
	}
	t.meta.Window = int(window)
	if t.meta.Seed, ok = t.varint(); !ok {
		return t.corrupt("seed")
	}
	nsyms, ok := t.uvarint()
	if !ok || nsyms > maxTableEntries {
		return t.corrupt("symbol table size")
	}
	t.syms = make([]string, nsyms)
	if err := t.readTable(len(t.syms), nil, func(i int, s string) { t.syms[i] = s }); err != nil {
		return err
	}
	nlocs, ok := t.uvarint()
	if !ok || nlocs > maxTableEntries {
		return t.corrupt("location table size")
	}
	t.locs = make([]ir.Loc, nlocs)
	return t.readTable(len(t.locs), t.locs, func(i int, s string) { t.locs[i].File = s })
}

// readTable decodes a header table of n entries: a length-prefixed string
// each, followed by a line number in the location table (locs non-nil,
// whose Lines it fills). The table's bytes stay pinned in the window while
// every entry is validated, then convert to one string; set receives each
// entry's string as a substring of it — one allocation per table, not one
// per symbol or location.
func (t *TraceReader) readTable(n int, locs []ir.Loc, set func(i int, s string)) error {
	t.pin = t.off
	defer func() { t.pin = -1 }()
	for i := 0; i < n; i++ {
		if _, ok := t.skipStr(); !ok {
			if locs != nil {
				return t.corrupt("location table")
			}
			return t.corrupt("symbol table")
		}
		if locs != nil {
			line, ok := t.uvarint()
			if !ok || line > maxTableEntries {
				return t.corrupt("location line")
			}
			locs[i].Line = int(line)
		}
	}
	raw := t.buf[t.pin:t.off]
	all := string(raw)
	for i, p := 0, 0; i < n; i++ {
		l, k := binary.Uvarint(raw[p:])
		p += k
		set(i, all[p:p+int(l)])
		p += int(l)
		if locs != nil {
			_, k = binary.Uvarint(raw[p:])
			p += k
		}
	}
	return nil
}

// corrupt wraps ErrTraceCorrupt with position detail.
func (t *TraceReader) corrupt(what string) error {
	return fmt.Errorf("%w: %s (after %d events)", ErrTraceCorrupt, what, t.count)
}

// Meta returns the recorded provenance.
func (t *TraceReader) Meta() TraceMeta { return t.meta }

// Syms returns the recorded symbol table (index == ir.SymID). The caller
// must not mutate it.
func (t *TraceReader) Syms() []string { return t.syms }

// Locs returns the recorded location table (index == ir.LocID).
func (t *TraceReader) Locs() []ir.Loc { return t.locs }

// Count returns the events decoded so far.
func (t *TraceReader) Count() int64 { return int64(t.count) }

// CheckTable verifies the recorded interning tables are identical to a
// replay-side table — the contract that makes the trace's Sym/Loc ids
// meaningful against a rebuilt program. Interning is deterministic for a
// given program build (function/block/instruction order), so a mismatch
// means the replayer rebuilt a different program than was recorded.
func (t *TraceReader) CheckTable(tab *ir.Interning) error {
	syms, locs := tab.Syms(), tab.Locs()
	if len(syms) != len(t.syms) || len(locs) != len(t.locs) {
		return fmt.Errorf("event: trace interning mismatch: recorded %d syms / %d locs, program has %d / %d",
			len(t.syms), len(t.locs), len(syms), len(locs))
	}
	for i := range syms {
		if syms[i] != t.syms[i] {
			return fmt.Errorf("event: trace interning mismatch: sym %d is %q, program has %q", i, t.syms[i], syms[i])
		}
	}
	for i := range locs {
		if locs[i] != t.locs[i] {
			return fmt.Errorf("event: trace interning mismatch: loc %d is %v, program has %v", i, t.locs[i], locs[i])
		}
	}
	return nil
}

// Next decodes the next event into ev, returning false at the trace's
// end marker (with the recorded count verified). Allocation-free in the
// steady state; every decoded id is bounds-checked against the header's
// tables so downstream consumers can trust the ids.
func (t *TraceReader) Next(ev *Event) (bool, error) {
	if t.done {
		return false, nil
	}
	tag, ok := t.uvarint()
	if !ok {
		return false, t.corrupt("truncated event stream")
	}
	if tag == 0 {
		n, ok := t.uvarint()
		if !ok {
			return false, t.corrupt("truncated end marker")
		}
		if n != t.count {
			return false, t.corrupt(fmt.Sprintf("event count mismatch: marker says %d", n))
		}
		t.done = true
		return false, nil
	}
	kind := Kind(tag - 1)
	if kind > KindSpinExit {
		return false, t.corrupt(fmt.Sprintf("unknown event kind %d", tag-1))
	}
	*ev = Event{Kind: kind}
	tid, ok := t.uvarint()
	if !ok || tid > maxTid {
		return false, t.corrupt("thread id")
	}
	ev.Tid = Tid(tid)
	switch {
	case kind.IsAccess():
		if err := t.readAccess(ev); err != nil {
			return false, err
		}
	case kind == KindSyncPre || kind == KindSyncPost:
		if err := t.readSync(ev); err != nil {
			return false, err
		}
	case kind == KindSpawn || kind == KindJoin:
		child, ok := t.uvarint()
		if !ok || child > maxTid {
			return false, t.corrupt("child thread id")
		}
		ev.Child = Tid(child)
	case kind == KindSpinRead:
		if err := t.readSpinRead(ev); err != nil {
			return false, err
		}
	case kind == KindSpinExit:
		loop, ok := t.uvarint()
		if !ok || loop > maxTableEntries {
			return false, t.corrupt("spin loop id")
		}
		ev.SpinLoop = int32(loop)
	}
	t.count++
	return true, nil
}

// readAccess decodes the access-kind payload.
func (t *TraceReader) readAccess(ev *Event) error {
	var ok bool
	if ev.Addr, ok = t.varint(); !ok {
		return t.corrupt("access addr")
	}
	if ev.Value, ok = t.varint(); !ok {
		return t.corrupt("access value")
	}
	sym, ok := t.uvarint()
	if !ok || sym >= uint64(len(t.syms)) {
		return t.corrupt("access sym id")
	}
	ev.Sym = ir.SymID(sym)
	loc, ok := t.uvarint()
	if !ok || loc >= uint64(len(t.locs)) {
		return t.corrupt("access loc id")
	}
	ev.Loc = ir.LocID(loc)
	if ev.Kind == KindAtomicWrite {
		rmw, ok := t.readByte()
		if !ok || rmw > 1 {
			return t.corrupt("rmw flag")
		}
		ev.RMW = rmw == 1
	}
	return nil
}

// readSync decodes the sync pre/post payload.
func (t *TraceReader) readSync(ev *Event) error {
	sk, ok := t.uvarint()
	if !ok || sk > 255 {
		return t.corrupt("sync kind")
	}
	ev.Sync = ir.SyncKind(sk)
	if ev.Addr, ok = t.varint(); !ok {
		return t.corrupt("sync addr")
	}
	if ev.Addr2, ok = t.varint(); !ok {
		return t.corrupt("sync addr2")
	}
	loc, ok := t.uvarint()
	if !ok || loc >= uint64(len(t.locs)) {
		return t.corrupt("sync loc id")
	}
	ev.Loc = ir.LocID(loc)
	return nil
}

// readSpinRead decodes the spin-read payload.
func (t *TraceReader) readSpinRead(ev *Event) error {
	loop, ok := t.uvarint()
	if !ok || loop > maxTableEntries {
		return t.corrupt("spin loop id")
	}
	ev.SpinLoop = int32(loop)
	if ev.Addr, ok = t.varint(); !ok {
		return t.corrupt("spin addr")
	}
	if ev.Value, ok = t.varint(); !ok {
		return t.corrupt("spin value")
	}
	loc, ok := t.uvarint()
	if !ok || loc >= uint64(len(t.locs)) {
		return t.corrupt("spin loc id")
	}
	ev.Loc = ir.LocID(loc)
	return nil
}

// Replay feeds the remaining events to a sink, flushing it at the end the
// way the vm does, and returns the events delivered. One Event is reused
// for every Handle call, so the sink must not retain the pointer — the
// standard Sink contract.
func (t *TraceReader) Replay(s Sink) (int64, error) {
	var ev Event
	start := t.count
	for {
		ok, err := t.Next(&ev)
		if err != nil {
			return int64(t.count - start), err
		}
		if !ok {
			break
		}
		s.Handle(&ev)
	}
	if f, ok := s.(Flusher); ok {
		f.Flush()
	}
	return int64(t.count - start), nil
}
