package detect

import (
	"adhocrace/internal/event"
	"adhocrace/internal/vc"
)

// Reference read representation: the seed implementation's full vector
// clock per flavor plus a per-thread event-index map, kept verbatim so the
// epoch-equivalence tests (Config.fullVCReads, enabled through the
// export_test hook) can replay whole corpora against it. Not used in
// production runs — the adaptive representation in readstate.go is the
// real hot path.
//
// One deliberate semantic nuance carried over: the seed's readEvents map
// was shared between the plain and atomic flavors (last read of either
// flavor per thread). No shipped configuration can observe the difference
// — the event index only feeds DRD's history window, and DRD excludes
// atomic accesses entirely — so the adaptive representation folds the
// positions per flavor instead.

// refWord is the read-side state of one address in reference mode. The
// write side stays in the shadow word (it was already an epoch).
type refWord struct {
	reads       *vc.Clock
	readsAtomic *vc.Clock
	readEvents  map[event.Tid]int64
}

// accessRef finishes an access in reference mode: the read-side conflict
// scan and shadow update against refWord state. The caller has already run
// the tool-specific lockset bookkeeping and the write-epoch conflict check
// (raceWith/raceEvent carry its outcome).
func (d *Detector) accessRef(ev *event.Event, clock vc.Frozen, w *shadowWord, isWrite, isAtomic bool, raceWith event.Tid, raceEvent int64) {
	r := d.ref[ev.Addr]
	if r == nil {
		r = &refWord{}
		d.ref[ev.Addr] = r
	}

	if isWrite && raceWith < 0 {
		raceWith, raceEvent = refConflict(r.reads, r, ev.Tid, clock)
		if raceWith < 0 && !isAtomic {
			raceWith, raceEvent = refConflict(r.readsAtomic, r, ev.Tid, clock)
		}
	}

	if raceWith >= 0 {
		d.maybeReport(ev, w, isWrite, raceWith, raceEvent)
	}

	if isWrite {
		w.wSeen = true
		w.wTid = ev.Tid
		w.wTick = clock.Get(int(ev.Tid))
		w.wEvent = d.events
		w.wLoc = ev.Loc
		w.wAtomic = isAtomic
	} else {
		rc := &r.reads
		if isAtomic {
			rc = &r.readsAtomic
		}
		if *rc == nil {
			*rc = vc.New()
		}
		(*rc).Set(int(ev.Tid), clock.Get(int(ev.Tid)))
		if r.readEvents == nil {
			r.readEvents = make(map[event.Tid]int64)
		}
		r.readEvents[ev.Tid] = d.events
	}
}

// refConflict is the seed conflict scan: the first thread in ascending id
// order whose recorded read is unordered with the current access.
func refConflict(rc *vc.Clock, r *refWord, tid event.Tid, clock vc.Frozen) (event.Tid, int64) {
	if rc == nil {
		return -1, -1
	}
	for i := 0; i < rc.Len(); i++ {
		t := event.Tid(i)
		if t == tid {
			continue
		}
		if rt := rc.Get(i); rt > 0 && rt > clock.Get(i) {
			return t, r.readEvents[t]
		}
	}
	return -1, -1
}
