package sim

import "time"

// The schedule is a two-level hashed timer wheel with a heap on either
// side of it. Near-future events — RTOs, delayed SACKs, link delivery,
// the bulk of a large run's schedule — bucket into fixed slots in O(1);
// only the handful of events sharing the current tick ever sit in an
// ordered heap. Far-future events (idle heartbeats, watchdog deadlines)
// park in an overflow heap until their epoch comes into view.
//
// Geometry: a tick is 2^tickShift ns ≈ 8.2 µs. Level 0 has one tick per
// slot and spans ~2.1 ms — RTT-scale work. Level 1 has 256 ticks per
// slot and spans ~537 ms — RTO/backoff-scale work. Everything beyond
// goes to the overflow heap.
//
// Virtual-time order is exactly the old single heap's (when, seq)
// order: ticks partition the time axis monotonically, the wheel always
// drains strictly tick by tick, and every event sharing the current
// tick is merged into the `ready` heap where the original comparator
// breaks ties. The golden trace hash pins this equivalence.
const (
	tickShift  = 13
	wheelBits  = 8
	wheelSlots = 1 << wheelBits
	wheelMask  = wheelSlots - 1
)

// Event locations, kept in event.where so Stop can unlink from the
// right container in O(1) (heaps track a position index; wheel slots
// swap-remove).
const (
	locNone int8 = iota
	locReady
	locL0
	locL1
	locFar
)

func tickOf(when time.Duration) int64 { return int64(when) >> tickShift }

type timerWheel struct {
	cur   int64 // current tick; no scheduled event has tick < cur... (see insert)
	ready eventHeap
	far   eventHeap
	l0    [wheelSlots][]*event
	l1    [wheelSlots][]*event
	n0    int
	n1    int
}

// init carves every slot's initial capacity out of one backing block
// (32 KiB per kernel), so the common case — a few events per slot —
// never allocates on insert; an overfull slot grows individually via
// append and keeps its larger capacity from then on.
func (w *timerWheel) init() {
	const slotCap = 8
	block := make([]*event, 2*wheelSlots*slotCap)
	for i := range w.l0 {
		w.l0[i] = block[:0:slotCap]
		block = block[slotCap:]
	}
	for i := range w.l1 {
		w.l1[i] = block[:0:slotCap]
		block = block[slotCap:]
	}
}

func (w *timerWheel) Len() int {
	return len(w.ready) + w.n0 + w.n1 + len(w.far)
}

// insert places ev by its tick relative to cur. Events at or before the
// current tick go straight to the ready heap (zero-delay After, and
// every event flushed out of the slot the wheel just reached); events
// within the level-0 epoch hash into a level-0 slot, within the level-1
// epoch into a level-1 slot, and anything farther into the overflow
// heap.
func (w *timerWheel) insert(ev *event) {
	tick := tickOf(ev.when)
	switch {
	case tick <= w.cur:
		ev.where = locReady
		w.ready.push(ev)
	case tick>>wheelBits == w.cur>>wheelBits:
		s := tick & wheelMask
		ev.where = locL0
		ev.slot = int32(s)
		ev.index = len(w.l0[s])
		w.l0[s] = append(w.l0[s], ev)
		w.n0++
	case tick>>(2*wheelBits) == w.cur>>(2*wheelBits):
		s := (tick >> wheelBits) & wheelMask
		ev.where = locL1
		ev.slot = int32(s)
		ev.index = len(w.l1[s])
		w.l1[s] = append(w.l1[s], ev)
		w.n1++
	default:
		ev.where = locFar
		w.far.push(ev)
	}
}

// pop removes and returns the globally next event in (when, seq) order,
// or nil when the schedule is empty. It advances cur as it goes: drain
// the current tick's ready heap; else scan level 0 forward to the next
// occupied slot and flush it into ready; else cascade the next occupied
// level-1 slot down (its events re-bucket into level 0 or ready); else
// promote the overflow heap's epoch into the wheel.
func (w *timerWheel) pop() *event {
	for {
		if len(w.ready) > 0 {
			ev := w.ready.pop()
			ev.where = locNone
			return ev
		}
		if w.n0 > 0 {
			epoch := w.cur >> wheelBits
			found := false
			for t := w.cur + 1; t>>wheelBits == epoch; t++ {
				if s := t & wheelMask; len(w.l0[s]) > 0 {
					w.cur = t
					w.flushSlot(&w.l0[s], &w.n0)
					found = true
					break
				}
			}
			if !found {
				panic("sim: timer wheel level-0 occupancy out of epoch")
			}
			continue
		}
		if w.n1 > 0 {
			epoch := w.cur >> (2 * wheelBits)
			found := false
			for t1 := w.cur>>wheelBits + 1; t1>>wheelBits == epoch; t1++ {
				if s := t1 & wheelMask; len(w.l1[s]) > 0 {
					// Land at the slot's first tick; the flushed events
					// re-bucket into level 0 (or ready, for the slot
					// boundary itself) and the level-0 scan finds the
					// earliest.
					w.cur = t1 << wheelBits
					w.flushSlot(&w.l1[s], &w.n1)
					found = true
					break
				}
			}
			if !found {
				panic("sim: timer wheel level-1 occupancy out of epoch")
			}
			continue
		}
		if len(w.far) > 0 {
			minTick := tickOf(w.far[0].when)
			epoch := minTick >> (2 * wheelBits)
			w.cur = minTick
			for len(w.far) > 0 && tickOf(w.far[0].when)>>(2*wheelBits) == epoch {
				ev := w.far.pop()
				w.insert(ev)
			}
			continue
		}
		return nil
	}
}

// flushSlot empties one wheel slot, re-inserting every event relative
// to the freshly advanced cur. Slot slices keep their capacity, so the
// steady state recycles the same backing arrays. Re-insertion never
// targets the slot being flushed (insert routes tick <= cur to ready
// and a level-1 flush only targets level 0), so iterating the old
// contents while the slot refills is alias-free.
func (w *timerWheel) flushSlot(slot *[]*event, n *int) {
	evs := *slot
	*slot = evs[:0]
	*n -= len(evs)
	for i, ev := range evs {
		evs[i] = nil
		w.insert(ev)
	}
}

// remove unlinks a stopped timer's event from whichever container holds
// it. Wheel slots are unordered, so removal is a swap with the last
// element; heaps remove by the tracked index.
func (w *timerWheel) remove(ev *event) {
	switch ev.where {
	case locReady:
		w.ready.remove(ev.index)
	case locFar:
		w.far.remove(ev.index)
	case locL0:
		removeSlot(&w.l0[ev.slot], ev)
		w.n0--
	case locL1:
		removeSlot(&w.l1[ev.slot], ev)
		w.n1--
	}
	ev.where = locNone
}

func removeSlot(slot *[]*event, ev *event) {
	s := *slot
	last := len(s) - 1
	if ev.index != last {
		moved := s[last]
		s[ev.index] = moved
		moved.index = ev.index
	}
	s[last] = nil
	*slot = s[:last]
}

// syncNow aligns cur with a virtual-time jump taken outside pop (the
// RunFor quiescence fast-forward). Only ever called with an empty
// schedule, so no event can be stranded behind the new cur.
func (w *timerWheel) syncNow(now time.Duration) {
	if t := tickOf(now); t > w.cur {
		w.cur = t
	}
}
