package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestEventHeapOrder checks the typed heap against a (when, seq) sort:
// first directly, with random push/pop/remove and the index invariant
// after every operation, then through the kernel, stopping timers that
// sit in the ready heap (same-tick events) and in the overflow heap.
func TestEventHeapOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	t.Run("direct", func(t *testing.T) {
		var h eventHeap
		var live []*event // reference contents, unordered
		seq := uint64(0)
		popMin := func() {
			best := 0
			for i, ev := range live {
				if ev.before(live[best]) {
					best = i
				}
			}
			want := live[best]
			live = append(live[:best], live[best+1:]...)
			if got := h.pop(); got != want {
				t.Fatalf("pop = (%v, %d), want (%v, %d)", got.when, got.seq, want.when, want.seq)
			}
			if want.index != -1 {
				t.Fatalf("popped event keeps index %d", want.index)
			}
		}
		for op := 0; op < 20000; op++ {
			switch r := rng.Intn(4); {
			case r < 2 || len(live) == 0:
				// Few distinct times, so most comparisons fall to seq.
				ev := &event{when: time.Duration(rng.Intn(16)), seq: seq}
				seq++
				h.push(ev)
				live = append(live, ev)
			case r == 2:
				popMin()
			default:
				j := rng.Intn(len(live))
				ev := live[j]
				live = append(live[:j], live[j+1:]...)
				h.remove(ev.index)
				if ev.index != -1 {
					t.Fatalf("removed event keeps index %d", ev.index)
				}
			}
			if len(h) != len(live) {
				t.Fatalf("heap holds %d events, want %d", len(h), len(live))
			}
			for i, ev := range h {
				if ev.index != i {
					t.Fatalf("op %d: event at %d records index %d", op, i, ev.index)
				}
				if i > 0 && ev.before(h[(i-1)/2]) {
					t.Fatalf("op %d: heap order violated at %d", op, i)
				}
			}
		}
		for len(live) > 0 {
			popMin()
		}
	})
	t.Run("kernel", func(t *testing.T) {
		type fire struct {
			when time.Duration
			seq  int
		}
		k := New(1)
		var fired, want []fire
		var timers []Timer
		schedule := func(d time.Duration, loc int8) {
			seq := len(want)
			when := k.Now() + d
			tm := k.After(d, func() { fired = append(fired, fire{when, seq}) })
			if tm.ev.where != loc {
				t.Fatalf("event %d in container %d, want %d", seq, tm.ev.where, loc)
			}
			timers = append(timers, tm)
			want = append(want, fire{when, seq})
		}
		start := 40 * time.Microsecond
		k.After(start, func() {
			// Delays inside the current tick land in the ready heap; the
			// overflow heap takes everything past level 1's horizon.
			tickEnd := time.Duration(tickOf(start)+1) << tickShift
			for i := 0; i < 600; i++ {
				schedule(time.Duration(rng.Int63n(int64(tickEnd-start))), locReady)
				schedule(time.Second+time.Duration(rng.Intn(4))*time.Minute, locFar)
			}
			stopped := make(map[int]bool)
			for i := 0; i < 400; i++ {
				j := rng.Intn(len(timers))
				if timers[j].Stop() {
					stopped[j] = true
				}
			}
			kept := want[:0]
			for i, f := range want {
				if !stopped[i] {
					kept = append(kept, f)
				}
			}
			want = kept
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].when != want[j].when {
				return want[i].when < want[j].when
			}
			return want[i].seq < want[j].seq
		})
		if len(fired) != len(want) {
			t.Fatalf("fired %d events, want %d", len(fired), len(want))
		}
		for i := range fired {
			if fired[i] != want[i] {
				t.Fatalf("event %d fired as %+v, want %+v", i, fired[i], want[i])
			}
		}
		if k.PendingEvents() != 0 {
			t.Fatalf("PendingEvents = %d at quiescence", k.PendingEvents())
		}
	})
}
