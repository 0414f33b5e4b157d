package sim

import (
	"math/rand"
	"sort"
	"testing"
	"time"
)

// TestEventHeapOrder checks the typed heap against a (when, seq) sort:
// first directly, with random push/pop/remove and the index invariant
// after every operation, then through the kernel, stopping timers both
// near the current instant and far in the future.
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
		schedule := func(d time.Duration) {
			seq := len(want)
			when := k.Now() + d
			timers = append(timers, k.After(d, func() { fired = append(fired, fire{when, seq}) }))
			want = append(want, fire{when, seq})
		}
		k.After(40*time.Microsecond, func() {
			// Sub-microsecond delays tie often; the far ones tie on
			// whole minutes.
			for i := 0; i < 600; i++ {
				schedule(time.Duration(rng.Int63n(1000)))
				schedule(time.Second + time.Duration(rng.Intn(4))*time.Minute)
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

// TestScheduleOrderingFuzz schedules thousands of timers over four
// horizons, with exact ties and random cancellations, and checks the
// kernel fires them at their due time in exactly (when, seq) order: the
// contract the golden trace hash relies on.
func TestScheduleOrderingFuzz(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	horizons := []time.Duration{
		50 * time.Microsecond,
		2 * time.Millisecond,
		400 * time.Millisecond,
		3 * time.Second,
	}
	type expect struct {
		when time.Duration
		seq  int
	}
	k := New(1)
	var fired []expect
	var want []expect
	timers := make([]Timer, 0, 2000)
	for i := 0; i < 2000; i++ {
		h := horizons[rng.Intn(len(horizons))]
		d := time.Duration(rng.Int63n(int64(h)))
		if rng.Intn(10) == 0 {
			d = h // exact ties across insertions
		}
		seq := i
		timers = append(timers, k.After(d, func() {
			fired = append(fired, expect{k.Now(), seq})
		}))
		want = append(want, expect{d, seq})
	}
	// Cancel a third of them before running.
	cancelled := make(map[int]bool)
	for i := 0; i < 700; i++ {
		j := rng.Intn(len(timers))
		if timers[j].Stop() {
			cancelled[j] = true
		}
	}
	kept := want[:0]
	for i, e := range want {
		if !cancelled[i] {
			kept = append(kept, e)
		}
	}
	sort.SliceStable(kept, func(i, j int) bool {
		if kept[i].when != kept[j].when {
			return kept[i].when < kept[j].when
		}
		return kept[i].seq < kept[j].seq
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(fired) != len(kept) {
		t.Fatalf("fired %d events, want %d", len(fired), len(kept))
	}
	for i := range fired {
		if fired[i] != kept[i] {
			t.Fatalf("event %d fired as %+v, want %+v", i, fired[i], kept[i])
		}
	}
	if k.PendingEvents() != 0 {
		t.Fatalf("PendingEvents = %d at quiescence", k.PendingEvents())
	}
}

// TestZeroDelayAfterFIFO checks that zero-delay events scheduled from
// inside a callback run at the same virtual instant, after everything
// already scheduled for that instant, in FIFO order.
func TestZeroDelayAfterFIFO(t *testing.T) {
	k := New(1)
	var order []int
	at := 700 * time.Microsecond
	k.After(at, func() {
		order = append(order, 1)
		k.After(0, func() {
			order = append(order, 3)
			if k.Now() != at {
				t.Fatalf("zero-delay fired at %v, want %v", k.Now(), at)
			}
			k.After(0, func() { order = append(order, 5) })
		})
		k.After(0, func() { order = append(order, 4) })
	})
	k.After(at, func() { order = append(order, 2) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 5 {
		t.Fatalf("execution order %v, want 1..5", order)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("execution order %v, want 1..5", order)
		}
	}
}
