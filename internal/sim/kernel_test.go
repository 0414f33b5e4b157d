package sim

import (
	"testing"
	"time"
)

func TestEventOrdering(t *testing.T) {
	k := New(1)
	var got []int
	k.After(2*time.Second, func() { got = append(got, 2) })
	k.After(1*time.Second, func() { got = append(got, 1) })
	k.After(3*time.Second, func() { got = append(got, 3) })
	k.After(1*time.Second, func() { got = append(got, 11) }) // same time: FIFO by seq
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 11, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v want %v", got, want)
		}
	}
	if k.Now() != 3*time.Second {
		t.Fatalf("clock = %v, want 3s", k.Now())
	}
}

func TestTimerStop(t *testing.T) {
	k := New(1)
	fired := false
	tm := k.After(time.Second, func() { fired = true })
	k.After(500*time.Millisecond, func() {
		if !tm.Stop() {
			t.Error("Stop returned false on pending timer")
		}
		if tm.Stop() {
			t.Error("second Stop returned true")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Fatal("cancelled timer fired")
	}
}

func TestProcSleep(t *testing.T) {
	k := New(1)
	var wake time.Duration
	k.Spawn("sleeper", func(p *Proc) {
		p.Sleep(5 * time.Second)
		wake = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wake != 5*time.Second {
		t.Fatalf("woke at %v, want 5s", wake)
	}
}

func TestCondSignalOrder(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			c.Wait(p)
			order = append(order, name)
		})
	}
	k.After(time.Second, func() {
		c.Signal()
		c.Signal()
		c.Signal()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "a" || order[1] != "b" || order[2] != "c" {
		t.Fatalf("wake order %v, want [a b c]", order)
	}
}

func TestCondWaitTimeout(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	var timedOut, signaled bool
	k.Spawn("w1", func(p *Proc) {
		timedOut = !c.WaitTimeout(p, time.Second)
	})
	k.Spawn("w2", func(p *Proc) {
		signaled = c.WaitTimeout(p, 10*time.Second)
	})
	k.After(2*time.Second, func() { c.Broadcast() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !timedOut {
		t.Error("w1 should have timed out")
	}
	if !signaled {
		t.Error("w2 should have been signaled")
	}
	if c.Waiters() != 0 {
		t.Errorf("%d stale waiters", c.Waiters())
	}
}

func TestDeadlockDetection(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	k.Spawn("stuck", func(p *Proc) { c.Wait(p) })
	err := k.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("expected DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 1 || de.Blocked[0] != "stuck" {
		t.Fatalf("blocked = %v", de.Blocked)
	}
}

func TestWaitGroup(t *testing.T) {
	k := New(1)
	wg := NewWaitGroup(k)
	wg.Add(3)
	done := false
	for i := 0; i < 3; i++ {
		i := i
		k.Spawn("worker", func(p *Proc) {
			p.Sleep(time.Duration(i+1) * time.Second)
			wg.Done()
		})
	}
	k.Spawn("waiter", func(p *Proc) {
		wg.Wait(p)
		done = true
		if p.Now() != 3*time.Second {
			t.Errorf("released at %v, want 3s", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("waiter never released")
	}
}

// Two RunFors in a row: each stops at its deadline, and no event or
// return of either sees Now() go backwards.
func TestRunFor(t *testing.T) {
	k := New(1)
	var last time.Duration
	monotone := func(at string) {
		t.Helper()
		if k.Now() < last {
			t.Fatalf("%s: Now() went back from %v to %v", at, last, k.Now())
		}
		last = k.Now()
	}
	n := 0
	var tick func()
	tick = func() {
		monotone("tick")
		n++
		k.After(time.Second, tick)
	}
	k.After(time.Second, tick)
	if err := k.RunFor(10500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	monotone("first RunFor")
	if n != 10 || k.Now() != 10500*time.Millisecond {
		t.Fatalf("first RunFor: %d ticks, now %v; want 10, 10.5s", n, k.Now())
	}
	if err := k.RunFor(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	monotone("second RunFor")
	if n != 12 || k.Now() != 12500*time.Millisecond {
		t.Fatalf("second RunFor: %d ticks, now %v; want 12, 12.5s", n, k.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (time.Duration, int64) {
		k := New(42)
		var sum int64
		for i := 0; i < 50; i++ {
			k.Spawn("p", func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Sleep(time.Duration(k.Rand().Intn(1000)) * time.Millisecond)
					sum += int64(k.Rand().Intn(100))
				}
			})
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now(), sum
	}
	t1, s1 := run()
	t2, s2 := run()
	if t1 != t2 || s1 != s2 {
		t.Fatalf("nondeterministic: (%v,%d) vs (%v,%d)", t1, s1, t2, s2)
	}
}

func TestYield(t *testing.T) {
	k := New(1)
	var order []int
	k.Spawn("a", func(p *Proc) {
		order = append(order, 1)
		p.Yield()
		order = append(order, 3)
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, 2)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order %v", order)
		}
	}
}
