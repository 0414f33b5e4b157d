package sim

import (
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"
)

// A RunFor deadline can fire on a process's goroutine while that process
// runs the scheduler; the next RunFor resumes the parked process where
// the first one stopped.
func TestRunForStopsInsideProcessDispatch(t *testing.T) {
	k := New(1)
	var wakes []time.Duration
	k.Spawn("ticker", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Sleep(time.Second)
			wakes = append(wakes, p.Now())
		}
	})
	if err := k.RunFor(3500 * time.Millisecond); err != nil {
		t.Fatal(err)
	}
	if k.Now() != 3500*time.Millisecond || len(wakes) != 3 {
		t.Fatalf("first RunFor: now %v, %d wakes; want 3.5s, 3", k.Now(), len(wakes))
	}
	// Run handed the token to ticker once and got it back once: the
	// deadline fired on ticker's goroutine.
	if k.handoffs != 2 {
		t.Fatalf("first RunFor made %d hand-offs, want 2", k.handoffs)
	}
	if err := k.RunFor(time.Hour); err != nil {
		t.Fatal(err)
	}
	if len(wakes) != 10 {
		t.Fatalf("second RunFor: %d wakes, want 10", len(wakes))
	}
	for i, w := range wakes {
		if want := time.Duration(i+1) * time.Second; w != want {
			t.Fatalf("wake %d at %v, want %v", i, w, want)
		}
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("%d live processes after the second RunFor", k.LiveProcs())
	}
}

// When the last runnable process parks with nothing scheduled, after
// events have fired on process goroutines, Run still reports the
// deadlock at the time it happened.
func TestDeadlockAfterProcessDispatch(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	k.Spawn("b", func(p *Proc) { c.Wait(p) })
	k.Spawn("a", func(p *Proc) {
		p.Sleep(time.Second)
		p.Sleep(time.Second)
		c.Wait(p)
	})
	var de *DeadlockError
	if err := k.Run(); !errors.As(err, &de) {
		t.Fatalf("Run = %v, want a DeadlockError", err)
	}
	if de.Time != 2*time.Second || strings.Join(de.Blocked, ",") != "a,b" {
		t.Fatalf("deadlock at %v blocking %v, want 2s blocking [a b]", de.Time, de.Blocked)
	}
}

// Processes readied by one event run in the order it readied them, also
// when the event fired on the goroutine of one of them.
func TestOneEventReadiesInFIFOOrder(t *testing.T) {
	k := New(1)
	c := NewCond(k)
	var order []string
	for _, name := range []string{"x", "d", "y"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			c.Wait(p)
			order = append(order, name)
		})
	}
	// y parks last with nothing runnable, so this fires on y's goroutine.
	k.After(time.Second, c.Broadcast)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "x,d,y" {
		t.Fatalf("wake order %s, want x,d,y", got)
	}
}

// A process whose own timer is the next event keeps the token: only
// Run's start and the exit hand it over. A Cond ping-pong pays one
// hand-off per turn.
func TestHandoffCount(t *testing.T) {
	k := New(1)
	k.Spawn("sleeper", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(time.Microsecond)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.handoffs != 2 {
		t.Fatalf("1000 sleeps made %d hand-offs, want 2", k.handoffs)
	}

	k = New(1)
	toA, toB := NewCond(k), NewCond(k)
	const rounds = 500
	turn := 0
	var delta uint64
	k.Spawn("echo", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			for turn != 1 {
				toB.Wait(p)
			}
			turn = 0
			toA.Signal()
		}
	})
	k.Spawn("ping", func(p *Proc) {
		start := k.handoffs
		for i := 0; i < rounds; i++ {
			turn = 1
			toB.Signal()
			for turn != 0 {
				toA.Wait(p)
			}
		}
		delta = k.handoffs - start
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if delta != 2*rounds {
		t.Fatalf("%d ping-pong rounds made %d hand-offs, want %d", rounds, delta, 2*rounds)
	}
}

// runWithin runs k on another goroutine and fails the test if Run has
// not returned within a generous wall-clock bound.
func runWithin(t *testing.T, k *Kernel) error {
	t.Helper()
	errc := make(chan error, 1)
	go func() { errc <- k.Run() }()
	select {
	case err := <-errc:
		return err
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return")
		return nil
	}
}

// A process that leaves through runtime.Goexit (as t.FailNow does) stops
// the run, and Run names it instead of waiting for the token forever.
func TestGoexitInProcessStopsRun(t *testing.T) {
	k := New(1)
	k.Spawn("quitter", func(p *Proc) {
		p.Sleep(time.Second)
		runtime.Goexit()
	})
	k.Spawn("bystander", func(p *Proc) { p.Sleep(time.Hour) })
	err := runWithin(t, k)
	if err == nil || !strings.Contains(err.Error(), "quitter") {
		t.Fatalf("Run = %v, want an error naming quitter", err)
	}
	if k.Now() != time.Second {
		t.Fatalf("stopped at %v, want 1s", k.Now())
	}
}

// The same holds for an event callback that calls runtime.Goexit while
// it runs on a process's goroutine.
func TestGoexitInEventStopsRun(t *testing.T) {
	k := New(1)
	k.Spawn("host", func(p *Proc) { p.Sleep(time.Hour) })
	k.After(time.Second, runtime.Goexit)
	err := runWithin(t, k)
	if err == nil || !strings.Contains(err.Error(), "host") {
		t.Fatalf("Run = %v, want an error naming host", err)
	}
}
