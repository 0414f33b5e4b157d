package sim

import (
	"testing"
	"time"
)

// allocsInProc runs testing.AllocsPerRun over op(p) inside a process of
// k, after warm-up rounds, then finish (if any), and returns the count.
// It covers every goroutine, so work op hands to other processes or the
// kernel counts too.
func allocsInProc(t *testing.T, k *Kernel, op func(p *Proc), finish func()) float64 {
	t.Helper()
	var allocs float64
	k.Spawn("measure", func(p *Proc) {
		for i := 0; i < 100; i++ {
			op(p)
		}
		allocs = testing.AllocsPerRun(1000, func() { op(p) })
		if finish != nil {
			finish()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return allocs
}

// Sleep arms the process's own timer, whose callback is bound once at
// Spawn: it allocates nothing.
func TestSleepAllocFree(t *testing.T) {
	allocs := allocsInProc(t, New(1), func(p *Proc) { p.Sleep(time.Microsecond) }, nil)
	if allocs != 0 {
		t.Errorf("Proc.Sleep allocates %.2f times per call, want 0", allocs)
	}
}

// A Cond hand-off between two processes keeps its waiter list's array:
// Wait and Signal allocate nothing once it has grown.
func TestCondWaitSignalAllocFree(t *testing.T) {
	k := New(1)
	toA, toB := NewCond(k), NewCond(k)
	turn, done := 0, false
	k.Spawn("echo", func(p *Proc) {
		for {
			for turn != 1 && !done {
				toB.Wait(p)
			}
			if done {
				return
			}
			turn = 0
			toA.Signal()
		}
	})
	allocs := allocsInProc(t, k, func(p *Proc) {
		turn = 1
		toB.Signal()
		for turn != 0 {
			toA.Wait(p)
		}
	}, func() {
		done = true
		toB.Signal()
	})
	if allocs != 0 {
		t.Errorf("Cond hand-off allocates %.2f times per round, want 0", allocs)
	}
}
