package sim

import "time"

type procState int

const (
	stateReady procState = iota
	stateRunning
	stateParked
	stateDone
)

// Proc is a cooperatively scheduled simulation process. All of its
// methods must be called from the process's own goroutine.
type Proc struct {
	k      *Kernel
	name   string
	resume chan struct{}
	state  procState

	// waitGen guards against stale timer wakeups: each park increments
	// it, and a wakeup crafted for an earlier generation is ignored.
	waitGen  uint64
	timedOut bool

	// The process's own timer, armed by Sleep and WaitTimeout. timerFn is
	// onTimer bound once at Spawn, so arming the timer allocates nothing;
	// timerGen is the park generation the armed timer may wake, and
	// timerCond the condition a timed wait is queued on (nil for Sleep).
	timerFn   func()
	timerGen  uint64
	timerCond *Cond
}

// Kernel returns the owning kernel.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.k.now }

// park blocks the process until another actor calls k.ready(p). The
// process runs the scheduler itself: if the first process to become
// runnable is p, it keeps running; otherwise its successor (or Run) gets
// the token directly. All of p's state is written before the hand-off,
// so the successor observes a fully parked process.
func (p *Proc) park() {
	p.state = stateParked
	p.waitGen++
	p.reschedule()
}

// Yield gives up the processor; the process stays runnable and will be
// rescheduled after currently pending work.
func (p *Proc) Yield() {
	p.state = stateReady
	p.k.run.Push(p)
	p.reschedule()
}

// reschedule runs the scheduler on p's goroutine and blocks p until the
// token comes back, unless the scheduler picks p itself.
func (p *Proc) reschedule() {
	k := p.k
	next := k.dispatch()
	if next == p {
		return
	}
	k.pass(next)
	<-p.resume
}

// Sleep blocks the process for d of virtual time.
//
// When no process is runnable and no event is due by now+d, nothing can
// run before the wake-up, so the clock moves to now+d at once: the same
// order as the timer, without its event or a pass through the
// scheduler. An older event due at exactly now+d still fires first.
func (p *Proc) Sleep(d time.Duration) {
	if d <= 0 {
		p.Yield()
		return
	}
	k := p.k
	if k.run.Len() == 0 && !k.stopped && (len(k.sched) == 0 || k.sched[0].when > k.now+d) {
		k.now += d
		p.waitGen++
		return
	}
	p.armTimer(d, nil)
	p.park()
}

// armTimer schedules the process's own timer to end the next park after
// d. c is the condition a timed wait is queued on, or nil for a plain
// sleep.
func (p *Proc) armTimer(d time.Duration, c *Cond) Timer {
	p.timerGen = p.waitGen + 1
	p.timerCond = c
	return p.k.After(d, p.timerFn)
}

// onTimer ends the park armTimer was armed for, unless that park is over
// already: a timed wait removes itself from its condition and reports
// the timeout.
func (p *Proc) onTimer() {
	if p.waitGen != p.timerGen || p.state != stateParked {
		return
	}
	if c := p.timerCond; c != nil {
		c.remove(p)
		p.timedOut = true
	}
	p.k.ready(p)
}

// Cond is a condition variable for simulation processes. The zero value
// is not usable; create one with NewCond.
type Cond struct {
	k *Kernel
	// waiters is FIFO; its backing array is kept across wake-ups so a
	// steady wait/signal cycle allocates nothing.
	waiters []*Proc
}

// NewCond returns a condition variable bound to k.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// Wait blocks p until Signal or Broadcast wakes it. There is no
// associated mutex: the simulation is cooperatively scheduled, so the
// caller's predicate cannot change between checking it and parking.
// As with sync.Cond, callers should re-check their predicate on wakeup.
func (c *Cond) Wait(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.park()
}

// WaitTimeout blocks p until a wakeup or until d elapses. It reports
// whether the process was woken by Signal/Broadcast (true) rather than
// by the timeout (false).
func (c *Cond) WaitTimeout(p *Proc, d time.Duration) bool {
	if d <= 0 {
		return false
	}
	p.timedOut = false
	t := p.armTimer(d, c)
	c.waiters = append(c.waiters, p)
	p.park()
	t.Stop()
	p.timerCond = nil
	return !p.timedOut
}

// Signal wakes the longest-waiting process, if any.
func (c *Cond) Signal() {
	n := len(c.waiters)
	if n == 0 {
		return
	}
	p := c.waiters[0]
	copy(c.waiters, c.waiters[1:])
	c.waiters[n-1] = nil
	c.waiters = c.waiters[:n-1]
	c.k.ready(p)
}

// Broadcast wakes every waiting process. ready only queues a process,
// so no waiter can run (and wait again) while the list is walked.
func (c *Cond) Broadcast() {
	for i, p := range c.waiters {
		c.waiters[i] = nil
		c.k.ready(p)
	}
	c.waiters = c.waiters[:0]
}

// Waiters returns the number of processes currently blocked on c.
func (c *Cond) Waiters() int { return len(c.waiters) }

func (c *Cond) remove(p *Proc) {
	for i, w := range c.waiters {
		if w == p {
			n := len(c.waiters)
			copy(c.waiters[i:], c.waiters[i+1:])
			c.waiters[n-1] = nil
			c.waiters = c.waiters[:n-1]
			return
		}
	}
}

// WaitGroup counts outstanding work items; Wait blocks processes until
// the count reaches zero. It is the virtual-time analogue of
// sync.WaitGroup.
type WaitGroup struct {
	n    int
	cond *Cond
}

// NewWaitGroup returns a WaitGroup bound to k.
func NewWaitGroup(k *Kernel) *WaitGroup {
	return &WaitGroup{cond: NewCond(k)}
}

// Add adds delta to the counter. When the counter reaches zero all
// waiters are released.
func (w *WaitGroup) Add(delta int) {
	w.n += delta
	if w.n < 0 {
		panic("sim: negative WaitGroup counter")
	}
	if w.n == 0 {
		w.cond.Broadcast()
	}
}

// Done decrements the counter by one.
func (w *WaitGroup) Done() { w.Add(-1) }

// Wait blocks p until the counter is zero.
func (w *WaitGroup) Wait(p *Proc) {
	for w.n > 0 {
		w.cond.Wait(p)
	}
}
