// Package sim provides a deterministic discrete-event simulation kernel
// with virtual time and cooperatively scheduled processes.
//
// The kernel is single-threaded in the scheduling sense: although each
// process runs on its own goroutine, exactly one goroutine holds the
// execution token at any instant and runs a process or an event callback.
// A process that blocks runs the scheduler itself (see dispatch), so
// event callbacks run on whichever goroutine holds the token. All state
// reachable from events and processes can therefore be mutated without
// locks, and a run is exactly reproducible from its seed.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"repro/internal/fifo"
	"repro/internal/freelist"
)

// Kernel is a discrete-event scheduler with virtual time.
type Kernel struct {
	now      time.Duration
	seq      uint64
	sched    timerWheel
	run      fifo.Queue[*Proc]
	free     freelist.List[event] // recycled event structs
	arena    []event              // current allocation block (see allocEvent)
	arenaPos int
	procs    map[*Proc]struct{}
	yield    chan struct{} // hands the token back to Run's goroutine
	rng      *rand.Rand
	running  bool
	stopped  bool
	nprocs   int
	exitErr  error  // set when a process goroutine ends without returning
	handoffs uint64 // channel hand-offs of the token, for tests
}

// New returns a kernel whose random source is seeded with seed.
// The same seed always produces the same run.
func New(seed int64) *Kernel {
	k := &Kernel{
		procs: make(map[*Proc]struct{}),
		yield: make(chan struct{}),
		rng:   rand.New(rand.NewSource(seed)),
	}
	k.sched.init()
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() time.Duration { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// PendingEvents returns the number of events currently scheduled. With
// timers removed from the schedule on Stop, this stays proportional to
// the genuinely outstanding work, not to cancellation churn.
func (k *Kernel) PendingEvents() int { return k.sched.Len() }

// Timer is a cancellable scheduled callback. The zero Timer is inert:
// Stop and Active return false. Timers are values; event structs behind
// them are pooled, and a generation counter makes a Timer held across
// its event's recycling safely report inactive.
type Timer struct {
	ev  *event
	gen uint64
}

// Stop cancels the timer, removing its event from the schedule. It is
// safe to call on a zero, already-fired or already-stopped timer. It
// reports whether the call prevented the callback from running.
func (t Timer) Stop() bool {
	ev := t.ev
	if ev == nil || ev.gen != t.gen || ev.where == locNone {
		return false
	}
	ev.k.sched.remove(ev)
	ev.k.recycle(ev)
	return true
}

// Active reports whether the timer is still pending.
func (t Timer) Active() bool {
	return t.ev != nil && t.ev.gen == t.gen && t.ev.where != locNone
}

// arenaBlock is the number of event structs carved out of one arena
// allocation. Blocks stay reachable through the events pointing into
// them; the steady state cycles through the free list and never
// allocates.
const arenaBlock = 256

// allocEvent takes an event from the free list (or the current arena
// block) and stamps it with the next sequence number.
func (k *Kernel) allocEvent(when time.Duration, fn func()) *event {
	ev := k.free.Get()
	if ev == nil {
		if k.arenaPos == len(k.arena) {
			k.arena = make([]event, arenaBlock)
			k.arenaPos = 0
		}
		ev = &k.arena[k.arenaPos]
		k.arenaPos++
		ev.k = k
	}
	ev.when = when
	ev.seq = k.seq
	ev.fn = fn
	k.seq++
	return ev
}

// recycle returns a fired or cancelled event to the free list. Bumping
// the generation invalidates every Timer still pointing at it.
func (k *Kernel) recycle(ev *event) {
	ev.fn = nil
	ev.gen++
	ev.where = locNone
	ev.index = -1
	k.free.Put(ev)
}

// After schedules fn to run at Now()+d in kernel context.
// A negative d is treated as zero.
func (k *Kernel) After(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	ev := k.allocEvent(k.now+d, fn)
	k.sched.insert(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// Spawn creates a process named name running fn and marks it runnable.
// The process starts the next time the scheduler picks it.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{
		k:      k,
		name:   name,
		id:     k.nprocs,
		resume: make(chan struct{}),
		state:  stateReady,
	}
	p.timerFn = p.onTimer
	k.nprocs++
	k.procs[p] = struct{}{}
	go func() {
		<-p.resume
		exited := false
		defer func() {
			if exited {
				return
			}
			if r := recover(); r != nil {
				panic(r)
			}
			// runtime.Goexit (t.FailNow, say) ended fn or an event callback
			// this goroutine was firing: stop the run and hand the token
			// back, or Run would wait for it forever.
			k.exitErr = fmt.Errorf("sim: process %s exited through runtime.Goexit", p.name)
			k.stopped = true
			k.pass(nil)
		}()
		fn(p)
		p.state = stateDone
		delete(k.procs, p)
		next := k.dispatch()
		exited = true
		k.pass(next)
	}()
	k.run.Push(p)
	return p
}

// DeadlockError is returned by Run when live processes remain but no
// process is runnable and no event is pending.
type DeadlockError struct {
	Time    time.Duration
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("sim: deadlock at %v: blocked processes: %s",
		e.Time, strings.Join(e.Blocked, ", "))
}

// dispatch is the scheduler. It runs on whichever goroutine holds the
// execution token: a process that blocks or yields, an exiting process,
// or Run's. While a process is runnable it pops the FIFO head and
// returns it; with none runnable it fires the next event in (when, seq)
// order on the calling goroutine. It returns nil, meaning the token goes
// back to Run, once the kernel is stopped or nothing is runnable and
// nothing is scheduled. A process that gets itself back keeps running
// without a switch; any other result is handed the token with pass.
func (k *Kernel) dispatch() *Proc {
	for !k.stopped {
		if k.run.Len() > 0 {
			p := k.run.Pop()
			p.state = stateRunning
			return p
		}
		ev := k.sched.pop()
		if ev == nil {
			break
		}
		k.now = ev.when
		fn := ev.fn
		k.recycle(ev)
		fn()
	}
	return nil
}

// pass hands the execution token to p, or back to Run's goroutine when p
// is nil. It must be the caller's last action before it blocks or exits.
func (k *Kernel) pass(p *Proc) {
	k.handoffs++
	if p == nil {
		k.yield <- struct{}{}
		return
	}
	p.resume <- struct{}{}
}

// Run executes events and processes until the simulation quiesces: no
// runnable process and no pending event. If live processes remain at
// quiescence it returns a *DeadlockError naming them. If a process
// goroutine ends through runtime.Goexit, Run stops there and returns an
// error naming the process.
func (k *Kernel) Run() error {
	if k.running {
		panic("sim: Run called re-entrantly")
	}
	k.running = true
	k.stopped = false
	defer func() { k.running = false }()
	if p := k.dispatch(); p != nil {
		// The processes now run the scheduler among themselves; the
		// token comes back once the kernel stops or runs dry.
		k.pass(p)
		<-k.yield
	}
	if err := k.exitErr; err != nil {
		k.exitErr = nil
		return err
	}
	if k.stopped {
		return nil
	}
	if len(k.procs) > 0 {
		return &DeadlockError{Time: k.now, Blocked: k.blockedNames()}
	}
	return nil
}

// RunFor runs the simulation for d of virtual time (or until quiescence,
// whichever comes first). Unlike Run it does not treat blocked processes
// as a deadlock; it simply returns.
func (k *Kernel) RunFor(d time.Duration) error {
	deadline := k.now + d
	k.After(d, func() { k.stopped = true })
	err := k.Run()
	if err != nil {
		return err
	}
	if k.now < deadline {
		// Quiesced early: the schedule is empty, so the jump cannot
		// strand events behind the wheel's current tick.
		k.now = deadline
		k.sched.syncNow(deadline)
	}
	return nil
}

// Stop halts Run after the currently executing process or event yields.
// It may only be called from kernel context (an event or a process).
func (k *Kernel) Stop() { k.stopped = true }

// LiveProcs returns the number of processes that have not finished.
func (k *Kernel) LiveProcs() int { return len(k.procs) }

func (k *Kernel) blockedNames() []string {
	names := make([]string, 0, len(k.procs))
	for p := range k.procs {
		names = append(names, p.name)
	}
	sort.Strings(names)
	return names
}

// ready marks p runnable. It must be called from kernel context.
func (k *Kernel) ready(p *Proc) {
	if p.state != stateParked {
		return
	}
	p.state = stateReady
	k.run.Push(p)
}

type event struct {
	when  time.Duration
	seq   uint64
	fn    func()
	gen   uint64 // bumped on recycle; stale Timers compare unequal
	index int    // position within the holding container, -1 when popped
	slot  int32  // wheel slot when where is locL0/locL1
	where int8   // which schedule container holds the event (loc*)
	k     *Kernel
}

// before is the schedule's total order: by time, then by sequence.
func (a *event) before(b *event) bool {
	if a.when != b.when {
		return a.when < b.when
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap in (when, seq) order that keeps each
// event's index equal to its position, so remove is O(log n). The
// comparisons are inlined; (when, seq) is a total order, so the pop
// sequence is the same as any other correct heap's.
type eventHeap []*event

func (h *eventHeap) push(ev *event) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// pop removes and returns the minimum. The heap must be non-empty.
func (h *eventHeap) pop() *event {
	s := *h
	ev := s[0]
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	*h = s[:n]
	if n > 0 {
		s[0] = last
		h.down(0)
	}
	ev.index = -1
	return ev
}

// remove unlinks the event at position i: the last event fills the
// hole and sifts down, then up.
func (h *eventHeap) remove(i int) {
	s := *h
	ev := s[i]
	n := len(s) - 1
	last := s[n]
	s[n] = nil
	*h = s[:n]
	if i < n {
		s[i] = last
		h.down(i)
		h.up(last.index)
	}
	ev.index = -1
}

// up moves the event at i toward the root until its parent precedes it.
func (h eventHeap) up(i int) {
	ev := h[i]
	for i > 0 {
		p := (i - 1) / 2
		parent := h[p]
		if !ev.before(parent) {
			break
		}
		h[i] = parent
		parent.index = i
		i = p
	}
	h[i] = ev
	ev.index = i
}

// down moves the event at i toward the leaves until it precedes both
// children.
func (h eventHeap) down(i int) {
	ev := h[i]
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		child := h[c]
		if !child.before(ev) {
			break
		}
		h[i] = child
		child.index = i
		i = c
	}
	h[i] = ev
	ev.index = i
}
