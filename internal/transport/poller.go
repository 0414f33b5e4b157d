package transport

import "repro/internal/fifo"

// This file is the readiness layer of the proactor refactor: instead of
// one global "something changed" boolean that forces the RPI engine to
// re-scan every peer select()-style, each endpoint posts typed,
// edge-triggered events into a Poller — the epoll analogue. A wake then
// names exactly which endpoints changed and how, so the progress loop
// pumps only ready peers and its cost is proportional to the number of
// events, not the world size.

// Ready is a bitmask of per-endpoint readiness edges.
type Ready uint8

const (
	// ReadyRecv: the endpoint gained readable data (bytes, a message,
	// or an accept-queue entry on a listener).
	ReadyRecv Ready = 1 << iota

	// ReadySend: the endpoint gained writable space (an ack freed send
	// buffer, or the connection finished establishing).
	ReadySend

	// ReadyClosed: the endpoint completed an orderly teardown.
	ReadyClosed

	// ReadyErr: the endpoint failed terminally (reset, abort, timeout).
	ReadyErr
)

// Has reports whether r includes every edge in k.
func (r Ready) Has(k Ready) bool { return r&k == k }

func (r Ready) String() string {
	if r == 0 {
		return "none"
	}
	var s []byte
	appendIf := func(k Ready, name string) {
		if r&k != 0 {
			if len(s) > 0 {
				s = append(s, '|')
			}
			s = append(s, name...)
		}
	}
	appendIf(ReadyRecv, "recv")
	appendIf(ReadySend, "send")
	appendIf(ReadyClosed, "closed")
	appendIf(ReadyErr, "err")
	return string(s)
}

// Poller is a deterministic readiness queue: endpoints register as
// sources, their notify hooks post edges (from kernel context), and the
// consumer drains (source, edges) pairs in FIFO order. Events for a
// source that is already queued coalesce into its pending mask, so the
// queue holds each source at most once — bounded by the number of
// registered sources, like an epoll ready list.
//
// The Poller is a plain single-threaded data structure: the simulation
// is cooperatively scheduled, so posts (kernel context) and drains
// (process context) never overlap and no synchronization is needed.
type Poller struct {
	wake    func()          // fired on every post; wakes the parked engine loop
	sources []source        // index = source id
	queue   fifo.Queue[int] // source ids with pending != 0
}

type source struct {
	tag     int
	pending Ready
	queued  bool
}

// NewPoller builds a Poller whose wake hook fires on every Post, in
// whatever context the post happens (usually the kernel's).
func NewPoller(wake func()) *Poller {
	return &Poller{wake: wake}
}

// Register adds a source and returns its id. tag is the consumer's
// label for the source (an RPI module uses the peer rank, or a negative
// constant for the listener); it is handed back verbatim by Next.
func (p *Poller) Register(tag int) int {
	p.sources = append(p.sources, source{tag: tag})
	return len(p.sources) - 1
}

// Retag relabels a source. The TCP module uses this when an anonymous
// inbound connection identifies itself: events already queued for the
// source dispatch under the new tag, so nothing posted during the
// handoff is lost or misrouted.
func (p *Poller) Retag(id, tag int) { p.sources[id].tag = tag }

// Post records readiness edges for a source and enqueues it if it is
// not already pending, then fires the wake hook. Kernel-context safe.
func (p *Poller) Post(id int, ev Ready) {
	if ev == 0 {
		return
	}
	s := &p.sources[id]
	s.pending |= ev
	if !s.queued {
		s.queued = true
		p.queue.Push(id)
	}
	if p.wake != nil {
		p.wake()
	}
}

// Hook returns a notify function bound to source id, suitable for
// Endpoint.SetNotify.
func (p *Poller) Hook(id int) func(Ready) {
	return func(ev Ready) { p.Post(id, ev) }
}

// Next pops the oldest ready source, returning its tag and the
// coalesced edge mask. ok is false when the queue is empty.
func (p *Poller) Next() (tag int, ev Ready, ok bool) {
	if p.queue.Len() == 0 {
		return 0, 0, false
	}
	id := p.queue.Pop()
	s := &p.sources[id]
	tag, ev = s.tag, s.pending
	s.pending = 0
	s.queued = false
	return tag, ev, true
}

// Pending reports whether any source is queued. The engine re-checks
// this (with its kick flag) before parking: a post that lands between
// the drain and the park stays in the queue, so the wakeup cannot be
// lost the way a single dirty boolean could.
func (p *Poller) Pending() bool { return p.queue.Len() > 0 }

// Len returns the number of queued sources.
func (p *Poller) Len() int { return p.queue.Len() }
