package rpi

import (
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Engine is the progression machinery under the connection-management
// skeleton (Base): the typed counters, the delivery callback, CostModel
// charging, the readiness poller, and the canonical Advance loop. The
// skeleton registers one poller source per endpoint and supplies an
// onEvent handler that pumps exactly the endpoint a readiness edge
// names — the proactor replacement for the old scan-every-peer pump.
type Engine struct {
	Rank int
	Size int
	Cost CostModel

	deliver Delivery
	ctrs    Counters
	self    *sim.Proc
	cond    *sim.Cond
	poller  *transport.Poller
	kick    bool
	err     error
}

// SetupEngine initializes the engine at module construction time.
func (e *Engine) SetupEngine(rank, size int, cost CostModel) {
	e.Rank, e.Size, e.Cost = rank, size, cost
	e.ctrs = NewCounters()
}

// BindProc attaches the engine to its owning simulation process. Must
// be called at the top of the module's Init.
func (e *Engine) BindProc(p *sim.Proc) {
	e.self = p
	e.cond = sim.NewCond(p.Kernel())
	e.poller = transport.NewPoller(e.cond.Broadcast)
}

// SetDelivery implements RPI.
func (e *Engine) SetDelivery(d Delivery) { e.deliver = d }

// Proc returns the owning simulation process bound by BindProc.
func (e *Engine) Proc() *sim.Proc { return e.self }

// Counters implements RPI.
func (e *Engine) Counters() Counters { return e.ctrs }

// Poller returns the engine's readiness queue. Modules Register one
// source per endpoint (tagged however suits them — peer rank, or a
// module-local tag for listeners and pending connections) and hand
// Hook(id) to the endpoint's SetNotify.
func (e *Engine) Poller() *transport.Poller { return e.poller }

// Notify is the generic progress kick for events that are not endpoint
// readiness: timers (session redial backoff), barrier arrival, and any
// other "re-examine module state" signal. It wakes a parked Drive and
// makes the next pass run its tail with kicked=true.
func (e *Engine) Notify() {
	e.kick = true
	e.cond.Broadcast()
}

// Fail records a terminal module error (session recovery exhausted).
// The first error sticks; every subsequent Advance returns it. A pass
// in flight stops dispatching queued readiness events immediately —
// endpoints queued before the failure are dead with the module, and
// pumping them would resurrect I/O on torn-down sessions.
func (e *Engine) Fail(err error) {
	if e.err == nil {
		e.err = err
	}
	e.Notify()
}

// CountSend records one outbound message of n body bytes and charges
// the send-side CPU cost.
func (e *Engine) CountSend(n int) {
	e.ctrs.Add("msgs_sent", 1)
	e.ctrs.Add("bytes_sent", int64(n))
	if d := e.Cost.SendCost(n); d > 0 && e.self != nil {
		e.self.Sleep(d)
	}
}

// Complete records one complete inbound message, charges the
// receive-side CPU cost, and hands it to the middleware.
func (e *Engine) Complete(p *sim.Proc, env Envelope, body []byte) {
	e.ctrs.Add("msgs_rcvd", 1)
	e.ctrs.Add("bytes_rcvd", int64(len(body)))
	if d := e.Cost.RecvCost(len(body)); d > 0 {
		p.Sleep(d)
	}
	e.deliver(env, body)
	// Delivery copies the payload into the posted receive buffer (or an
	// unexpected-message copy); the transport-side body buffer is dead
	// now and goes back to the wire pool.
	wire.PutBuf(body)
}

// drivePass runs one poll pass: charge the pass cost, drain the ready
// queue through onEvent (each dequeue charges the per-event cost), then
// run the module's tail work. kicked tells the tail whether a generic
// Notify arrived since the last pass — that is when time-driven module
// state (redial backoff, rendezvous arrival) needs a sweep; endpoint
// traffic never requires one.
func (e *Engine) drivePass(p *sim.Proc, nfds int,
	onEvent func(tag int, ev transport.Ready) bool,
	tail func(kicked bool) bool) bool {
	if d := e.Cost.PollCost(nfds); d > 0 {
		p.Sleep(d)
	}
	e.ctrs.Add("poll_passes", 1)
	e.ctrs.Add("poll_scan_fds", int64(nfds))
	kicked := e.kick
	e.kick = false
	progress := false
	for e.err == nil {
		tag, ev, ok := e.poller.Next()
		if !ok {
			break
		}
		e.ctrs.Add("poll_events", 1)
		if d := e.Cost.EventCost(); d > 0 {
			p.Sleep(d)
		}
		if onEvent(tag, ev) {
			progress = true
		}
	}
	// A kick raised by an event handler (ScheduleRedial after a loss)
	// belongs to this pass: the tail must see it now, in the pass that
	// drained the loss, not one poll charge later.
	if e.kick {
		kicked = true
		e.kick = false
	}
	if e.err == nil && tail != nil && tail(kicked) {
		progress = true
	}
	return progress
}

// Drive is the canonical Advance scaffold: run poll passes until one
// makes progress (or, non-blocking, exactly one pass), parking the
// process between passes when nothing is ready. nfds is the descriptor
// count the pass cost is charged over — the select() ablation knob; the
// work itself is proportional to ready events, not nfds.
//
// The park is guarded against the lost-wakeup window: a readiness edge
// or Notify that lands between the pass returning no-progress and the
// wait must start another pass, not be slept through.
func (e *Engine) Drive(p *sim.Proc, block bool, nfds int,
	onEvent func(tag int, ev transport.Ready) bool,
	tail func(kicked bool) bool) error {
	for {
		progress := e.drivePass(p, nfds, onEvent, tail)
		if e.err != nil {
			return e.err
		}
		if progress || !block {
			return nil
		}
		if e.poller.Pending() || e.kick {
			continue // arrived while we were pumping: no park
		}
		e.cond.Wait(p)
	}
}

// DriveUntil is Drive with an external completion condition instead of
// a progress requirement: it pumps until stop() holds (or the module
// fails terminally), parking between events. BringUp's final
// rendezvous runs on it so a process waiting for slower peers keeps
// serving inbound traffic — a peer recovering from a session kill
// during bring-up needs its redial handshake answered even by ranks
// already done with their own setup.
func (e *Engine) DriveUntil(p *sim.Proc, nfds int, stop func() bool,
	onEvent func(tag int, ev transport.Ready) bool,
	tail func(kicked bool) bool) error {
	for !stop() && e.err == nil {
		e.drivePass(p, nfds, onEvent, tail)
		if stop() || e.err != nil {
			break
		}
		if e.poller.Pending() || e.kick {
			continue
		}
		e.cond.Wait(p)
	}
	return e.err
}
