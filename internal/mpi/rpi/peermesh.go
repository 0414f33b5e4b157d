package rpi

import (
	"errors"

	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file is the half of the skeleton the dial-per-peer backends (TCP,
// one-to-one SCTP) share: one transport session per peer, lower ranks
// dial higher ones, and every accepted session identifies itself by its
// first envelope. A dead session is redialed as a fresh one; when both
// sides redial at once, the lower rank's dial wins.

// Poller source tags for non-peer endpoints; peer sessions use the
// peer's rank (>= 0) as their tag.
const (
	tagAccept  = -1 // the mesh listener
	tagPending = -2 // all undecided inbound sessions, coalesced
)

// PeerConn is one per-peer transport session.
type PeerConn interface {
	comparable
	transport.Endpoint

	// Kill destroys the session silently (no RST or ABORT), as if the
	// host vanished.
	Kill()
}

// Listener accepts inbound per-peer sessions without blocking.
type Listener[C PeerConn] interface {
	TryAccept() (C, error)
	SetNotify(fn func(transport.Ready))
	Close()
}

// PeerLink is the transport binding of a dial-per-peer backend. PeerMesh
// implements Link's Up and Dial; the binding supplies the rest.
type PeerLink[C PeerConn] interface {
	Link

	// Connect dials peer, blocking in process context.
	Connect(p *sim.Proc, peer int) (C, error)

	// Hello announces this rank on a session dialed at bring-up.
	Hello(p *sim.Proc, c C, hello Envelope) error

	// Pump moves every ready message on peer's live session c, handing
	// complete ones to Deliver, and returns the session's error.
	Pump(peer int, c C) (progress bool, err error)

	// ReadPending reads an undecided session's first envelope (and any
	// that follow) into Identify. dead reports that the session failed
	// before identifying itself.
	ReadPending(pc *Pending[C]) (progress, dead bool)

	// Clear discards peer's queued output and partial input when its
	// session goes; retained messages replay on the replacement.
	Clear(peer int)

	// Reset tears c down abortively (RST, ABORT).
	Reset(c C)
}

// Pending is an accepted session whose first envelope has not been
// read. After bring-up every inbound session is a recovery attempt that
// must announce itself with KindReconnect before it is adopted.
type Pending[C PeerConn] struct {
	Conn C
	In   StreamFramer // a byte-stream binding frames the first envelope here

	rank              int
	decided, rejected bool
}

// Adopted returns the rank pc was adopted for, or -1.
func (pc *Pending[C]) Adopted() int {
	if pc.decided && !pc.rejected {
		return pc.rank
	}
	return -1
}

// PeerMesh is the skeleton of a dial-per-peer backend: the listener, the
// coalesced source of undecided inbound sessions, first-envelope
// identification with the collision tie-break, one poller source per
// peer, and teardown.
type PeerMesh[C PeerConn] struct {
	Base

	link     PeerLink[C]
	listener Listener[C]
	conns    []C   // rank → live session; zero while down
	srcID    []int // rank → poller source id, -1 until first attach
	pendSrc  int
	pending  []*Pending[C]
}

// Setup initializes the skeleton at module construction time (see
// Base.Setup).
func (m *PeerMesh[C]) Setup(rank, size int, cost CostModel, cfg SessionConfig, barrier *Barrier) {
	m.Base.Setup(rank, size, cost, cfg, barrier)
	m.conns = make([]C, size)
	m.srcID = make([]int, size)
	for i := range m.srcID {
		m.srcID[i] = -1
	}
}

// Open runs Init for a dial-per-peer backend: bind the skeleton (each
// poll pass is charged over all size-1 descriptors, the select() scan
// the paper discusses, and bring-up waits for the lower ranks, which
// dial in), take over listener l, and bring the mesh up. The accept
// phase is pump-driven, so a session kill during bring-up is detected
// and recovered like any other: a killed dialer redials and announces
// itself with KindReconnect instead of a hello. after, if non-nil, runs
// at the end of every poll pass.
func (m *PeerMesh[C]) Open(p *sim.Proc, link PeerLink[C], l Listener[C], after func() bool) error {
	m.Bind(p, link, m.Size-1, m.Rank, m.onEvent, after)
	m.link = link
	m.pendSrc = m.Poller().Register(tagPending)
	m.listener = l
	l.SetNotify(m.Poller().Hook(m.Poller().Register(tagAccept)))
	return m.BringUp(p, func(j int, hello Envelope) error {
		c, err := link.Connect(p, j)
		if err != nil {
			return err
		}
		if err := link.Hello(p, c, hello); err != nil {
			return err
		}
		m.attach(j, c)
		return nil
	})
}

// Conn returns peer's live session, or the zero value while it is down.
func (m *PeerMesh[C]) Conn(peer int) C { return m.conns[peer] }

// Up implements Link.
func (m *PeerMesh[C]) Up(peer int) bool {
	var zero C
	return m.conns[peer] != zero
}

// Dial implements Link.
func (m *PeerMesh[C]) Dial(p *sim.Proc, peer int) error {
	c, err := m.link.Connect(p, peer)
	if err == nil {
		m.attach(peer, c)
	}
	return err
}

// attach makes c peer's session. The peer's poller source survives
// replacements; the synthetic readable post covers bytes that landed
// before this registration, for which edge-triggered readiness produced
// no event.
func (m *PeerMesh[C]) attach(peer int, c C) {
	m.conns[peer] = c
	if m.srcID[peer] < 0 {
		m.srcID[peer] = m.Poller().Register(peer)
	}
	c.SetNotify(m.Poller().Hook(m.srcID[peer]))
	m.Poller().Post(m.srcID[peer], transport.ReadyRecv)
	m.Counters().Add("connections", 1)
}

// drop kills peer's live session (idempotent when it already failed
// locally) and clears the binding's per-peer state.
func (m *PeerMesh[C]) drop(peer int) {
	var zero C
	m.conns[peer].Kill()
	m.conns[peer] = zero
	m.link.Clear(peer)
}

// onEvent dispatches one readiness edge to the endpoint its tag names.
func (m *PeerMesh[C]) onEvent(tag int, _ transport.Ready) bool {
	switch tag {
	case tagAccept:
		return m.acceptPending()
	case tagPending:
		return m.drainPending()
	}
	return m.pumpPeer(tag)
}

// pumpPeer moves everything ready on one peer's session, detects its
// abortive death, and runs a due redial for a downed slot.
func (m *PeerMesh[C]) pumpPeer(peer int) bool {
	progress := false
	if m.Up(peer) {
		var err error
		progress, err = m.link.Pump(peer, m.conns[peer])
		// Aborts (reset, kill) and timeouts are session losses; graceful
		// teardown (ErrClosed, EOF) is what Finalize produces.
		if errors.Is(err, transport.ErrAborted) || errors.Is(err, transport.ErrTimeout) {
			m.drop(peer)
			m.SessionLost(peer)
			progress = true
		}
	}
	if !m.Up(peer) && m.Sess.RedialDue(peer) {
		m.redial(m.Proc(), peer)
		progress = true
	}
	return progress
}

// acceptPending pulls every completed inbound session off the listener
// onto the pending list. Undecided sessions share one coalesced poller
// source; the synthetic post covers a first envelope that landed before
// the hook registration (a hello piggybacked on the handshake).
func (m *PeerMesh[C]) acceptPending() bool {
	progress := false
	for {
		c, err := m.listener.TryAccept()
		if err != nil {
			return progress
		}
		c.SetNotify(m.Poller().Hook(m.pendSrc))
		m.Poller().Post(m.pendSrc, transport.ReadyRecv)
		m.pending = append(m.pending, &Pending[C]{Conn: c, rank: -1})
		progress = true
	}
}

// drainPending reads every undecided session until its first envelope
// decides its fate.
func (m *PeerMesh[C]) drainPending() bool {
	progress := false
	kept := m.pending[:0]
	for _, pc := range m.pending {
		read, dead := m.link.ReadPending(pc)
		progress = progress || read
		switch {
		case pc.decided: // adopted, or rejected and reset
		case dead:
			pc.In.Reset()
		default:
			kept = append(kept, pc)
		}
	}
	m.pending = kept
	return progress
}

// Identify handles one envelope read from an undecided session. The
// first must announce the dialing rank: KindHello during bring-up (the
// pump-driven form of the accept loop) or KindReconnect opening session
// recovery; anything else resets the session. Once adopted, later
// messages flow through Deliver.
func (m *PeerMesh[C]) Identify(pc *Pending[C], env Envelope, body []byte) {
	switch {
	case pc.rejected:
		wire.PutBuf(body)
	case pc.decided:
		m.Deliver(pc.rank, env, body)
	case m.adopt(pc.Conn, env):
		pc.decided, pc.rank = true, int(env.Rank)
	default:
		pc.decided, pc.rejected = true, true
		m.link.Reset(pc.Conn)
		wire.PutBuf(body)
	}
}

// adopt attaches c as the session of the rank env announces, or reports
// false when c must be rejected.
func (m *PeerMesh[C]) adopt(c C, env Envelope) bool {
	r := int(env.Rank)
	switch {
	case !m.IsPeer(r):
		return false
	case env.Kind == KindHello:
		// A lower rank announcing its bring-up session; a hello for a
		// live slot is stray.
		if r > m.Rank || m.Up(r) {
			return false
		}
		m.attach(r, c)
		m.MarkHello(r)
		return true
	case env.Kind != KindReconnect:
		return false
	case m.Up(r) && m.Sess.Get(r).State != SessUp && r > m.Rank:
		// Redial collision: both sides dialed. The lower rank's dial
		// wins, and that is ours — reject theirs; they will adopt ours.
		return false
	}
	if m.Up(r) {
		// Either the peer noticed a loss we have not seen yet (our
		// session is dead on the wire but locally quiet), or we lost the
		// collision tie-break. Drop ours silently, adopt theirs.
		m.Sess.MarkLost(r)
		m.drop(r)
	}
	m.attach(r, c)
	m.Deliver(r, env, nil)
	return true
}

// KillSession implements the chaos harness's session-kill hook: destroy
// the session to peer silently, in kernel context. Detection and
// recovery run later from the owning process's Advance.
func (m *PeerMesh[C]) KillSession(peer int) {
	if m.Up(peer) {
		m.conns[peer].Kill()
	}
}

// Finalize implements RPI: close every session and the listener;
// graceful teardown proceeds in the background.
func (m *PeerMesh[C]) Finalize(*sim.Proc) {
	for r, c := range m.conns {
		if m.Up(r) {
			c.Close()
		}
	}
	for _, pc := range m.pending {
		pc.Conn.Close()
	}
	m.close()
}

// Abort implements RPI: abortive teardown after a terminal error.
// Sessions are reset (peers fail fast instead of waiting out timeouts)
// and the listener is released so redials aimed at this rank are
// refused immediately.
func (m *PeerMesh[C]) Abort(*sim.Proc) {
	var zero C
	for r, c := range m.conns {
		if m.Up(r) {
			m.link.Reset(c)
			m.conns[r] = zero
		}
	}
	for _, pc := range m.pending {
		m.link.Reset(pc.Conn)
	}
	m.pending = nil
	m.close()
}

func (m *PeerMesh[C]) close() {
	if m.listener != nil {
		m.listener.Close()
	}
	if m.Sess != nil {
		m.Sess.Close()
	}
}
