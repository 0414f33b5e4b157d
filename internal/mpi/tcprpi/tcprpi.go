// Package tcprpi is the LAM-TCP analogue: a request progression module
// that keeps one TCP connection per peer process (a full mesh built at
// MPI_Init), polls all sockets select()-style with a cost linear in the
// descriptor count, and reads envelopes and bodies out of each byte
// stream with a per-socket framing state machine. Because each peer
// pair shares a single ordered byte stream, a lost segment blocks every
// later message from that peer — the transport-level head-of-line
// blocking the paper's SCTP module removes.
//
// The progression machinery (counters, cost charging, the Advance poll
// loop, connection bring-up, session recovery) lives in the shared
// rpi.Engine/rpi.Sessions; this file is only the TCP byte-stream
// binding. When a connection dies abortively the module redials it and
// runs the KindReconnect handshake; the side that loses the redial
// collision tie-break (lower rank's dial wins) adopts the peer's
// replacement connection instead.
package tcprpi

import (
	"errors"

	"repro/internal/mpi/rpi"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/transport"
	"repro/internal/wire"
)

// DefaultPort is the mesh listener port.
const DefaultPort = 7001

// Poller source tags for non-peer endpoints; peer connections use the
// peer's rank (>= 0) as their tag.
const (
	tagAccept  = -1 // the mesh listener
	tagPending = -2 // all undecided inbound connections, coalesced
)

// Options configures the module.
type Options struct {
	Port uint16
	Cost rpi.CostModel
	TCP  tcp.Config // per-connection config; NoDelay is forced on (LAM default)

	// RedialBudget and DropReplayEvery configure the session recovery
	// layer (see rpi.SessionConfig).
	RedialBudget    int
	DropReplayEvery int
}

// Module is one process's TCP RPI instance.
type Module struct {
	rpi.Engine
	stack   *tcp.Stack
	opts    Options
	addrs   []netsim.Addr // rank → primary address
	barrier *rpi.Barrier

	listener  *tcp.Listener
	peers     []*peer
	sess      *rpi.Sessions
	pending   []*pendingConn
	helloSeen []bool // lower ranks confirmed during bring-up (distinct)
	hellos    int

	srcID   []int // rank → poller source id, -1 until first attach
	pendSrc int   // shared source for undecided inbound connections
}

// peer is one mesh connection: the socket plus its framing reader and
// partial-write queue. conn is nil while the session to that rank is
// down (between loss detection and redial success).
type peer struct {
	conn *tcp.Conn
	out  rpi.OutQueue
	in   rpi.StreamFramer
}

// pendingConn is an accepted connection whose first envelope has not
// arrived yet. After MPI_Init every inbound connection is a session
// recovery attempt that must announce itself with KindReconnect before
// it is adopted as a peer's replacement connection.
type pendingConn struct {
	conn     *tcp.Conn
	in       rpi.StreamFramer
	rank     int
	decided  bool
	rejected bool
}

// New builds the module for one rank. addrs maps world rank to primary
// address; barrier must be shared by all ranks in the job.
func New(stack *tcp.Stack, rank int, addrs []netsim.Addr, barrier *rpi.Barrier, opts Options) *Module {
	if opts.Port == 0 {
		opts.Port = DefaultPort
	}
	// Note: LAM-TCP disables Nagle by default (paper §4); the core
	// facade sets opts.TCP.NoDelay accordingly, and the Nagle ablation
	// benchmark turns it back on.
	m := &Module{
		stack:   stack,
		opts:    opts,
		addrs:   addrs,
		barrier: barrier,
		peers:   make([]*peer, len(addrs)),
	}
	m.SetupEngine(rank, len(addrs), opts.Cost)
	return m
}

// lost reports whether err is a session-loss signal: aborts (reset,
// kill) and timeouts, but not graceful teardown (ErrClosed, EOF), which
// is what Finalize produces.
func lost(err error) bool {
	return err != nil &&
		(errors.Is(err, transport.ErrAborted) || errors.Is(err, transport.ErrTimeout))
}

// Init implements rpi.RPI: listener up, full mesh established (lower
// ranks connect to higher ranks), hello exchange identifies accepted
// connections. The accept phase is pump-driven (inbound connections
// identify themselves through the pending-connection machinery) so a
// session kill during bring-up is detected and recovered like any
// other: a killed dialer redials and announces itself with
// KindReconnect instead of a hello, and the final rendezvous keeps
// pumping so that handshake is answered even by ranks already done
// with their own setup.
func (m *Module) Init(p *sim.Proc) error {
	m.BindProc(p)
	m.helloSeen = make([]bool, m.Size)
	m.srcID = make([]int, m.Size)
	for i := range m.srcID {
		m.srcID[i] = -1
	}
	m.pendSrc = m.Poller().Register(tagPending)
	m.sess = rpi.NewSessions(&m.Engine, p.Kernel(), m.Size, rpi.SessionConfig{
		RedialBudget:    m.opts.RedialBudget,
		DropReplayEvery: m.opts.DropReplayEvery,
	})
	l, err := m.stack.ListenConfig(m.opts.Port, m.opts.TCP)
	if err != nil {
		return err
	}
	m.listener = l
	lsrc := m.Poller().Register(tagAccept)
	l.SetNotify(m.Poller().Hook(lsrc))
	dial := func(j int, hello rpi.Envelope) error {
		c, err := m.stack.ConnectConfig(p, m.opts.TCP, m.addrs[j], m.opts.Port)
		if err != nil {
			return err
		}
		if _, err := c.Write(p, hello.Encode()); err != nil {
			return err
		}
		m.attach(j, c)
		return nil
	}
	accept := func() error {
		for m.hellos < m.Rank {
			if err := m.Advance(p, true); err != nil {
				return err
			}
		}
		return nil
	}
	wait := func(done func() bool) error {
		return m.DriveUntil(p, m.Size-1, done,
			func(tag int, ev transport.Ready) bool { return m.onEvent(p, tag, ev) },
			m.tail)
	}
	return rpi.MeshInit(p, m.barrier, m.Rank, m.Size, dial, accept, m.Notify, wait)
}

// markHello records that lower rank r is confirmed for the bring-up
// barrier: its hello arrived, or (if a session kill hit the bring-up)
// its replacement connection identified itself with KindReconnect —
// hellos are unsessioned and never replayed, so the recovery handshake
// stands in for a lost one.
func (m *Module) markHello(r int) {
	if r >= 0 && r < m.Rank && !m.helloSeen[r] {
		m.helloSeen[r] = true
		m.hellos++
	}
}

func (m *Module) attach(rank int, c *tcp.Conn) {
	m.peers[rank] = &peer{conn: c}
	m.bindPeerConn(rank, c)
	m.Counters().Add("connections", 1)
}

// bindPeerConn points peer r's poller source at conn and posts one
// synthetic readable edge: readiness is edge-triggered, so bytes that
// arrived before this registration produced no event and the first
// pump must not depend on one.
func (m *Module) bindPeerConn(r int, c *tcp.Conn) {
	if m.srcID[r] < 0 {
		m.srcID[r] = m.Poller().Register(r)
	}
	id := m.srcID[r]
	c.SetNotify(m.Poller().Hook(id))
	m.Poller().Post(id, transport.ReadyRecv)
}

// Send implements rpi.RPI. Every middleware message is stamped and a
// copy retained by the session layer; that copy is what gets queued, so
// it is the buffered-send completion point and onQueued fires here
// regardless of session state. While the session is down the message is
// retention-only and reaches the peer in the replay gap after recovery.
func (m *Module) Send(dest int, env rpi.Envelope, body []byte, onQueued func()) {
	kept, up := m.sess.StampOut(dest, &env, body)
	m.CountSend(len(body))
	if onQueued != nil {
		onQueued()
	}
	if !up {
		return
	}
	pe := m.peers[dest]
	pe.out.Push(env, kept)
	pe.out.Flush(pe.conn.TryWrite, m.sendError)
}

func (m *Module) sendError(error) { m.Counters().Add("send_errors", 1) }

func (m *Module) frameError() { m.Counters().Add("frame_errors", 1) }

// Advance implements rpi.RPI: drain the readiness queue, pumping only
// the endpoints whose state actually changed. The pass cost stays
// charged over all Size-1 descriptors — the select() scan ablation the
// paper discusses — but the work done is proportional to ready events.
func (m *Module) Advance(p *sim.Proc, block bool) error {
	return m.Drive(p, block, m.Size-1,
		func(tag int, ev transport.Ready) bool { return m.onEvent(p, tag, ev) },
		m.tail)
}

// onEvent dispatches one readiness edge to the endpoint its tag names.
func (m *Module) onEvent(p *sim.Proc, tag int, ev transport.Ready) bool {
	switch tag {
	case tagAccept:
		return m.acceptPending()
	case tagPending:
		return m.drainPending(p)
	default:
		return m.pumpPeer(p, tag)
	}
}

// tail services the time-driven recovery state on a Notify kick: redial
// attempts that came due (session scheduling and backoff timers kick,
// endpoint traffic never needs this sweep).
func (m *Module) tail(kicked bool) bool {
	if !kicked {
		return false
	}
	progress := false
	for r, pe := range m.peers {
		if pe != nil && pe.conn == nil && m.sess.RedialDue(r) {
			m.redial(m.Proc(), r)
			progress = true
		}
	}
	return progress
}

// pumpPeer moves every ready byte on one peer connection: flush the
// write queue, drain the framing reader, detect abortive death, and
// run a due redial for a downed slot.
func (m *Module) pumpPeer(p *sim.Proc, r int) bool {
	pe := m.peers[r]
	if pe == nil {
		return false
	}
	progress := false
	if pe.conn != nil {
		if pe.out.Pending() && pe.out.Flush(pe.conn.TryWrite, m.sendError) > 0 {
			progress = true
		}
		if pe.in.Drain(pe.conn, func(env rpi.Envelope, body []byte) {
			m.inbound(p, r, env, body)
		}, m.frameError) {
			progress = true
		}
		if pe.conn != nil && lost(pe.conn.Err()) {
			m.onConnDeath(r)
			progress = true
		}
	}
	if pe.conn == nil && m.sess.RedialDue(r) {
		m.redial(p, r)
		progress = true
	}
	return progress
}

// onConnDeath handles an abortive connection loss: tear down per-peer
// transport state and either start the recovery episode or, if this
// was already a replacement connection that died before its handshake
// completed, charge a failed redial attempt.
func (m *Module) onConnDeath(r int) {
	pe := m.peers[r]
	pe.conn.Kill() // idempotent; the connection already failed locally
	pe.conn = nil
	pe.out.Reset()
	pe.in.Reset()
	if m.sess.MarkLost(r) {
		m.sess.ScheduleRedial(r)
	} else {
		m.sess.AttemptFailed(r)
	}
}

// redial runs one redial attempt: claim budget (terminal error when
// exhausted), dial blocking in process context, and send the
// KindReconnect handshake on the fresh connection. The connection is
// the peer's candidate until the ReconnectAck arrives.
func (m *Module) redial(p *sim.Proc, r int) {
	if err := m.sess.BeginAttempt(r); err != nil {
		m.Fail(err)
		return
	}
	c, err := m.stack.ConnectConfig(p, m.opts.TCP, m.addrs[r], m.opts.Port)
	if err != nil {
		m.sess.AttemptFailed(r)
		return
	}
	m.sess.DialSucceeded(r)
	m.bindPeerConn(r, c)
	pe := m.peers[r]
	pe.conn = c
	pe.out.Reset()
	pe.in.Reset()
	m.Counters().Add("connections", 1)
	pe.out.Push(m.sess.ReconnectEnv(r), nil)
	pe.out.Flush(c.TryWrite, m.sendError)
}

// inbound dispatches one complete framed message from peer r: recovery
// handshakes are handled here, everything else passes receiver-side
// session processing (retention pruning, duplicate suppression) before
// delivery.
func (m *Module) inbound(p *sim.Proc, r int, env rpi.Envelope, body []byte) {
	switch env.Kind {
	case rpi.KindReconnect:
		pe := m.peers[r]
		ack, gap := m.sess.OnReconnect(r, env)
		pe.out.Push(ack, nil)
		m.pushReplay(pe, gap)
		pe.out.Flush(pe.conn.TryWrite, m.sendError)
		m.sess.Resume(r)
		return
	case rpi.KindReconnectAck:
		pe := m.peers[r]
		m.pushReplay(pe, m.sess.OnReconnectAck(r, env))
		pe.out.Flush(pe.conn.TryWrite, m.sendError)
		m.sess.Resume(r)
		return
	case rpi.KindHello:
		return
	}
	if !m.sess.Accept(r, &env) {
		if body != nil {
			wire.PutBuf(body)
		}
		return
	}
	m.Complete(p, env, body)
}

// pushReplay queues the negotiated retention gap on the replacement
// connection. Replays bypass CountSend and the observer: the original
// send was already counted and recorded.
func (m *Module) pushReplay(pe *peer, gap []rpi.Retained) {
	for _, rt := range gap {
		pe.out.Push(rt.Env, rt.Body)
	}
}

// acceptPending pulls every completed inbound connection off the
// listener backlog onto the pending list. All undecided connections
// share one coalesced poller source; the synthetic post makes their
// bytes that landed before hook registration (a hello piggybacked on
// the handshake) visible to the edge-triggered drain.
func (m *Module) acceptPending() bool {
	progress := false
	for {
		c, err := m.listener.TryAccept()
		if err != nil {
			break
		}
		c.SetNotify(m.Poller().Hook(m.pendSrc))
		m.Poller().Post(m.pendSrc, transport.ReadyRecv)
		m.pending = append(m.pending, &pendingConn{conn: c})
		progress = true
	}
	return progress
}

// drainPending drives each undecided inbound connection until its
// first envelope decides its fate: a valid KindReconnect is adopted as
// the peer's replacement connection (unless our own dial wins the
// collision tie-break), anything else is reset.
func (m *Module) drainPending(p *sim.Proc) bool {
	progress := false
	kept := m.pending[:0]
	for _, pc := range m.pending {
		if pc.in.Drain(pc.conn, func(env rpi.Envelope, body []byte) {
			m.pendingMsg(p, pc, env, body)
		}, m.frameError) {
			progress = true
		}
		switch {
		case pc.decided && !pc.rejected:
			// Adopted: hand the framer (with any bytes it already
			// buffered past the handshake) to the peer slot.
			m.peers[pc.rank].in = pc.in
		case pc.rejected:
			// dropped
		case pc.conn.Err() != nil:
			pc.in.Reset()
		default:
			kept = append(kept, pc)
		}
	}
	m.pending = kept
	return progress
}

// pendingMsg handles one message on an undecided inbound connection.
// The first envelope must announce the dialing rank: a KindHello during
// mesh bring-up (the pump-driven form of the accept loop) or a
// KindReconnect opening session recovery. Once adopted, later messages
// in the same drain pass flow through the normal inbound path.
func (m *Module) pendingMsg(p *sim.Proc, pc *pendingConn, env rpi.Envelope, body []byte) {
	if pc.rejected {
		if body != nil {
			wire.PutBuf(body)
		}
		return
	}
	if pc.decided {
		m.inbound(p, pc.rank, env, body)
		return
	}
	pc.decided = true
	r := int(env.Rank)
	reject := func() {
		pc.rejected = true
		pc.conn.Reset()
		if body != nil {
			wire.PutBuf(body)
		}
	}
	if r < 0 || r >= m.Size || r == m.Rank {
		reject()
		return
	}
	if env.Kind == rpi.KindHello {
		// Mesh bring-up: a lower rank announcing its dialed connection.
		// A hello for a slot already connected is stray — reject it.
		if r >= m.Rank || m.peers[r] != nil {
			reject()
			return
		}
		pc.rank = r
		m.attach(r, pc.conn)
		m.markHello(r)
		return
	}
	if env.Kind != rpi.KindReconnect {
		reject()
		return
	}
	pe := m.peers[r]
	if pe != nil && pe.conn != nil && m.sess.Get(r).State != rpi.SessUp && r > m.Rank {
		// Redial collision: both sides dialed. The lower rank's dial
		// wins, and that is ours — reject theirs; they will adopt ours.
		pc.rejected = true
		pc.conn.Reset()
		return
	}
	pc.rank = r
	if pe == nil {
		// A session kill hit the bring-up before this peer's hello ever
		// arrived; its replacement connection announces itself with
		// KindReconnect instead.
		pe = &peer{}
		m.peers[r] = pe
	}
	if pe.conn != nil {
		// Either the peer noticed a loss we have not seen yet (our
		// connection is dead on the wire but locally quiet), or we lost
		// the collision tie-break. Drop ours silently, adopt theirs.
		m.sess.MarkLost(r)
		pe.conn.Kill()
		pe.conn = nil
		pe.out.Reset()
		pe.in.Reset()
	}
	pe.conn = pc.conn
	m.bindPeerConn(r, pc.conn)
	m.Counters().Add("connections", 1)
	ack, gap := m.sess.OnReconnect(r, env)
	pe.out.Push(ack, nil)
	m.pushReplay(pe, gap)
	pe.out.Flush(pe.conn.TryWrite, m.sendError)
	m.sess.Resume(r)
	m.markHello(r)
}

// KillSession implements the chaos harness's session-kill hook: destroy
// the transport session to peer silently (no RST — as if the host
// vanished), in kernel context. Detection and recovery run later from
// the owning process's Advance.
func (m *Module) KillSession(peer int) {
	pe := m.peers[peer]
	if pe != nil && pe.conn != nil {
		pe.conn.Kill()
	}
}

// Finalize implements rpi.RPI.
func (m *Module) Finalize(p *sim.Proc) {
	for _, pe := range m.peers {
		if pe != nil && pe.conn != nil {
			pe.conn.Close()
		}
	}
	for _, pc := range m.pending {
		pc.conn.Close()
	}
	if m.listener != nil {
		m.listener.Close()
	}
	if m.sess != nil {
		m.sess.Close()
	}
}

// Abort implements rpi.RPI: abortive teardown after a terminal error.
// Connections are reset (peers fail fast instead of waiting out
// timeouts) and the listener is released so redials aimed at this rank
// are refused immediately.
func (m *Module) Abort(p *sim.Proc) {
	for _, pe := range m.peers {
		if pe != nil && pe.conn != nil {
			pe.conn.Reset()
			pe.conn = nil
		}
	}
	for _, pc := range m.pending {
		pc.conn.Reset()
	}
	m.pending = nil
	if m.listener != nil {
		m.listener.Close()
	}
	if m.sess != nil {
		m.sess.Close()
	}
}
