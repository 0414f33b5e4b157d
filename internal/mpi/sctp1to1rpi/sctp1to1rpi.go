// Package sctp1to1rpi is the ablation backend implied by paper §2.1's
// one-to-one socket style: SCTP message orientation and multistreaming,
// but one socket per peer like TCP. The process keeps N-1 one-to-one
// associations (a full mesh built at MPI_Init) and polls them
// select()-style, so the descriptor-scan cost that the one-to-many
// module eliminates comes back — while per-peer multistreaming and
// message boundaries are retained. Comparing this module against
// sctprpi isolates how much of the paper's result comes from the
// one-to-many socket itself rather than from SCTP's other features.
//
// The progression machinery (counters, cost charging, the Advance
// loop, the Option B/C writer lock, chunk reassembly, session
// recovery) lives in the shared rpi.Engine/rpi.MsgSender/
// rpi.Reassembler/rpi.Sessions; this file is only the one-to-one
// socket binding. A dead association is redialed as a fresh one-to-one
// socket; the KindReconnect handshake and collision tie-break work as
// in the TCP module.
package sctp1to1rpi

import (
	"errors"

	"repro/internal/mpi/rpi"
	"repro/internal/netsim"
	"repro/internal/sctp"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// DefaultPort is the mesh listener port.
const DefaultPort = 7003

// Poller source tags for non-peer endpoints; peer associations use the
// peer's rank (>= 0) as their tag.
const (
	tagAccept  = -1 // the one-to-one listener
	tagPending = -2 // all undecided inbound associations, coalesced
)

// Options configures the module.
type Options struct {
	Port         uint16
	Cost         rpi.CostModel
	SCTP         sctp.Config
	SingleStream bool // ignore TRC, use stream 0
	// BodyChunk is the middleware chunk size for messages larger than
	// the transport send buffer. 0 derives it from the send buffer.
	BodyChunk int
	// OptionC interleaves bodiless control envelopes between body
	// chunks, distinguished by PPID (see sctprpi.Options).
	OptionC bool

	// RedialBudget and DropReplayEvery configure the session recovery
	// layer (see rpi.SessionConfig).
	RedialBudget    int
	DropReplayEvery int
}

// Module is one process's one-to-one SCTP RPI instance.
type Module struct {
	rpi.Engine
	stack   *sctp.Stack
	opts    Options
	addrs   [][]netsim.Addr // rank → all interface addresses (multihoming)
	barrier *rpi.Barrier

	listener  *sctp.OneToOneListener
	peers     []*sctp.Conn // rank → dedicated association; nil while down
	streams   int
	sender    *rpi.MsgSender
	recv      *rpi.Reassembler
	sess      *rpi.Sessions
	pending   []*sctp.Conn // accepted, awaiting their first envelope
	helloSeen []bool       // lower ranks confirmed during bring-up (distinct)
	hellos    int

	srcID   []int // rank → poller source id, -1 until first attach
	pendSrc int   // shared source for undecided inbound associations
}

// New builds the module for one rank. addrs maps each world rank to
// its full interface list (index 0 = primary); barrier must be shared
// by all ranks.
func New(stack *sctp.Stack, rank int, addrs [][]netsim.Addr, barrier *rpi.Barrier, opts Options) *Module {
	if opts.Port == 0 {
		opts.Port = DefaultPort
	}
	cfg := opts.SCTP
	if cfg.Streams == 0 {
		cfg.Streams = 10 // the paper's default stream pool
	}
	if opts.SingleStream {
		cfg.Streams = 1
	}
	opts.SCTP = cfg
	m := &Module{
		stack:   stack,
		opts:    opts,
		addrs:   addrs,
		barrier: barrier,
		peers:   make([]*sctp.Conn, len(addrs)),
		streams: cfg.Streams,
	}
	m.SetupEngine(rank, len(addrs), opts.Cost)
	return m
}

// lost reports whether err is a session-loss signal: aborts and
// timeouts, but not graceful teardown (ErrClosed), which Finalize
// produces.
func lost(err error) bool {
	return err != nil &&
		(errors.Is(err, transport.ErrAborted) || errors.Is(err, transport.ErrTimeout))
}

// StreamFor exposes the TRC→stream mapping (for tests): same hash as
// the one-to-many module, applied per-peer association.
func (m *Module) StreamFor(context, tag int32) uint16 {
	if m.opts.SingleStream {
		return 0
	}
	return rpi.StreamFor(m.streams, context, tag)
}

// Init implements rpi.RPI: listener up, full mesh of one-to-one
// associations established (lower ranks dial higher ranks), hello
// exchange identifies accepted associations. The accept phase is
// pump-driven (inbound associations identify themselves through the
// pending machinery) so a session kill during bring-up is detected and
// recovered like any other: a killed dialer redials and announces
// itself with KindReconnect instead of a hello, and the final
// rendezvous keeps pumping so that handshake is answered even by ranks
// already done with their own setup.
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
	l, err := m.stack.ListenOneToOneConfig(m.opts.Port, m.opts.SCTP)
	if err != nil {
		return err
	}
	m.listener = l
	lsrc := m.Poller().Register(tagAccept)
	l.SetNotify(m.Poller().Hook(lsrc))
	m.sender = rpi.NewMsgSender(
		rpi.DeriveBodyChunk(m.opts.BodyChunk, l.Config().SndBuf),
		m.opts.OptionC, m.Counters(), m.trySend)
	m.recv = rpi.NewReassembler(m.Counters())
	dial := func(j int, hello rpi.Envelope) error {
		c, err := m.stack.DialConfig(p, m.opts.SCTP, m.addrs[j], m.opts.Port, m.streams)
		if err != nil {
			return err
		}
		if err := c.SendMsg(p, 0, hello.Encode()); err != nil {
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
// its replacement association identified itself with KindReconnect —
// hellos are unsessioned and never replayed, so the recovery handshake
// stands in for a lost one.
func (m *Module) markHello(r int) {
	if r >= 0 && r < m.Rank && !m.helloSeen[r] {
		m.helloSeen[r] = true
		m.hellos++
	}
}

// attach wires one association in. Conn.SetNotify registers
// per-association on the underlying socket (shared listening socket or
// dedicated dial-side socket alike), so each peer's readiness edges
// carry its own rank tag. The synthetic post covers messages that
// landed on the socket queue before this registration — edge-triggered
// readiness produces no event for them.
func (m *Module) attach(rank int, c *sctp.Conn) {
	m.peers[rank] = c
	if m.srcID[rank] < 0 {
		m.srcID[rank] = m.Poller().Register(rank)
	}
	id := m.srcID[rank]
	c.SetNotify(m.Poller().Hook(id))
	m.Poller().Post(id, transport.ReadyRecv)
	m.Counters().Add("connections", 1)
}

func (m *Module) trySend(key rpi.MsgKey, ppid uint32, data []byte) error {
	c := m.peers[key.Rank]
	if c == nil {
		return sctp.ErrAborted
	}
	return c.TrySendMsg(key.Stream, ppid, data)
}

// Send implements rpi.RPI: same Option B/C writer lock as the
// one-to-many module, keyed by (peer, stream). The session layer
// retains a copy of every message until acknowledged; that copy is what
// gets queued, so it is the buffered-send completion point and onQueued
// fires here. While the session is down the message is retention-only.
func (m *Module) Send(dest int, env rpi.Envelope, body []byte, onQueued func()) {
	kept, up := m.sess.StampOut(dest, &env, body)
	m.CountSend(len(body))
	if onQueued != nil {
		onQueued()
	}
	if !up {
		return
	}
	key := rpi.MsgKey{Rank: dest, Stream: m.StreamFor(env.Context, env.Tag)}
	m.sender.Send(key, env, kept)
}

// Advance implements rpi.RPI: drain the readiness queue, pumping only
// the associations whose state changed. The pass cost stays charged
// over all Size-1 descriptors — the select() scan this ablation exists
// to keep — but the work done is proportional to ready events.
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

// tail runs every pass: flush writers with queued work (the per-pass
// flush the old scan loop did), and on a Notify kick service redial
// attempts that came due.
func (m *Module) tail(kicked bool) bool {
	progress := false
	if kicked {
		for r := range m.peers {
			if r != m.Rank && m.peers[r] == nil && m.sess.RedialDue(r) {
				m.redial(m.Proc(), r)
				progress = true
			}
		}
	}
	if m.sender.FlushActive() {
		progress = true
	}
	return progress
}

// pumpPeer drains one peer association to would-block, detecting
// abortive death and running a due redial for a downed slot.
func (m *Module) pumpPeer(p *sim.Proc, r int) bool {
	progress := false
	c := m.peers[r]
	for c != nil && m.peers[r] == c {
		msg, err := c.TryRecvMsg()
		if err != nil {
			if lost(err) {
				m.onConnDeath(r)
				progress = true
			}
			break
		}
		if m.handleInbound(p, r, msg) {
			progress = true
		}
		c.ReleaseMsg(msg)
	}
	if r != m.Rank && m.peers[r] == nil && m.sess.RedialDue(r) {
		m.redial(p, r)
		progress = true
	}
	return progress
}

// onConnDeath handles an abortive association loss: tear down per-peer
// middleware state and either start the recovery episode or, if a
// replacement association died before its handshake completed, charge
// a failed redial attempt.
func (m *Module) onConnDeath(r int) {
	m.dropPeer(r)
	if m.sess.MarkLost(r) {
		m.sess.ScheduleRedial(r)
	} else {
		m.sess.AttemptFailed(r)
	}
}

// dropPeer kills the association (idempotent when already dead) and
// discards all per-peer sender/reassembly state; retained messages
// replay on the replacement association.
func (m *Module) dropPeer(r int) {
	if c := m.peers[r]; c != nil {
		c.Kill()
		m.peers[r] = nil
	}
	m.sender.DropPeer(r)
	m.recv.Drop(int64(r))
}

// redial runs one redial attempt: claim budget (terminal error when
// exhausted), dial a fresh one-to-one socket blocking in process
// context, and open the KindReconnect handshake on it.
func (m *Module) redial(p *sim.Proc, r int) {
	if err := m.sess.BeginAttempt(r); err != nil {
		m.Fail(err)
		return
	}
	c, err := m.stack.DialConfig(p, m.opts.SCTP, m.addrs[r], m.opts.Port, m.streams)
	if err != nil {
		m.sess.AttemptFailed(r)
		return
	}
	m.sess.DialSucceeded(r)
	m.attach(r, c)
	m.sendHandshake(r, m.sess.ReconnectEnv(r))
}

// sendHandshake queues one recovery handshake envelope (stream 0,
// unsessioned) through the shared writer.
func (m *Module) sendHandshake(r int, env rpi.Envelope) {
	m.sender.Send(rpi.MsgKey{Rank: r, Stream: 0}, env, nil)
}

// replayGap queues the negotiated retention gap on the replacement
// association, each message on its original TRC stream. Replays bypass
// CountSend and the observer: the original send was already counted.
func (m *Module) replayGap(r int, gap []rpi.Retained) {
	for _, rt := range gap {
		key := rpi.MsgKey{Rank: r, Stream: m.StreamFor(rt.Env.Context, rt.Env.Tag)}
		m.sender.Send(key, rt.Env, rt.Body)
	}
}

// acceptPending pulls every completed inbound association off the
// listener onto the pending list. Undecided associations share one
// coalesced poller source; the synthetic post covers a first message
// that reached the socket queue before the hook registration.
func (m *Module) acceptPending() bool {
	progress := false
	for {
		c, err := m.listener.TryAccept()
		if err != nil {
			break
		}
		c.SetNotify(m.Poller().Hook(m.pendSrc))
		m.Poller().Post(m.pendSrc, transport.ReadyRecv)
		m.pending = append(m.pending, c)
		progress = true
	}
	return progress
}

// drainPending reads each undecided association's first message, which
// must announce the dialing rank: a KindHello during mesh bring-up
// (the pump-driven form of the accept loop) or a KindReconnect opening
// session recovery. Valid reconnects are adopted as the peer's
// replacement association (unless our own dial wins the collision
// tie-break); anything else is aborted.
func (m *Module) drainPending(p *sim.Proc) bool {
	progress := false
	kept := m.pending[:0]
	for _, c := range m.pending {
		msg, err := c.TryRecvMsg()
		if err != nil {
			if errors.Is(err, transport.ErrWouldBlock) {
				kept = append(kept, c)
			}
			continue // lost or closed before identifying itself: drop
		}
		progress = true
		env, derr := rpi.DecodeEnvelope(msg.Data)
		wire.PutBuf(msg.Data)
		c.ReleaseMsg(msg)
		r := int(env.Rank)
		if derr != nil || r < 0 || r >= m.Size || r == m.Rank {
			c.Abort()
			continue
		}
		if env.Kind == rpi.KindHello {
			// Mesh bring-up: a lower rank announcing its dialed
			// association. A hello for an occupied slot is stray.
			if r >= m.Rank || m.peers[r] != nil {
				c.Abort()
				continue
			}
			m.attach(r, c)
			m.markHello(r)
			continue
		}
		if env.Kind != rpi.KindReconnect {
			c.Abort()
			continue
		}
		if m.peers[r] != nil && m.sess.Get(r).State != rpi.SessUp && r > m.Rank {
			// Redial collision: both sides dialed, the lower rank's dial
			// wins, and that is ours — reject theirs.
			c.Abort()
			continue
		}
		if m.peers[r] != nil {
			// The peer noticed a loss we have not seen yet, or we lost
			// the collision tie-break: drop ours silently, adopt theirs.
			m.sess.MarkLost(r)
			m.dropPeer(r)
		}
		m.attach(r, c)
		ack, gap := m.sess.OnReconnect(r, env)
		m.sendHandshake(r, ack)
		m.replayGap(r, gap)
		m.sess.Resume(r)
		m.markHello(r)
	}
	m.pending = kept
	return progress
}

// handleInbound feeds one data message into the per-(peer, stream)
// reassembler and dispatches the result: recovery handshakes are
// handled here, everything else passes receiver-side session
// processing (retention pruning, duplicate suppression) before
// delivery.
func (m *Module) handleInbound(p *sim.Proc, rank int, msg *sctp.Message) bool {
	key := rpi.RecvKey{ID: int64(rank), Stream: msg.Stream}
	res, env, body := m.recv.Feed(key, msg.PPID, msg.Data)
	switch res {
	case rpi.FeedMessage:
		switch env.Kind {
		case rpi.KindReconnect:
			ack, gap := m.sess.OnReconnect(rank, env)
			m.sendHandshake(rank, ack)
			m.replayGap(rank, gap)
			m.sess.Resume(rank)
			return true
		case rpi.KindReconnectAck:
			m.replayGap(rank, m.sess.OnReconnectAck(rank, env))
			m.sess.Resume(rank)
			return true
		}
		if !m.sess.Accept(rank, &env) {
			if body != nil {
				wire.PutBuf(body)
			}
			return true
		}
		m.Complete(p, env, body)
		return true
	case rpi.FeedHello:
		return true // connection already identified at Init
	default:
		return false
	}
}

// KillSession implements the chaos harness's session-kill hook: destroy
// the association to peer silently (no ABORT chunk — as if the host
// vanished), in kernel context. Detection and recovery run later from
// the owning process's Advance.
func (m *Module) KillSession(peer int) {
	if c := m.peers[peer]; c != nil {
		c.Kill()
	}
}

// Finalize implements rpi.RPI: close every association and the
// listener; graceful SHUTDOWN proceeds in the background.
func (m *Module) Finalize(p *sim.Proc) {
	for _, c := range m.peers {
		if c != nil {
			c.Close()
		}
	}
	for _, c := range m.pending {
		c.Close()
	}
	if m.listener != nil {
		m.listener.Close()
	}
	if m.sess != nil {
		m.sess.Close()
	}
}

// Abort implements rpi.RPI: abortive teardown after a terminal error.
// Associations are aborted (peers fail fast on the ABORT chunk) and
// the listening socket is released so redials aimed at this rank are
// refused with an out-of-the-blue ABORT.
func (m *Module) Abort(p *sim.Proc) {
	for r, c := range m.peers {
		if c != nil {
			c.Abort()
			m.peers[r] = nil
		}
	}
	for _, c := range m.pending {
		c.Abort()
	}
	m.pending = nil
	if m.listener != nil {
		m.listener.Close()
	}
	if m.sess != nil {
		m.sess.Close()
	}
}
