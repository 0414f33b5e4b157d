// Package sctprpi is the paper's contribution: a request progression
// module over a single one-to-many SCTP socket per process.
//
//   - Associations map to ranks; streams map to (tag, context) so
//     messages with different TRCs deliver independently and
//     transport-level head-of-line blocking disappears (paper §3.1-3.2).
//   - No select(): the module retrieves whatever arrived with
//     sctp_recvmsg-style calls and demultiplexes on association then
//     stream (paper §3.3).
//   - Messages larger than the socket send buffer are split into
//     middleware-level chunks on one stream; a per-(peer, stream)
//     writer lock implements the paper's Option B fix for the long
//     message race (§3.4.2): no message may start on a stream while
//     another is partially written to it.
//   - Association setup ends with a barrier before any MPI traffic,
//     the paper's MPI_Init fix (§3.4.3).
//   - A single-stream mode reduces the module to one stream per
//     association for the Figure 12 head-of-line ablation.
//
// The progression machinery (counters, cost charging, the Advance
// loop, the Option B/C writer lock, chunk reassembly, session
// recovery) lives in the shared rpi.Engine/rpi.MsgSender/
// rpi.Reassembler/rpi.Sessions; this file is only the one-to-many
// socket binding. Because both endpoints keep fixed ports, a redial
// from the same socket restarts the dead association in place on the
// peer (RFC 4960 §5.2): the survivor sees NotifyRestart with the same
// association id rather than a fresh association.
package sctprpi

import (
	"repro/internal/mpi/rpi"
	"repro/internal/netsim"
	"repro/internal/sctp"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// DefaultPort is the one-to-many socket port.
const DefaultPort = 7002

// Options configures the module.
type Options struct {
	Port         uint16
	Cost         rpi.CostModel
	SCTP         sctp.Config
	SingleStream bool // Figure 12 ablation: ignore TRC, use stream 0
	// BodyChunk is the middleware chunk size for messages larger than
	// the transport send buffer. 0 derives it from the send buffer.
	BodyChunk int

	// OptionC enables the paper's §3.4.3 "Option C": control messages
	// (bodiless envelopes such as the rendezvous ACK) are tagged with a
	// distinct payload identifier and may be interleaved between the
	// body chunks of an in-progress long message on the same stream.
	// The receiver tells them apart by PPID, so the long-message race
	// cannot occur, and ACKs are never delayed behind bulk data — the
	// option the paper judged most concurrent but did not implement.
	// Off by default (the paper shipped Option B).
	OptionC bool

	// RedialBudget and DropReplayEvery configure the session recovery
	// layer (see rpi.SessionConfig).
	RedialBudget    int
	DropReplayEvery int
}

// Module is one process's SCTP RPI instance.
type Module struct {
	rpi.Engine
	stack   *sctp.Stack
	opts    Options
	addrs   [][]netsim.Addr // rank → all interface addresses (multihoming)
	barrier *rpi.Barrier

	sock        *sctp.Socket
	assocByRank []sctp.AssocID
	rankByAssoc map[sctp.AssocID]int
	streams     int
	classed     map[uint64]uint8 // (assoc, stream) → last stamped class
	sender      *rpi.MsgSender
	recv        *rpi.Reassembler
	sess        *rpi.Sessions
	helloSeen   []bool // peers confirmed during bring-up (distinct)
	hellos      int
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
		stack:       stack,
		opts:        opts,
		addrs:       addrs,
		barrier:     barrier,
		assocByRank: make([]sctp.AssocID, len(addrs)),
		rankByAssoc: make(map[sctp.AssocID]int),
		classed:     make(map[uint64]uint8),
	}
	m.SetupEngine(rank, len(addrs), opts.Cost)
	return m
}

// StreamFor exposes the TRC→stream mapping (for tests): messages with
// the same (context, tag) always share a stream; different TRCs spread
// across the pool.
func (m *Module) StreamFor(context, tag int32) uint16 {
	if m.opts.SingleStream {
		return 0
	}
	return rpi.StreamFor(m.streams, context, tag)
}

// Init implements rpi.RPI.
func (m *Module) Init(p *sim.Proc) error {
	m.BindProc(p)
	m.helloSeen = make([]bool, m.Size)
	m.sess = rpi.NewSessions(&m.Engine, p.Kernel(), m.Size, rpi.SessionConfig{
		RedialBudget:    m.opts.RedialBudget,
		DropReplayEvery: m.opts.DropReplayEvery,
	})
	sk, err := m.stack.SocketConfig(m.opts.Port, m.opts.SCTP)
	if err != nil {
		return err
	}
	m.sock = sk
	m.streams = sk.Config().Streams
	m.sender = rpi.NewMsgSender(
		rpi.DeriveBodyChunk(m.opts.BodyChunk, sk.Config().SndBuf),
		m.opts.OptionC, m.Counters(), m.trySend)
	m.recv = rpi.NewReassembler(m.Counters())
	sk.Listen()
	// One endpoint, one poller source: every association's readiness
	// multiplexes onto the shared one-to-many socket, which is exactly
	// the paper's no-select() point — the hook is registered before any
	// Connect, so no message can arrive ahead of it.
	src := m.Poller().Register(0)
	sk.SetNotify(m.Poller().Hook(src))
	dial := func(j int, hello rpi.Envelope) error {
		id, err := sk.Connect(p, m.addrs[j], m.opts.Port, m.streams)
		if err != nil {
			return err
		}
		m.assocByRank[j] = id
		m.rankByAssoc[id] = j
		return sk.SendMsg(p, id, 0, 0, hello.Encode())
	}
	// The paper's §3.4.3 barrier: wait until every peer is confirmed —
	// by its hello (acceptors learn the association→rank mapping from
	// it and reply) or, if a session kill hit the bring-up, by a
	// completed recovery handshake — then rendezvous globally so no
	// process starts MPI traffic before all associations exist. The
	// rendezvous itself keeps pumping (DriveUntil): a rank whose peer is
	// still redialing must answer the recovery handshake.
	accept := func() error {
		for m.hellos < m.Size-1 {
			if err := m.Advance(p, true); err != nil {
				return err
			}
		}
		return nil
	}
	wait := func(done func() bool) error {
		return m.DriveUntil(p, 1, done,
			func(tag int, ev transport.Ready) bool { return m.onEvent(p, ev) },
			m.tail)
	}
	return rpi.MeshInit(p, m.barrier, m.Rank, m.Size, dial, accept, m.Notify, wait)
}

// markHello records that peer r is confirmed for the bring-up barrier:
// its hello arrived, or a recovery handshake completed with it (the
// hello's liveness-plus-mapping proof, for sessions killed mid-init —
// hellos are unsessioned and never replayed, so the handshake must
// stand in for a lost one).
func (m *Module) markHello(r int) {
	if r >= 0 && r < m.Size && r != m.Rank && !m.helloSeen[r] {
		m.helloSeen[r] = true
		m.hellos++
	}
}

func (m *Module) trySend(key rpi.MsgKey, ppid uint32, data []byte) error {
	id := m.assocByRank[key.Rank]
	if id == 0 {
		return sctp.ErrAborted
	}
	return m.sock.TrySendMsg(id, key.Stream, ppid, data)
}

// Send implements rpi.RPI: pick the stream from the envelope's TRC and
// queue behind any in-progress message on that (peer, stream). Under
// Option C, bodiless control messages (ACKs) bypass the queue and are
// interleaved between body chunks, distinguished on the wire by PPID.
// The session layer retains a copy of every message until acknowledged;
// that copy is what gets queued, so it is the buffered-send completion
// point and onQueued fires here. While the session is down the message
// is retention-only.
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
	m.stampClass(key, env.Kind)
	m.sender.Send(key, env, kept)
}

// stampClass tells a chunk-interleaving transport scheduler what this
// stream is about to carry: the priority class (or weighted share)
// derived from the message kind. Stamps are cached per (association,
// stream) and re-applied automatically after a redial, because the
// replacement association has a different id. On legacy or FIFO/RR
// associations the socket calls are no-ops, so this costs one map probe.
func (m *Module) stampClass(key rpi.MsgKey, kind rpi.Kind) {
	sched := m.opts.SCTP.Scheduler
	if !m.opts.SCTP.IData ||
		(sched != sctp.SchedPriority && sched != sctp.SchedWeightedFair) {
		return
	}
	id := m.assocByRank[key.Rank]
	if id == 0 {
		return
	}
	class := rpi.ClassFor(kind)
	ck := uint64(id)<<16 | uint64(key.Stream)
	if prev, ok := m.classed[ck]; ok && prev == class {
		return
	}
	m.classed[ck] = class
	if sched == sctp.SchedPriority {
		_ = m.sock.SetStreamPriority(id, key.Stream, class)
	} else {
		_ = m.sock.SetStreamWeight(id, key.Stream, rpi.WeightFor(class))
	}
}

// Advance implements rpi.RPI: drain the one-to-many socket when its
// readiness edge fires (no select; messages arrive in network order
// and are demultiplexed on association then stream) and flush writers.
// The poll cost covers a single descriptor regardless of world size.
func (m *Module) Advance(p *sim.Proc, block bool) error {
	return m.Drive(p, block, 1,
		func(tag int, ev transport.Ready) bool { return m.onEvent(p, ev) },
		m.tail)
}

// onEvent is the socket's readiness handler: edge-triggered, so it
// drains the receive queue to would-block and flushes every writer
// with queued work (a ReadySend edge means SACKs freed buffer space).
func (m *Module) onEvent(p *sim.Proc, ev transport.Ready) bool {
	progress := false
	for {
		msg, err := m.sock.TryRecvMsg()
		if err != nil {
			break
		}
		if m.handleInbound(p, msg) {
			progress = true
		}
		m.sock.ReleaseMsg(msg)
	}
	if m.sender.FlushActive() {
		progress = true
	}
	return progress
}

// tail services the time-driven recovery state on a Notify kick: redial
// attempts that came due.
func (m *Module) tail(kicked bool) bool {
	if !kicked {
		return false
	}
	progress := false
	for r := 0; r < m.Size; r++ {
		if r != m.Rank && m.assocByRank[r] == 0 && m.sess.RedialDue(r) {
			m.redial(m.Proc(), r)
			progress = true
		}
	}
	return progress
}

// redial runs one redial attempt: claim budget (terminal error when
// exhausted), reconnect from the same one-to-many socket blocking in
// process context (on the peer this restarts the association in
// place), and open the KindReconnect handshake.
func (m *Module) redial(p *sim.Proc, r int) {
	if err := m.sess.BeginAttempt(r); err != nil {
		m.Fail(err)
		return
	}
	id, err := m.sock.Connect(p, m.addrs[r], m.opts.Port, m.streams)
	if err != nil {
		m.sess.AttemptFailed(r)
		return
	}
	m.sess.DialSucceeded(r)
	m.assocByRank[r] = id
	m.rankByAssoc[id] = r
	m.sendHandshake(r, m.sess.ReconnectEnv(r))
}

// sendHandshake queues one recovery handshake envelope (stream 0,
// unsessioned) through the shared writer.
func (m *Module) sendHandshake(r int, env rpi.Envelope) {
	key := rpi.MsgKey{Rank: r, Stream: 0}
	m.stampClass(key, env.Kind)
	m.sender.Send(key, env, nil)
}

// replayGap queues the negotiated retention gap, each message on its
// original TRC stream. Replays bypass CountSend and the observer: the
// original send was already counted.
func (m *Module) replayGap(r int, gap []rpi.Retained) {
	for _, rt := range gap {
		key := rpi.MsgKey{Rank: r, Stream: m.StreamFor(rt.Env.Context, rt.Env.Tag)}
		m.stampClass(key, rt.Env.Kind)
		m.sender.Send(key, rt.Env, rt.Body)
	}
}

// onAssocLost handles an abortive association loss (NotifyCommLost):
// tear down per-peer state and either start the recovery episode or,
// if a replacement association died before its handshake completed,
// charge a failed redial attempt.
func (m *Module) onAssocLost(id sctp.AssocID) {
	r, ok := m.rankByAssoc[id]
	if !ok {
		return
	}
	delete(m.rankByAssoc, id)
	m.assocByRank[r] = 0
	m.sender.DropPeer(r)
	m.recv.Drop(int64(id))
	if m.sess.MarkLost(r) {
		m.sess.ScheduleRedial(r)
	} else {
		m.sess.AttemptFailed(r)
	}
}

// onAssocRestart handles an in-place association restart
// (NotifyRestart, RFC 4960 §5.2): the peer redialed us after losing
// its half of the association. Same association id, but all transfer
// state reset — so partial reassembly and queued output are garbage.
// The session goes Suspect and waits for the peer's KindReconnect (no
// redial from this side: the peer brought the replacement session).
func (m *Module) onAssocRestart(id sctp.AssocID) {
	r, ok := m.rankByAssoc[id]
	if !ok {
		return
	}
	m.sender.DropPeer(r)
	m.recv.Drop(int64(id))
	m.sess.MarkLost(r)
}

// adoptAssoc binds rank r to association id, retiring any previous
// association (an implicit loss if we had not noticed it yet).
func (m *Module) adoptAssoc(r int, id sctp.AssocID) {
	old := m.assocByRank[r]
	if old == id {
		return
	}
	if old != 0 {
		m.sess.MarkLost(r)
		m.sender.DropPeer(r)
		m.recv.Drop(int64(old))
		delete(m.rankByAssoc, old)
		_ = m.sock.KillAssoc(old)
	}
	m.assocByRank[r] = id
	m.rankByAssoc[id] = r
}

// handleInbound processes one socket message: notification, hello,
// recovery handshake, envelope, or body chunk. Returns whether
// middleware-visible progress happened.
func (m *Module) handleInbound(p *sim.Proc, msg *sctp.Message) bool {
	if msg.Notification != sctp.NotifyNone {
		switch msg.Notification {
		case sctp.NotifyCommUp:
			m.Counters().Add("assocs_up", 1)
		case sctp.NotifyCommLost:
			m.Counters().Add("assocs_lost", 1)
			m.onAssocLost(msg.Assoc)
			return true
		case sctp.NotifyRestart:
			m.Counters().Add("assocs_restarted", 1)
			m.onAssocRestart(msg.Assoc)
			return true
		case sctp.NotifyShutdownComplete:
			m.Counters().Add("assocs_closed", 1)
		}
		return false
	}
	key := rpi.RecvKey{ID: int64(msg.Assoc), Stream: msg.Stream}
	res, env, body := m.recv.Feed(key, msg.PPID, msg.Data)
	switch res {
	case rpi.FeedMessage:
		// Every middleware envelope carries the sender's world rank, so
		// an association the mapping does not know yet (a fresh inbound
		// replacement, whose data can overtake its KindReconnect on
		// another stream) still routes correctly.
		r, known := m.rankByAssoc[msg.Assoc]
		if !known {
			r = int(env.Rank)
			if r < 0 || r >= m.Size || r == m.Rank {
				if body != nil {
					wire.PutBuf(body)
				}
				return true
			}
		}
		switch env.Kind {
		case rpi.KindReconnect:
			m.adoptAssoc(r, msg.Assoc)
			ack, gap := m.sess.OnReconnect(r, env)
			m.sendHandshake(r, ack)
			m.replayGap(r, gap)
			m.sess.Resume(r)
			m.markHello(r)
			return true
		case rpi.KindReconnectAck:
			m.adoptAssoc(r, msg.Assoc)
			m.replayGap(r, m.sess.OnReconnectAck(r, env))
			m.sess.Resume(r)
			m.markHello(r)
			return true
		}
		if !known {
			m.adoptAssoc(r, msg.Assoc)
		}
		if !m.sess.Accept(r, &env) {
			if body != nil {
				wire.PutBuf(body)
			}
			return true
		}
		m.Complete(p, env, body)
		return true
	case rpi.FeedHello:
		r := int(env.Rank)
		if r < 0 || r >= m.Size || r == m.Rank {
			return true
		}
		if m.assocByRank[r] == 0 {
			// We are the acceptor: learn the mapping and reply.
			m.assocByRank[r] = msg.Assoc
			m.rankByAssoc[msg.Assoc] = r
			reply := rpi.Envelope{Kind: rpi.KindHello, Rank: int32(m.Rank)}
			if err := m.sock.SendMsg(p, msg.Assoc, 0, 0, reply.Encode()); err != nil {
				m.Counters().Add("send_errors", 1)
			}
		}
		m.markHello(r)
		return true
	default:
		return false
	}
}

// KillSession implements the chaos harness's session-kill hook: destroy
// the association to peer silently (no ABORT chunk — as if the host
// vanished), in kernel context. Detection and recovery run later from
// the owning process's Advance.
func (m *Module) KillSession(peer int) {
	if id := m.assocByRank[peer]; id != 0 {
		_ = m.sock.KillAssoc(id)
	}
}

// Finalize implements rpi.RPI: close the socket; graceful SHUTDOWN of
// every association proceeds in the background.
func (m *Module) Finalize(p *sim.Proc) {
	if m.sock != nil {
		m.sock.Close()
	}
	if m.sess != nil {
		m.sess.Close()
	}
}

// Abort implements rpi.RPI: abortive teardown after a terminal error.
// Every association is aborted (peers fail fast on the ABORT chunk)
// and the socket released, so redials aimed at this rank are refused
// with an out-of-the-blue ABORT instead of hanging.
func (m *Module) Abort(p *sim.Proc) {
	if m.sock == nil {
		return
	}
	for r, id := range m.assocByRank {
		if id != 0 {
			_ = m.sock.Abort(id, "job aborted")
			m.assocByRank[r] = 0
		}
	}
	m.sock.Close()
	m.sess.Close()
}
