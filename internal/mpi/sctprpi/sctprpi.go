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
//   - A pool of one stream (sctp.Config.Streams = 1) reduces the module
//     to one stream per association for the Figure 12 head-of-line
//     ablation.
//
// Connection management (bring-up, session recovery) is the shared
// rpi.Base skeleton; this file is only the one-to-many socket binding:
// the association ↔ rank mapping, SCTP notifications, and stream class
// stamping, writing through the Option B/C rpi.MsgSender and reading
// through the per-stream rpi.Reassembler. Because both endpoints keep
// fixed ports, a redial from the same socket restarts the dead
// association in place on the peer (RFC 4960 §5.2): the survivor sees
// NotifyRestart with the same association id rather than a fresh
// association.
package sctprpi

import (
	"repro/internal/mpi/rpi"
	"repro/internal/netsim"
	"repro/internal/sctp"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Port is the one-to-many socket port.
const Port = 7002

// Options configures the module.
type Options struct {
	Cost rpi.CostModel

	// OptionC enables the paper's §3.4.3 "Option C": control messages
	// (bodiless envelopes such as the rendezvous ACK) are tagged with a
	// distinct payload identifier and may be interleaved between the
	// body chunks of an in-progress long message on the same stream.
	// The receiver tells them apart by PPID, so the long-message race
	// cannot occur, and ACKs are never delayed behind bulk data — the
	// option the paper judged most concurrent but did not implement.
	// Off by default (the paper shipped Option B).
	OptionC bool

	Session rpi.SessionConfig
}

// Module is one process's SCTP RPI instance.
type Module struct {
	rpi.Base
	stack *sctp.Stack
	opts  Options
	addrs [][]netsim.Addr // rank → all interface addresses (multihoming)

	sock        *sctp.Socket
	assocByRank []sctp.AssocID
	rankByAssoc map[sctp.AssocID]int
	streams     int
	sched       sctp.SchedPolicy // the I-DATA scheduler to stamp classes for, or SchedFIFO
	sender      *rpi.MsgSender
	recv        *rpi.Reassembler
}

// New builds the module for one rank. Its socket uses the stack's
// config (Streams = 1 is the Figure 12 single-stream ablation). addrs
// maps each world rank to its full interface list (index 0 = primary);
// barrier must be shared by all ranks.
func New(stack *sctp.Stack, rank int, addrs [][]netsim.Addr, barrier *rpi.Barrier, opts Options) *Module {
	m := &Module{
		stack:       stack,
		opts:        opts,
		addrs:       addrs,
		assocByRank: make([]sctp.AssocID, len(addrs)),
		rankByAssoc: make(map[sctp.AssocID]int),
	}
	m.Setup(rank, len(addrs), opts.Cost, opts.Session, barrier)
	return m
}

// StreamFor exposes the TRC→stream mapping (for tests): messages with
// the same (context, tag) always share a stream; different TRCs spread
// across the pool.
func (m *Module) StreamFor(context, tag int32) uint16 {
	return rpi.StreamFor(m.streams, context, tag)
}

// Init implements rpi.RPI. Bring-up waits for every peer's hello
// (acceptors learn the association → rank mapping from it and reply)
// or, if a session kill hit the bring-up, a completed recovery
// handshake. The poll pass is charged for a single descriptor
// regardless of world size.
func (m *Module) Init(p *sim.Proc) error {
	m.Bind(p, m, 1, m.Size, m.onEvent, nil)
	sk, err := m.stack.Socket(Port)
	if err != nil {
		return err
	}
	m.sock = sk
	cfg := sk.Config()
	m.streams = cfg.Streams
	if cfg.IData {
		m.sched = cfg.Scheduler
	}
	m.sender = rpi.NewMsgSender(rpi.DeriveBodyChunk(cfg.SndBuf),
		m.opts.OptionC, m.Counters(), m.trySend)
	m.recv = rpi.NewReassembler(m.Counters())
	sk.Listen()
	// One endpoint, one poller source: every association's readiness
	// multiplexes onto the shared one-to-many socket, which is exactly
	// the paper's no-select() point — the hook is registered before any
	// Connect, so no message can arrive ahead of it.
	sk.SetNotify(m.Poller().Hook(m.Poller().Register(0)))
	return m.BringUp(p, func(j int, hello rpi.Envelope) error {
		if err := m.Dial(p, j); err != nil {
			return err
		}
		return sk.SendMsg(p, m.assocByRank[j], 0, 0, hello.Encode())
	})
}

// Up implements rpi.Link.
func (m *Module) Up(r int) bool { return m.assocByRank[r] != 0 }

// Dial implements rpi.Link: connect from the one-to-many socket (on a
// peer that lost its half, this restarts the association in place).
func (m *Module) Dial(p *sim.Proc, r int) error {
	id, err := m.sock.Connect(p, m.addrs[r], Port, m.streams)
	if err == nil {
		m.assocByRank[r] = id
		m.rankByAssoc[id] = r
	}
	return err
}

// Queue implements rpi.Link: pick the stream from the envelope's TRC,
// stamp its class, and queue behind any in-progress message on that
// (peer, stream). Under Option C, bodiless control messages (ACKs)
// bypass the queue and are interleaved between body chunks,
// distinguished on the wire by PPID.
func (m *Module) Queue(r int, env rpi.Envelope, body *rpi.Kept) {
	key := rpi.MsgKey{Rank: r, Stream: m.StreamFor(env.Context, env.Tag)}
	m.stampClass(key, env.Kind)
	m.sender.Send(key, env, body)
}

// Flush implements rpi.Link; the writer flushes as it queues.
func (m *Module) Flush(int) {}

func (m *Module) trySend(key rpi.MsgKey, ppid uint32, data []byte) error {
	id := m.assocByRank[key.Rank]
	if id == 0 {
		return sctp.ErrAborted
	}
	return m.sock.TrySendMsg(id, key.Stream, ppid, data)
}

// stampClass tells a chunk-interleaving transport scheduler what this
// stream is about to carry: the priority class (or weighted share)
// derived from the message kind. Every message stamps again: the calls
// are O(1) and idempotent, and an in-place restart (RFC 4960 §5.2)
// resets the association's stream schedule while keeping its id, so a
// cache keyed by association id would go stale on the surviving side.
// On legacy or FIFO/RR associations nothing is stamped.
func (m *Module) stampClass(key rpi.MsgKey, kind rpi.Kind) {
	switch m.sched {
	case sctp.SchedPriority:
		_ = m.sock.SetStreamPriority(m.assocByRank[key.Rank], key.Stream, rpi.ClassFor(kind))
	case sctp.SchedWeightedFair:
		_ = m.sock.SetStreamWeight(m.assocByRank[key.Rank], key.Stream, rpi.WeightFor(rpi.ClassFor(kind)))
	}
}

// onEvent is the socket's readiness handler: edge-triggered, so it
// drains the receive queue to would-block (messages arrive in network
// order and are demultiplexed on association then stream) and flushes
// every writer with queued work (a ReadySend edge means SACKs freed
// buffer space).
func (m *Module) onEvent(int, transport.Ready) bool {
	progress := false
	for {
		msg, err := m.sock.TryRecvMsg()
		if err != nil {
			break
		}
		if m.handleInbound(msg) {
			progress = true
		}
		m.sock.ReleaseMsg(msg)
	}
	if m.sender.FlushActive() {
		progress = true
	}
	return progress
}

// clear discards the per-peer writer and reassembly state of rank r's
// association id: partial output and reassembly are garbage once the
// association dies or restarts, and retained messages replay.
func (m *Module) clear(r int, id sctp.AssocID) {
	m.sender.DropPeer(r)
	m.recv.Drop(int64(id))
}

// onAssocLost handles an abortive association loss (NotifyCommLost).
func (m *Module) onAssocLost(id sctp.AssocID) {
	r, ok := m.rankByAssoc[id]
	if !ok {
		return
	}
	delete(m.rankByAssoc, id)
	m.assocByRank[r] = 0
	m.clear(r, id)
	m.SessionLost(r)
}

// onAssocRestart handles an in-place association restart
// (NotifyRestart, RFC 4960 §5.2): the peer redialed us after losing
// its half of the association. Same association id, but all transfer
// state reset. The session goes Suspect and waits for the peer's
// KindReconnect (no redial from this side: the peer brought the
// replacement session).
func (m *Module) onAssocRestart(id sctp.AssocID) {
	r, ok := m.rankByAssoc[id]
	if !ok {
		return
	}
	m.clear(r, id)
	m.Sess.MarkLost(r)
}

// adoptAssoc binds rank r to association id, retiring any previous
// association (an implicit loss if we had not noticed it yet).
func (m *Module) adoptAssoc(r int, id sctp.AssocID) {
	old := m.assocByRank[r]
	if old == id {
		return
	}
	if old != 0 {
		m.Sess.MarkLost(r)
		m.clear(r, old)
		delete(m.rankByAssoc, old)
		_ = m.sock.KillAssoc(old)
	}
	m.assocByRank[r] = id
	m.rankByAssoc[id] = r
}

// handleInbound processes one socket message: notification, hello,
// recovery handshake, envelope, or body chunk. Returns whether
// middleware-visible progress happened.
func (m *Module) handleInbound(msg *sctp.Message) bool {
	switch msg.Notification {
	case sctp.NotifyNone:
	case sctp.NotifyCommUp:
		m.Counters().Add("assocs_up", 1)
		return false
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
		return false
	default:
		return false
	}
	res, env, body := m.recv.Feed(rpi.RecvKey{ID: int64(msg.Assoc), Stream: msg.Stream}, msg.PPID, msg.Data)
	switch res {
	case rpi.FeedMessage:
		// Every middleware envelope carries the sender's world rank, so
		// an association the mapping does not know yet (a fresh inbound
		// replacement, whose data can overtake its KindReconnect on
		// another stream) still routes correctly.
		r, known := m.rankByAssoc[msg.Assoc]
		if !known {
			r = int(env.Rank)
			if !m.IsPeer(r) {
				wire.PutBuf(body)
				return true
			}
		}
		if !known || env.Kind == rpi.KindReconnect || env.Kind == rpi.KindReconnectAck {
			m.adoptAssoc(r, msg.Assoc)
		}
		m.Deliver(r, env, body)
		return true
	case rpi.FeedHello:
		r := int(env.Rank)
		if !m.IsPeer(r) {
			return true
		}
		if m.assocByRank[r] == 0 {
			// We are the acceptor: learn the mapping and reply.
			m.assocByRank[r] = msg.Assoc
			m.rankByAssoc[msg.Assoc] = r
			reply := rpi.Envelope{Kind: rpi.KindHello, Rank: int32(m.Rank)}
			if err := m.sock.SendMsg(m.Proc(), msg.Assoc, 0, 0, reply.Encode()); err != nil {
				m.Counters().Add("send_errors", 1)
			}
		}
		m.MarkHello(r)
		return true
	}
	return false
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
func (m *Module) Finalize(*sim.Proc) {
	if m.sock != nil {
		m.sock.Close()
	}
	if m.Sess != nil {
		m.Sess.Close()
	}
}

// Abort implements rpi.RPI: abortive teardown after a terminal error.
// Every association is aborted (peers fail fast on the ABORT chunk)
// and the socket released, so redials aimed at this rank are refused
// with an out-of-the-blue ABORT instead of hanging.
func (m *Module) Abort(*sim.Proc) {
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
	m.Sess.Close()
}
