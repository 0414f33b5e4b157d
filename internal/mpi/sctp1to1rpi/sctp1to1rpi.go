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
// Connection management (mesh bring-up, session recovery, the redial
// collision tie-break) is the shared rpi.PeerMesh skeleton, as in the
// TCP module; this file is only the one-to-one socket binding: how it
// dials and listens, writes through the Option B/C rpi.MsgSender, and
// reads through the per-stream rpi.Reassembler. A dead association is
// redialed as a fresh one-to-one socket.
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

// Port is the mesh listener port.
const Port = 7003

// Options configures the module.
type Options struct {
	Cost rpi.CostModel
	// OptionC interleaves bodiless control envelopes between body
	// chunks, distinguished by PPID (see sctprpi.Options).
	OptionC bool
	Session rpi.SessionConfig
}

// Module is one process's one-to-one SCTP RPI instance.
type Module struct {
	rpi.PeerMesh[*sctp.Conn]
	stack   *sctp.Stack
	opts    Options
	addrs   [][]netsim.Addr // rank → all interface addresses (multihoming)
	streams int
	sender  *rpi.MsgSender
	recv    *rpi.Reassembler
}

// New builds the module for one rank. Its associations use the stack's
// config (Streams = 1 is the single-stream ablation). addrs maps each
// world rank to its full interface list (index 0 = primary); barrier
// must be shared by all ranks.
func New(stack *sctp.Stack, rank int, addrs [][]netsim.Addr, barrier *rpi.Barrier, opts Options) *Module {
	m := &Module{stack: stack, opts: opts, addrs: addrs}
	m.Setup(rank, len(addrs), opts.Cost, opts.Session, barrier)
	return m
}

// StreamFor exposes the TRC→stream mapping (for tests): same hash as
// the one-to-many module, applied per-peer association.
func (m *Module) StreamFor(context, tag int32) uint16 {
	return rpi.StreamFor(m.streams, context, tag)
}

// Init implements rpi.RPI. Writers with queued work flush at the end
// of every poll pass.
func (m *Module) Init(p *sim.Proc) error {
	l, err := m.stack.ListenOneToOne(Port)
	if err != nil {
		return err
	}
	m.streams = l.Config().Streams
	m.sender = rpi.NewMsgSender(rpi.DeriveBodyChunk(l.Config().SndBuf),
		m.opts.OptionC, m.Counters(), m.trySend)
	m.recv = rpi.NewReassembler(m.Counters())
	return m.Open(p, m, l, m.sender.FlushActive)
}

// Connect implements rpi.PeerLink.
func (m *Module) Connect(p *sim.Proc, r int) (*sctp.Conn, error) {
	return m.stack.Dial(p, m.addrs[r], Port, m.streams)
}

// Hello implements rpi.PeerLink.
func (m *Module) Hello(p *sim.Proc, c *sctp.Conn, hello rpi.Envelope) error {
	return c.SendMsg(p, 0, hello.Encode())
}

// Queue implements rpi.Link: the same Option B/C writer lock as the
// one-to-many module, keyed by (peer, stream).
func (m *Module) Queue(r int, env rpi.Envelope, body *rpi.Kept) {
	m.sender.Send(rpi.MsgKey{Rank: r, Stream: m.StreamFor(env.Context, env.Tag)}, env, body)
}

// Flush implements rpi.Link; the writer flushes as it queues.
func (m *Module) Flush(int) {}

func (m *Module) trySend(key rpi.MsgKey, ppid uint32, data []byte) error {
	c := m.Conn(key.Rank)
	if c == nil {
		return sctp.ErrAborted
	}
	return c.TrySendMsg(key.Stream, ppid, data)
}

// Pump implements rpi.PeerLink: drain the association to would-block
// through the per-(peer, stream) reassembler.
func (m *Module) Pump(r int, c *sctp.Conn) (bool, error) {
	progress := false
	for {
		msg, err := c.TryRecvMsg()
		if err != nil {
			return progress, err
		}
		res, env, body := m.recv.Feed(rpi.RecvKey{ID: int64(r), Stream: msg.Stream}, msg.PPID, msg.Data)
		switch res {
		case rpi.FeedMessage:
			m.Deliver(r, env, body)
			progress = true
		case rpi.FeedHello: // the association was identified when accepted
			progress = true
		}
		c.ReleaseMsg(msg)
	}
}

// ReadPending implements rpi.PeerLink: an undecided association's first
// message is its identifying envelope.
func (m *Module) ReadPending(pc *rpi.Pending[*sctp.Conn]) (bool, bool) {
	msg, err := pc.Conn.TryRecvMsg()
	if err != nil {
		return false, !errors.Is(err, transport.ErrWouldBlock)
	}
	env, derr := rpi.DecodeEnvelope(msg.Data)
	wire.PutBuf(msg.Data)
	pc.Conn.ReleaseMsg(msg)
	if derr != nil {
		env.Rank = -1 // undecodable: rejected
	}
	m.Identify(pc, env, nil)
	return true, false
}

// Clear implements rpi.PeerLink.
func (m *Module) Clear(r int) {
	m.sender.DropPeer(r)
	m.recv.Drop(int64(r))
}

// Reset implements rpi.PeerLink.
func (m *Module) Reset(c *sctp.Conn) { c.Abort() }
