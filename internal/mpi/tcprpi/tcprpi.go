// Package tcprpi is the LAM-TCP analogue: a request progression module
// that keeps one TCP connection per peer process (a full mesh built at
// MPI_Init), polls all sockets select()-style with a cost linear in the
// descriptor count, and reads envelopes and bodies out of each byte
// stream with a per-socket framing state machine. Because each peer
// pair shares a single ordered byte stream, a lost segment blocks every
// later message from that peer — the transport-level head-of-line
// blocking the paper's SCTP module removes.
//
// Connection management (mesh bring-up, session recovery, the redial
// collision tie-break) is the shared rpi.PeerMesh skeleton; this file is
// only the TCP byte-stream binding: how it dials and listens, writes
// through a partial-write OutQueue, and reads through a StreamFramer.
package tcprpi

import (
	"repro/internal/mpi/rpi"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// Port is the mesh listener port.
const Port = 7001

// Options configures the module.
type Options struct {
	Cost    rpi.CostModel
	Session rpi.SessionConfig
}

// Module is one process's TCP RPI instance.
type Module struct {
	rpi.PeerMesh[*tcp.Conn]
	stack *tcp.Stack
	addrs []netsim.Addr // rank → primary address
	peers []peer
}

// peer is one connection's byte-stream state, kept across replacement
// connections and cleared when one dies.
type peer struct {
	out rpi.OutQueue
	in  rpi.StreamFramer
}

// New builds the module for one rank. Its connections use the stack's
// config (the core facade turns NoDelay on, the LAM default). addrs
// maps world rank to primary address; barrier must be shared by all
// ranks in the job.
func New(stack *tcp.Stack, rank int, addrs []netsim.Addr, barrier *rpi.Barrier, opts Options) *Module {
	m := &Module{stack: stack, addrs: addrs, peers: make([]peer, len(addrs))}
	m.Setup(rank, len(addrs), opts.Cost, opts.Session, barrier)
	return m
}

// Init implements rpi.RPI.
func (m *Module) Init(p *sim.Proc) error {
	l, err := m.stack.Listen(Port)
	if err != nil {
		return err
	}
	return m.Open(p, m, l, nil)
}

// Connect implements rpi.PeerLink.
func (m *Module) Connect(p *sim.Proc, r int) (*tcp.Conn, error) {
	return m.stack.Connect(p, m.addrs[r], Port)
}

// Hello implements rpi.PeerLink.
func (m *Module) Hello(p *sim.Proc, c *tcp.Conn, hello rpi.Envelope) error {
	_, err := c.Write(p, hello.Encode())
	return err
}

// Queue implements rpi.Link.
func (m *Module) Queue(r int, env rpi.Envelope, body *rpi.Kept) { m.peers[r].out.Push(env, body) }

// Flush implements rpi.Link. Everything queued since the last flush
// goes out in one pass, so a recovery handshake and its replay gap share
// TCP segments.
func (m *Module) Flush(r int) { m.peers[r].out.Flush(m.Conn(r).TryWrite, m.sendError) }

func (m *Module) sendError(error) { m.Counters().Add("send_errors", 1) }

func (m *Module) frameError() { m.Counters().Add("frame_errors", 1) }

// Pump implements rpi.PeerLink: flush the write queue, then drain the
// framing reader.
func (m *Module) Pump(r int, c *tcp.Conn) (bool, error) {
	pe := &m.peers[r]
	progress := pe.out.Pending() && pe.out.Flush(c.TryWrite, m.sendError) > 0
	if pe.in.Drain(c, func(env rpi.Envelope, body []byte) { m.Deliver(r, env, body) }, m.frameError) {
		progress = true
	}
	return progress, c.Err()
}

// ReadPending implements rpi.PeerLink. An adopted connection's framer,
// with any bytes it already buffered past the handshake, moves to the
// peer slot.
func (m *Module) ReadPending(pc *rpi.Pending[*tcp.Conn]) (bool, bool) {
	progress := pc.In.Drain(pc.Conn, func(env rpi.Envelope, body []byte) { m.Identify(pc, env, body) }, m.frameError)
	if r := pc.Adopted(); r >= 0 {
		m.peers[r].in = pc.In
	}
	return progress, pc.Conn.Err() != nil
}

// Clear implements rpi.PeerLink.
func (m *Module) Clear(r int) {
	m.peers[r].out.Reset()
	m.peers[r].in.Reset()
}

// Reset implements rpi.PeerLink.
func (m *Module) Reset(c *tcp.Conn) { c.Reset() }
