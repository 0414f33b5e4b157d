// Package rpi defines the contract between the MPI middleware and its
// request-progression-interface (RPI) modules, mirroring LAM's RPI
// layer: the middleware posts sends and progresses requests; the RPI
// moves envelopes and bodies over a transport and delivers inbound
// traffic back to the middleware.
package rpi

import (
	"encoding/binary"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// Kind enumerates middleware message kinds carried in envelope flags
// (the LAM envelope "flags" field, §2.2.2 of the paper).
type Kind uint8

// Envelope kinds.
const (
	KindShort        Kind = iota // eager short message: body follows
	KindSync                     // eager synchronous short: body follows, ACK expected
	KindSyncAck                  // completes a synchronous send
	KindLongReq                  // rendezvous request: no body, Length = full size
	KindLongAck                  // receiver ready: sender may transmit the body
	KindLongBody                 // rendezvous body: body follows
	KindHello                    // RPI-internal: connection setup barrier
	KindReconnect                // RPI-internal: session recovery handshake (carries SEpoch/SAck)
	KindReconnectAck             // RPI-internal: completes a recovery handshake
)

// HasBody reports whether a message of this kind carries a body on the
// wire. KindLongReq advertises its Length for matching, but the body
// only travels later as KindLongBody.
func (k Kind) HasBody() bool {
	return k == KindShort || k == KindSync || k == KindLongBody
}

func (k Kind) String() string {
	switch k {
	case KindShort:
		return "short"
	case KindSync:
		return "sync"
	case KindSyncAck:
		return "syncack"
	case KindLongReq:
		return "longreq"
	case KindLongAck:
		return "longack"
	case KindLongBody:
		return "longbody"
	case KindHello:
		return "hello"
	case KindReconnect:
		return "reconnect"
	case KindReconnectAck:
		return "reconnectack"
	}
	return "?"
}

// Envelope precedes every message body (Figure 2 of the paper). Rank is
// always a world rank; communicator rank translation happens in the
// middleware.
type Envelope struct {
	Length  int    // body length in bytes
	Tag     int32  // message tag
	Context int32  // communicator context id
	Rank    int32  // world rank of the sender
	Kind    Kind   // message kind (LAM's flags field)
	Seq     uint64 // sender-local sequence number; ACKs echo it

	// Session-recovery fields, managed by the per-peer session layer
	// inside each module (the middleware and the Observe boundary never
	// see them set). SSeq is the per-peer dense message sequence number
	// (1-based; 0 marks unsessioned control traffic such as hellos and
	// the recovery handshake itself). SAck piggybacks the sender's
	// last-delivered-in-order SSeq for this peer, pruning the peer's
	// retention. SEpoch counts recovery handshakes on this peering; on
	// KindReconnect/KindReconnectAck, SAck carries the cumulative
	// delivered seq the replay negotiates from.
	SSeq   uint64
	SAck   uint64
	SEpoch uint32
}

// EnvelopeSize is the fixed wire size of an encoded envelope.
const EnvelopeSize = 48

// Encode serializes the envelope into a new slice.
func (e *Envelope) Encode() []byte {
	var b [EnvelopeSize]byte
	e.EncodeTo(&b)
	return b[:]
}

// EncodeTo serializes the envelope into b, the allocation-free form the
// transmit queues use.
func (e *Envelope) EncodeTo(b *[EnvelopeSize]byte) {
	be := binary.BigEndian
	be.PutUint32(b[0:], uint32(e.Length))
	be.PutUint32(b[4:], uint32(e.Tag))
	be.PutUint32(b[8:], uint32(e.Context))
	be.PutUint32(b[12:], uint32(e.Rank))
	be.PutUint32(b[16:], uint32(e.Kind))
	be.PutUint64(b[20:], e.Seq)
	be.PutUint64(b[28:], e.SSeq)
	be.PutUint64(b[36:], e.SAck)
	be.PutUint32(b[44:], e.SEpoch)
}

// DecodeEnvelope parses an envelope from b.
func DecodeEnvelope(b []byte) (Envelope, error) {
	r := wire.NewReader(b)
	var e Envelope
	e.Length = int(int32(r.U32()))
	e.Tag = int32(r.U32())
	e.Context = int32(r.U32())
	e.Rank = int32(r.U32())
	e.Kind = Kind(r.U32())
	e.Seq = r.U64()
	e.SSeq = r.U64()
	e.SAck = r.U64()
	e.SEpoch = r.U32()
	return e, r.Err()
}

// Delivery receives a complete inbound message (envelope plus body; the
// body is nil for bodiless kinds). The callee must not retain body.
type Delivery func(env Envelope, body []byte)

// RPI is a request progression module. All methods are called from the
// owning process's simulation context; implementations need no locking.
type RPI interface {
	// Init establishes transport connectivity with every other process
	// and returns once the module is ready to carry messages (for the
	// SCTP module this includes the paper's post-setup barrier).
	Init(p *sim.Proc) error

	// SetDelivery installs the middleware's inbound handler. Must be
	// called before Init.
	SetDelivery(d Delivery)

	// Send queues one message to the destination world rank. The module
	// must not read body after Send returns: the caller may reuse the
	// buffer at once, so a module that transmits later keeps a copy.
	// onQueued, if non-nil, runs once the message is buffered that way
	// (the completion point for buffered eager sends).
	Send(dest int, env Envelope, body []byte, onQueued func())

	// Advance progresses outstanding transport work, invoking the
	// delivery callback for anything that arrived. With block set it
	// parks the process until there is at least potential progress.
	// A non-nil error is terminal (session recovery exhausted its
	// redial budget): the job must abort via Abort, not Finalize.
	Advance(p *sim.Proc, block bool) error

	// Finalize flushes and tears down transport state.
	Finalize(p *sim.Proc)

	// Abort abandons all transport state abortively (no handshakes, no
	// flushes) after a terminal Advance error, releasing listener and
	// socket resources so peers redialing this rank fail fast instead
	// of hanging the simulation.
	Abort(p *sim.Proc)

	// Counters exposes per-module statistics for reports and tests.
	// Iteration helpers on the returned Counters are deterministic.
	Counters() Counters
}

// CostModel charges virtual CPU time for middleware/transport API work.
// This is how the reproduction expresses the stack-efficiency asymmetry
// the paper measured on real hardware (TCP's kernel maturity and
// checksum offload versus SCTP's per-message processing; the TCP
// module's select() and byte-stream framing scan versus one-to-many
// sctp_recvmsg).
type CostModel struct {
	SendPerMsg time.Duration // per message handed to the transport
	RecvPerMsg time.Duration // per message delivered up
	SendPerKB  time.Duration // per 1024 body bytes sent
	RecvPerKB  time.Duration // per 1024 body bytes received
	PollBase   time.Duration // per Advance poll pass (select/recvmsg syscall)
	PollPerFD  time.Duration // additional per polled descriptor (select scan)
	// PollPerEvent charges each readiness event the proactor engine
	// dequeues. Unlike PollPerFD it scales with *active* peers, not mesh
	// size — the epoll-vs-select distinction the rank-scaling benchmark
	// measures. Zero in the default models so the paper's figures keep
	// their select-era charging.
	PollPerEvent time.Duration
}

// SendCost returns the virtual CPU cost of sending n body bytes.
func (c CostModel) SendCost(n int) time.Duration {
	return c.SendPerMsg + c.SendPerKB*time.Duration(n)/1024
}

// RecvCost returns the virtual CPU cost of receiving n body bytes.
func (c CostModel) RecvCost(n int) time.Duration {
	return c.RecvPerMsg + c.RecvPerKB*time.Duration(n)/1024
}

// PollCost returns the virtual CPU cost of one poll over nfds
// descriptors.
func (c CostModel) PollCost(nfds int) time.Duration {
	return c.PollBase + c.PollPerFD*time.Duration(nfds)
}

// EventCost returns the virtual CPU cost of dequeuing one readiness
// event in the proactor loop.
func (c CostModel) EventCost() time.Duration {
	return c.PollPerEvent
}
