package sctp

import (
	"errors"

	"repro/internal/fifo"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Socket satisfies the shared nonblocking endpoint contract.
var _ transport.Endpoint = (*Socket)(nil)

// AssocID identifies an association on a one-to-many socket, as in the
// sctp_recvmsg/sctp_sendmsg API.
type AssocID int64

// NotificationType distinguishes in-band notifications from user data,
// mirroring SCTP_ASSOC_CHANGE events.
type NotificationType int

// Notification kinds delivered in-band on the socket receive queue.
const (
	NotifyNone NotificationType = iota // a data message
	NotifyCommUp
	NotifyCommLost
	NotifyShutdownComplete
	// NotifyRestart reports an RFC 4960 §5.2 association restart: the
	// peer's endpoint came back and re-handshook in place. The AssocID
	// is unchanged but all transfer state (TSNs, SSNs, queues) has been
	// reset; the application must discard per-association reassembly
	// state and expect the peer to replay.
	NotifyRestart
)

// Message is what RecvMsg returns: either user data (Notification ==
// NotifyNone) or an association event. Data is a wire-pool buffer that
// passes to the receiver. A receiver done with the message itself may
// hand it back with ReleaseMsg, which lets the stack reuse it for a
// later one; a message never handed back is simply garbage collected.
type Message struct {
	Assoc        AssocID
	Peer         netsim.Addr
	Stream       uint16
	SSN          uint16
	MID          uint32 // message ID when delivered via I-DATA (RFC 8260)
	PPID         uint32
	Data         []byte
	Notification NotificationType
	Err          error
}

type addrPort struct {
	addr netsim.Addr
	port uint16
}

// Socket is a one-to-many SCTP socket: one descriptor that communicates
// with any number of associations, as used by the paper's SCTP RPI.
type Socket struct {
	stack     *Stack
	port      uint16
	cfg       Config
	listening bool
	closed    bool

	assocs map[addrPort]*Assoc // by every peer (address, port)
	byID   map[AssocID]*Assoc

	rq       fifo.Queue[*Message]
	rcvCond  *sim.Cond
	notify   func(transport.Ready)
	notifyBy map[AssocID]func(transport.Ready)

	// Stats aggregates across all associations on the socket.
	Stats SocketStats
}

// SocketStats counts socket-level events.
type SocketStats struct {
	MsgsSent     int64
	MsgsRcvd     int64
	BytesSent    int64
	BytesRcvd    int64
	AssocsOpened int64
	AssocsClosed int64
}

// Socket creates a one-to-many socket bound to port (0 selects an
// ephemeral port) with the stack's default configuration.
func (s *Stack) Socket(port uint16) (*Socket, error) {
	return s.SocketConfig(port, s.cfg)
}

// SocketConfig creates a one-to-many socket with explicit config. It
// exists for callers whose sockets differ from their stack's config:
// protocol tests and internal/daemon.
func (s *Stack) SocketConfig(port uint16, cfg Config) (*Socket, error) {
	if port == 0 {
		port = s.ephemeralPort()
	}
	if _, ok := s.socks[port]; ok {
		return nil, ErrPortInUse
	}
	sk := &Socket{
		stack:   s,
		port:    port,
		cfg:     cfg.withDefaults(),
		assocs:  make(map[addrPort]*Assoc),
		byID:    make(map[AssocID]*Assoc),
		rcvCond: sim.NewCond(s.kernel()),
	}
	s.socks[port] = sk
	return sk, nil
}

// Config returns the socket configuration.
func (sk *Socket) Config() Config { return sk.cfg }

// Listen enables acceptance of inbound associations.
func (sk *Socket) Listen() { sk.listening = true }

// SetNotify registers fn to be invoked (in kernel context) whenever the
// socket becomes readable/writable or an association changes state. The
// hook is edge-triggered: one call may stand for many queued messages,
// so consumers must drain until would-block. Events for associations
// with a per-association hook (SetAssocNotify) do not reach fn.
func (sk *Socket) SetNotify(fn func(transport.Ready)) { sk.notify = fn }

// SetAssocNotify registers fn for events belonging to one association —
// the routing a one-to-one Conn needs when it shares a listening
// socket with its siblings. A nil fn unregisters; events fall back to
// the socket-level hook.
func (sk *Socket) SetAssocNotify(id AssocID, fn func(transport.Ready)) {
	if fn == nil {
		delete(sk.notifyBy, id)
		return
	}
	if sk.notifyBy == nil {
		sk.notifyBy = make(map[AssocID]func(transport.Ready))
	}
	sk.notifyBy[id] = fn
}

// fireNotify routes a readiness edge: per-association hook first, then
// the socket-level hook. id 0 means "no association" (socket-scope
// events such as Close); AssocIDs start at 1. A terminal event retires
// the registration — the association state is already gone by the time
// its CommLost/ShutdownComplete notification enqueues (teardown runs
// first), so this routing is the registration's last duty.
func (sk *Socket) fireNotify(id AssocID, ev transport.Ready) {
	if ev == 0 {
		return
	}
	if fn, ok := sk.notifyBy[id]; ok {
		if ev.Has(transport.ReadyClosed) || ev.Has(transport.ReadyErr) {
			delete(sk.notifyBy, id)
		}
		fn(ev)
		return
	}
	if sk.notify != nil {
		sk.notify(ev)
	}
}

func (sk *Socket) kernel() *sim.Kernel { return sk.stack.kernel() }

// Assoc returns the association with the given ID, or nil.
func (sk *Socket) Assoc(id AssocID) *Assoc { return sk.byID[id] }

// Assocs returns the current association IDs in creation order.
func (sk *Socket) Assocs() []AssocID {
	out := make([]AssocID, 0, len(sk.byID))
	for id := range sk.byID {
		out = append(out, id)
	}
	// Deterministic order.
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// handlePacket demultiplexes an inbound packet to its association, or
// to handshake processing. A closed socket keeps servicing its
// remaining associations so their shutdown handshakes can complete.
func (sk *Socket) handlePacket(src, dst netsim.Addr, pkt *packet) {
	a := sk.assocs[addrPort{src, pkt.SrcPort}]
	if a != nil {
		// Verification tag check (paper §3.5.2: protects against stale
		// and spoofed packets). INIT carries tag 0 and is handled even
		// on an existing association (peer restart → treated as dup).
		valid := pkt.VerificationTag == a.myTag
		for _, c := range pkt.Chunks {
			if c.Type == ctInit || c.Type == ctCookieEcho {
				valid = true // handshake chunks carry their own proof
			}
			// ABORT and SHUTDOWN COMPLETE may carry the peer's tag with
			// the T bit set (RFC 4960 §8.5.1 rules B and C): the
			// reflected-tag response of an endpoint that has no
			// association state for our packets.
			if (c.Type == ctAbort || c.Type == ctShutdownComplete) &&
				c.Flags&abortTBit != 0 && pkt.VerificationTag == a.peerTag {
				valid = true
			}
		}
		if !valid {
			a.stats.BadTagDrops++
			return
		}
		a.handlePacket(src, dst, pkt)
		return
	}
	// No association: the handshake chunks are handled here; anything
	// else is out of the blue, and the stack owns the replies to that
	// (RFC 4960 §8.4).
	for _, c := range pkt.Chunks {
		switch c.Type {
		case ctInit:
			sk.handleInit(src, dst, pkt, c)
			return
		case ctInitAck:
			return // stale INIT ACK for an association we gave up on
		case ctCookieEcho:
			sk.handleCookieEcho(src, dst, pkt, c)
			return
		}
	}
	sk.stack.respondOOTB(dst, src, pkt, "no association")
}

// sendControl emits a single-chunk packet outside any association.
func (sk *Socket) sendControl(src, dst netsim.Addr, dstPort uint16, tag uint32, c *chunk) {
	sk.stack.send(src, dst, &packet{SrcPort: sk.port, DstPort: dstPort, VerificationTag: tag, Chunks: []*chunk{c}})
}

// enqueue places a message or notification on the socket receive queue.
func (sk *Socket) enqueue(m *Message) {
	sk.rq.Push(m)
	if m.Notification == NotifyNone {
		sk.Stats.MsgsRcvd++
		sk.Stats.BytesRcvd += int64(len(m.Data))
	}
	sk.rcvCond.Broadcast()
	ev := transport.ReadyRecv
	switch m.Notification {
	case NotifyCommLost:
		ev = transport.ReadyErr
	case NotifyShutdownComplete:
		ev = transport.ReadyClosed
	}
	sk.fireNotify(m.Assoc, ev)
}

// RecvMsg blocks until a message or notification arrives, mirroring
// sctp_recvmsg on a one-to-many socket: there is no way to receive from
// a chosen association; messages arrive in network order and carry
// their association and stream identifiers.
func (sk *Socket) RecvMsg(p *sim.Proc) (*Message, error) {
	for {
		m, err := sk.TryRecvMsg()
		if !errors.Is(err, transport.ErrWouldBlock) {
			return m, err
		}
		sk.rcvCond.Wait(p)
	}
}

// TryRecvMsg is the nonblocking variant of RecvMsg.
func (sk *Socket) TryRecvMsg() (*Message, error) {
	if sk.rq.Len() == 0 {
		if sk.closed {
			return nil, ErrClosed
		}
		return nil, ErrWouldBlock
	}
	m := sk.rq.Pop()
	if m.Notification == NotifyNone {
		// Reading frees receive-buffer space: credit the association's
		// advertised window and let it update the peer.
		if a := sk.byID[m.Assoc]; a != nil {
			a.creditRwnd(len(m.Data))
		}
	}
	return m, nil
}

// ReleaseMsg hands a received message back for reuse. The caller must
// not touch m afterwards; its Data buffer is not affected and stays the
// caller's.
func (sk *Socket) ReleaseMsg(m *Message) { sk.stack.freeMsg(m) }

// SendMsg blocks until the message is accepted into the association
// send buffer.
func (sk *Socket) SendMsg(p *sim.Proc, id AssocID, stream uint16, ppid uint32, data []byte) error {
	for {
		err := sk.TrySendMsg(id, stream, ppid, data)
		if !errors.Is(err, transport.ErrWouldBlock) {
			return err
		}
		a := sk.byID[id]
		if a == nil {
			return ErrNoAssoc
		}
		a.sndCond.Wait(p)
	}
}

// TrySendMsg queues a whole message or fails: ErrMsgSize if the message
// exceeds the send buffer (the limitation in paper §3.6 that forces the
// middleware to chunk long messages), ErrWouldBlock if there is no
// space right now.
func (sk *Socket) TrySendMsg(id AssocID, stream uint16, ppid uint32, data []byte) error {
	a := sk.byID[id]
	if a == nil {
		return ErrNoAssoc
	}
	return a.trySend(stream, ppid, data)
}

// SetStreamPriority assigns a strict-priority class to an outbound
// stream (0 is most urgent). It takes effect only on associations that
// negotiated I-DATA and run the SchedPriority scheduler; elsewhere it
// is a harmless no-op, so callers need not care
// which mode the association landed in.
func (sk *Socket) SetStreamPriority(id AssocID, stream uint16, prio uint8) error {
	a := sk.byID[id]
	if a == nil {
		return ErrNoAssoc
	}
	if int(stream) >= a.numOut {
		return ErrBadStream
	}
	a.sched.setPriority(stream, prio)
	return nil
}

// CloseAssoc starts a graceful shutdown of one association.
func (sk *Socket) CloseAssoc(id AssocID) error {
	a := sk.byID[id]
	if a == nil {
		return ErrNoAssoc
	}
	a.gracefulClose()
	return nil
}

// KillAssoc tears an association down silently: no ABORT or any other
// wire traffic, exactly as if the endpoint's host had crashed. The
// local application gets a NotifyCommLost; the peer discovers the
// death through its own timers or an out-of-the-blue ABORT when it
// next transmits. This is the fault-injection entry point for session
// recovery testing.
func (sk *Socket) KillAssoc(id AssocID) error {
	a := sk.byID[id]
	if a == nil {
		return ErrNoAssoc
	}
	a.fail(ErrAborted, false)
	return nil
}

// Abort tears an association down immediately with an ABORT chunk.
func (sk *Socket) Abort(id AssocID, reason string) error {
	a := sk.byID[id]
	if a == nil {
		return ErrNoAssoc
	}
	a.abort(reason, true)
	return nil
}

// Close starts a graceful shutdown of every association and marks the
// socket closed for the application. Like a real close() on a
// one-to-many socket, the endpoint itself stays alive in the stack
// until the SHUTDOWN handshakes complete, then the port is released.
func (sk *Socket) Close() {
	if sk.closed {
		return
	}
	sk.closed = true
	sk.listening = false
	for _, id := range sk.Assocs() { // deterministic order
		sk.byID[id].gracefulClose()
	}
	sk.maybeRelease()
	sk.rcvCond.Broadcast()
	// Wake both scopes: the socket-level consumer and every Conn holding
	// a per-association registration (deterministic order).
	if sk.notify != nil {
		sk.notify(transport.ReadyClosed)
	}
	for _, id := range sk.Assocs() {
		if fn, ok := sk.notifyBy[id]; ok {
			fn(transport.ReadyClosed)
		}
	}
}

func (sk *Socket) maybeRelease() {
	if sk.closed && len(sk.byID) == 0 {
		delete(sk.stack.socks, sk.port)
	}
}

func (sk *Socket) removeAssoc(a *Assoc) {
	for _, ap := range a.peerAddrs {
		key := addrPort{ap, a.peerPort}
		if sk.assocs[key] == a {
			delete(sk.assocs, key)
		}
	}
	// The notifyBy registration survives removal on purpose: the terminal
	// notification enqueues after teardown and must still route to the
	// association's hook (fireNotify retires it).
	delete(sk.byID, a.id)
	sk.Stats.AssocsClosed++
	sk.maybeRelease()
}
