package sctp

import (
	"errors"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Conn satisfies the shared nonblocking endpoint contract.
var _ transport.Endpoint = (*Conn)(nil)

// This file implements the one-to-one socket style of paper §2.1: "a
// single SCTP association ... developed to allow porting of existing
// TCP applications to SCTP with little effort." A Conn wraps a
// dedicated one-to-many socket holding exactly one association.

// Conn is a one-to-one style SCTP endpoint: one socket, one
// association, TCP-like usage but message-oriented and multistreamed.
type Conn struct {
	sock  *Socket
	assoc AssocID
}

// Dial establishes a one-to-one association with the peer reachable at
// raddrs (all its addresses, for multihoming), blocking until the
// handshake completes.
func (s *Stack) Dial(p *sim.Proc, raddrs []netsim.Addr, rport uint16, streams int) (*Conn, error) {
	sk, err := s.Socket(0)
	if err != nil {
		return nil, err
	}
	id, err := sk.Connect(p, raddrs, rport, streams)
	if err != nil {
		sk.Close()
		return nil, err
	}
	return &Conn{sock: sk, assoc: id}, nil
}

// OneToOneListener accepts inbound associations, handing each out as
// its own Conn (on the shared listening socket, which is how lksctp's
// one-to-one accept() behaves underneath).
type OneToOneListener struct {
	sock *Socket
}

// ListenOneToOne starts accepting one-to-one style associations on
// port.
func (s *Stack) ListenOneToOne(port uint16) (*OneToOneListener, error) {
	sk, err := s.Socket(port)
	if err != nil {
		return nil, err
	}
	sk.Listen()
	return &OneToOneListener{sock: sk}, nil
}

// SetNotify registers fn on the shared listening socket: it fires when
// a new association or message arrives (see Socket.SetNotify). Events
// for associations claimed by an accepted Conn's own SetNotify do not
// reach this hook.
func (l *OneToOneListener) SetNotify(fn func(transport.Ready)) { l.sock.SetNotify(fn) }

// Config returns the listening socket's effective configuration
// (defaults applied).
func (l *OneToOneListener) Config() Config { return l.sock.Config() }

// Accept blocks until an inbound association is established and
// returns it as a Conn. Messages for other associations continue to
// queue on the shared socket; each Conn filters its own (adequate for
// the porting-aid role this style plays).
func (l *OneToOneListener) Accept(p *sim.Proc) (*Conn, error) {
	for {
		c, err := l.TryAccept()
		if !errors.Is(err, ErrWouldBlock) {
			return c, err
		}
		l.sock.rcvCond.Wait(p)
	}
}

// TryAccept is the nonblocking variant of Accept: it returns the next
// inbound association as a Conn, ErrWouldBlock when none is pending,
// or ErrClosed once the listener is closed.
func (l *OneToOneListener) TryAccept() (*Conn, error) {
	// Take only the COMM_UP event, leaving queued data untouched (and in
	// order) for the Conns that own it.
	rq := &l.sock.rq
	for i := 0; i < rq.Len(); i++ {
		if m := rq.At(i); m.Notification == NotifyCommUp {
			rq.RemoveAt(i)
			c := &Conn{sock: l.sock, assoc: m.Assoc}
			l.sock.ReleaseMsg(m)
			return c, nil
		}
	}
	if l.sock.closed {
		return nil, ErrClosed
	}
	return nil, ErrWouldBlock
}

// Close stops the listener (and every association on it).
func (l *OneToOneListener) Close() { l.sock.Close() }

// SendMsg sends a message on the association.
func (c *Conn) SendMsg(p *sim.Proc, stream uint16, data []byte) error {
	return c.sock.SendMsg(p, c.assoc, stream, 0, data)
}

// TrySendMsg queues a whole message with an explicit payload protocol
// identifier, or fails with ErrWouldBlock/ErrMsgSize; the nonblocking
// variant the RPI modules use.
func (c *Conn) TrySendMsg(stream uint16, ppid uint32, data []byte) error {
	return c.sock.TrySendMsg(c.assoc, stream, ppid, data)
}

// TryRecvMsg returns this association's next data message without
// blocking, leaving other associations' messages on the shared socket
// queue. Association events map to errors (ErrAborted, ErrClosed);
// uninteresting notifications are consumed. ErrWouldBlock means
// nothing is pending.
func (c *Conn) TryRecvMsg() (*Message, error) {
	rq := &c.sock.rq
	for {
		found := -1
		for i := 0; i < rq.Len(); i++ {
			if rq.At(i).Assoc == c.assoc {
				found = i
				break
			}
		}
		if found < 0 {
			if c.sock.closed {
				return nil, ErrClosed
			}
			return nil, ErrWouldBlock
		}
		m := rq.RemoveAt(found)
		switch m.Notification {
		case NotifyNone:
			if a := c.sock.byID[m.Assoc]; a != nil {
				a.creditRwnd(len(m.Data))
			}
			return m, nil
		case NotifyCommLost:
			c.sock.ReleaseMsg(m)
			return nil, ErrAborted
		case NotifyShutdownComplete:
			c.sock.ReleaseMsg(m)
			return nil, ErrClosed
		default:
			c.sock.ReleaseMsg(m)
			continue // other notifications are uninteresting here
		}
	}
}

// ReleaseMsg hands a received message back for reuse (see
// Socket.ReleaseMsg).
func (c *Conn) ReleaseMsg(m *Message) { c.sock.ReleaseMsg(m) }

// SetNotify registers fn for this association's events. Accepted Conns
// share the listening socket, so the registration is per-association
// (Socket.SetAssocNotify): each Conn gets exactly its own edges, and
// unclaimed associations keep waking the listener's socket-level hook.
func (c *Conn) SetNotify(fn func(transport.Ready)) { c.sock.SetAssocNotify(c.assoc, fn) }

// RecvMsg receives the next message for this association, leaving
// messages belonging to other associations on the shared socket queue.
func (c *Conn) RecvMsg(p *sim.Proc) (*Message, error) {
	for {
		m, err := c.TryRecvMsg()
		if !errors.Is(err, ErrWouldBlock) {
			return m, err
		}
		c.sock.rcvCond.Wait(p)
	}
}

// NumStreams returns the negotiated outbound stream count.
func (c *Conn) NumStreams() int {
	if a := c.sock.byID[c.assoc]; a != nil {
		return a.NumOutStreams()
	}
	return 0
}

// Close gracefully shuts the association down; if this Conn owns a
// dedicated socket (Dial side), the socket goes with it.
func (c *Conn) Close() {
	c.sock.CloseAssoc(c.assoc)
}

// Kill destroys the association silently — no wire traffic, as if the
// endpoint crashed. A dedicated dial-side socket is released with it.
func (c *Conn) Kill() {
	c.sock.KillAssoc(c.assoc)
	if !c.sock.listening {
		c.sock.Close()
	}
}

// Abort tears the association down abortively, notifying the peer with
// an ABORT chunk. A dedicated dial-side socket is released with it.
func (c *Conn) Abort() {
	c.sock.Abort(c.assoc, "aborted by application")
	if !c.sock.listening {
		c.sock.Close()
	}
}
