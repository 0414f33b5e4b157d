package tcp

import (
	"errors"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Stack is the per-node TCP instance. Create one per simulated host and
// register it on the node's protocol demux.
type Stack struct {
	node      *netsim.Node
	cfg       Config
	conns     map[fourTuple]*Conn
	listeners map[uint16]*Listener
	nextPort  uint16
	rx        segment // decoded inbound segment, reused for every packet
}

type fourTuple struct {
	laddr netsim.Addr
	lport uint16
	raddr netsim.Addr
	rport uint16
}

// NewStack attaches a TCP stack to node; every connection it opens or
// accepts uses cfg.
func NewStack(node *netsim.Node, cfg Config) *Stack {
	s := &Stack{
		node:      node,
		cfg:       cfg.withDefaults(),
		conns:     make(map[fourTuple]*Conn),
		listeners: make(map[uint16]*Listener),
		nextPort:  32768,
	}
	node.Handle(netsim.ProtoTCP, s.handlePacket)
	return s
}

// Node returns the node this stack is attached to.
func (s *Stack) Node() *netsim.Node { return s.node }

func (s *Stack) kernel() *sim.Kernel { return s.node.Kernel() }

func (s *Stack) handlePacket(pkt *netsim.Packet, ifc *netsim.Iface) {
	// Dispatch finishes with the segment before the next packet can
	// arrive, so one decoded segment serves them all.
	if s.rx.decode(pkt.Payload) == nil {
		s.dispatch(pkt, &s.rx)
	}
}

// dispatch hands a decoded segment to its connection or listener.
func (s *Stack) dispatch(pkt *netsim.Packet, seg *segment) {
	key := fourTuple{pkt.Dst, seg.DstPort, pkt.Src, seg.SrcPort}
	if c, ok := s.conns[key]; ok {
		c.handleSegment(seg)
		return
	}
	if seg.Flags&flagSYN != 0 && seg.Flags&flagACK == 0 {
		if l, ok := s.listeners[seg.DstPort]; ok {
			l.handleSyn(pkt, seg)
			return
		}
	}
	// No matching connection: reset, unless this is itself a reset.
	if seg.Flags&flagRST == 0 {
		s.sendRst(pkt, seg)
	}
}

func (s *Stack) sendRst(pkt *netsim.Packet, seg *segment) {
	rst := &segment{
		SrcPort: seg.DstPort,
		DstPort: seg.SrcPort,
		Flags:   flagRST | flagACK,
		Seq:     seg.Ack,
		Ack:     seg.Seq.Add(seg.segLen()),
	}
	s.node.Send(s.node.NewPacket(pkt.Dst, pkt.Src, netsim.ProtoTCP, rst.encode()))
}

func (s *Stack) removeConn(c *Conn) {
	delete(s.conns, fourTuple{c.laddr, c.lport, c.raddr, c.rport})
}

func (s *Stack) ephemeralPort() uint16 {
	p := s.nextPort
	s.nextPort++
	if s.nextPort == 0 {
		s.nextPort = 32768
	}
	return p
}

// Listener accepts inbound connections on a port.
type Listener struct {
	stack   *Stack
	port    uint16
	backlog []*Conn
	cond    *sim.Cond
	closed  bool
	notify  func(transport.Ready)
}

// SetNotify registers fn to fire (in kernel context, with ReadyRecv)
// whenever a new established connection is queued for accept, so a
// nonblocking caller parked elsewhere can wake up and TryAccept it.
func (l *Listener) SetNotify(fn func(transport.Ready)) { l.notify = fn }

// Listen starts listening on port; accepted connections use the
// stack's config.
func (s *Stack) Listen(port uint16) (*Listener, error) {
	if _, ok := s.listeners[port]; ok {
		return nil, errors.New("tcp: port in use")
	}
	l := &Listener{stack: s, port: port, cond: sim.NewCond(s.kernel())}
	s.listeners[port] = l
	return l, nil
}

func (l *Listener) handleSyn(pkt *netsim.Packet, seg *segment) {
	if l.closed {
		return
	}
	key := fourTuple{pkt.Dst, seg.DstPort, pkt.Src, seg.SrcPort}
	if _, ok := l.stack.conns[key]; ok {
		return // duplicate SYN for a connection in progress; conn handles it
	}
	c := l.stack.newConn(pkt.Dst, seg.DstPort, pkt.Src, seg.SrcPort)
	c.state = stateSynRcvd
	c.rcvNxt = seg.Seq.Add(1)
	if seg.MSS != 0 && int(seg.MSS) < c.mss {
		c.mss = int(seg.MSS)
	}
	c.peerWnd = seg.Wnd
	c.peerSack = !c.cfg.NoSack
	c.sndUna = c.iss
	c.sndNxt = c.iss.Add(1)
	c.maxSent = c.sndNxt
	c.sndBase = c.iss.Add(1)
	l.stack.conns[key] = c
	c.sendSynAck()
	// Retransmit the SYN-ACK until acknowledged.
	var rearm func()
	rearm = func() {
		c.rtoTimer = c.kernel().After(c.rto, func() {
			if c.state != stateSynRcvd {
				return
			}
			c.retries++
			if c.retries > synRetries {
				c.fail(ErrTimeout)
				return
			}
			c.sendSynAck()
			rearm()
		})
	}
	rearm()
}

// completeAccept queues an established connection on its listener.
func (s *Stack) completeAccept(c *Conn) {
	if l, ok := s.listeners[c.lport]; ok && !l.closed {
		l.backlog = append(l.backlog, c)
		l.cond.Broadcast()
		if l.notify != nil {
			l.notify(transport.ReadyRecv)
		}
	}
}

// Accept blocks until an inbound connection completes its handshake.
func (l *Listener) Accept(p *sim.Proc) (*Conn, error) {
	for len(l.backlog) == 0 {
		if l.closed {
			return nil, ErrClosed
		}
		l.cond.Wait(p)
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	return c, nil
}

// TryAccept returns a pending connection or ErrWouldBlock.
func (l *Listener) TryAccept() (*Conn, error) {
	if len(l.backlog) == 0 {
		if l.closed {
			return nil, ErrClosed
		}
		return nil, ErrWouldBlock
	}
	c := l.backlog[0]
	l.backlog = l.backlog[1:]
	return c, nil
}

// Close stops the listener.
func (l *Listener) Close() {
	l.closed = true
	delete(l.stack.listeners, l.port)
	l.cond.Broadcast()
}

// Port returns the listening port.
func (l *Listener) Port() uint16 { return l.port }

// Connect opens a connection to raddr:rport using the stack's config,
// blocking until established or failed.
func (s *Stack) Connect(p *sim.Proc, raddr netsim.Addr, rport uint16) (*Conn, error) {
	laddr := s.node.Addr()
	lport := s.ephemeralPort()
	c := s.newConn(laddr, lport, raddr, rport)
	c.state = stateSynSent
	s.conns[fourTuple{laddr, lport, raddr, rport}] = c
	c.sendSyn()
	var rearm func()
	rearm = func() {
		c.rtoTimer = c.kernel().After(c.rto<<c.rtxShift, func() {
			if c.state != stateSynSent {
				return
			}
			c.retries++
			if c.retries > synRetries {
				c.fail(ErrTimeout)
				return
			}
			c.rtxShift++
			c.sendSyn()
			rearm()
		})
	}
	rearm()
	for c.state == stateSynSent {
		c.connCond.Wait(p)
	}
	if c.state == stateDone {
		return nil, c.err
	}
	return c, nil
}
