package sctp

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"hash"

	"repro/internal/freelist"
	"repro/internal/netsim"
	"repro/internal/seqnum"
	"repro/internal/sim"
	"repro/internal/wire"
)

// StackStats counts stack-level events that occur before a packet is
// demultiplexed to an association.
type StackStats struct {
	ChecksumDrops int64 // packets rejected by CRC32c verification
	DecodeDrops   int64 // packets rejected as malformed
}

// Stack is the per-node SCTP instance.
type Stack struct {
	node     *netsim.Node
	cfg      Config
	socks    map[uint16]*Socket
	secret   []byte
	mac      hash.Hash // HMAC-SHA256 under secret, shared by cookie sign and verify
	nextPort uint16
	nextID   AssocID

	// Free lists of the per-message objects, shared by every association
	// on the stack. They start empty and fill as objects are released, so
	// the steady state allocates nothing.
	freePkts   freelist.List[packet]   // decoded inbound packets
	freeMsgs   freelist.List[Message]  // received messages, back from ReleaseMsg or dropped
	freeBufs   freelist.List[msgBuf]   // outbound message copies
	freeChunks freelist.List[outChunk] // outbound DATA and I-DATA chunks
	freeParts  freelist.List[partial]  // inbound reassemblies, fragment maps kept

	Stats StackStats
}

// NewStack attaches an SCTP stack with default socket config cfg to
// node.
func NewStack(node *netsim.Node, cfg Config) *Stack {
	s := &Stack{
		node:     node,
		cfg:      cfg.withDefaults(),
		socks:    make(map[uint16]*Socket),
		nextPort: 32768,
	}
	// Per-stack cookie secret, drawn from the deterministic kernel RNG.
	s.secret = make([]byte, 32)
	for i := range s.secret {
		s.secret[i] = byte(node.Kernel().Rand().Intn(256))
	}
	node.Handle(netsim.ProtoSCTP, s.handlePacket)
	return s
}

// Node returns the node this stack is attached to.
func (s *Stack) Node() *netsim.Node { return s.node }

func (s *Stack) kernel() *sim.Kernel { return s.node.Kernel() }

func (s *Stack) ephemeralPort() uint16 {
	p := s.nextPort
	s.nextPort++
	if s.nextPort == 0 {
		s.nextPort = 32768
	}
	return p
}

// send encodes p and transmits it from src to dst.
func (s *Stack) send(src, dst netsim.Addr, p *packet) {
	s.node.Send(s.node.NewPacket(src, dst, netsim.ProtoSCTP, encodePacket(p)))
}

// cookieMAC returns the stack's HMAC, reset for a new message. It is
// created on first use: a stack that never signs or checks a cookie
// never builds one.
func (s *Stack) cookieMAC() hash.Hash {
	if s.mac == nil {
		s.mac = hmac.New(sha256.New, s.secret)
	}
	s.mac.Reset()
	return s.mac
}

func (s *Stack) newPacket() *packet {
	if p := s.freePkts.Get(); p != nil {
		return p
	}
	return new(packet)
}

func (s *Stack) freePacket(p *packet) {
	p.reset()
	s.freePkts.Put(p)
}

func (s *Stack) newMsg() *Message {
	if m := s.freeMsgs.Get(); m != nil {
		return m
	}
	return new(Message)
}

// newMsgBuf returns a message copy holding a pooled copy of data.
func (s *Stack) newMsgBuf(data []byte) *msgBuf {
	mb := s.freeBufs.Get()
	if mb == nil {
		mb = new(msgBuf)
	}
	mb.b = wire.GetBuf(len(data))
	copy(mb.b, data)
	return mb
}

func (s *Stack) newChunk() *outChunk {
	if oc := s.freeChunks.Get(); oc != nil {
		return oc
	}
	return new(outChunk)
}

// freeChunk recycles a chunk that has left every queue. Its share of the
// message copy must have been released already.
func (s *Stack) freeChunk(oc *outChunk) {
	*oc = outChunk{}
	s.freeChunks.Put(oc)
}

// freeMsg recycles a received message; its Data is the caller's.
func (s *Stack) freeMsg(m *Message) {
	*m = Message{}
	s.freeMsgs.Put(m)
}

func (s *Stack) newPartial() *partial {
	if pm := s.freeParts.Get(); pm != nil {
		return pm
	}
	return &partial{frags: make(map[seqnum.V]frag)}
}

// freePartial recycles a finished reassembly. Clearing its fragment map
// keeps the map's storage for the next message.
func (s *Stack) freePartial(pm *partial) {
	clear(pm.frags)
	*pm = partial{frags: pm.frags}
	s.freeParts.Put(pm)
}

// respondOOTB answers an out-of-the-blue packet, one that reaches no
// socket or a socket without an association with the sender (RFC 4960
// §8.4); reason is the cause an ABORT carries. INIT gets an ABORT
// carrying the INIT's initiate tag (the only tag the sender will accept
// while in COOKIE-WAIT). DATA and I-DATA get an ABORT, and a SHUTDOWN ACK
// a SHUTDOWN COMPLETE (rule 5), each reflecting the packet's verification
// tag with the T bit set. A packet carrying an ABORT or a SHUTDOWN
// COMPLETE is never answered (rules 2 and 6).
func (s *Stack) respondOOTB(src, dst netsim.Addr, pkt *packet, reason string) {
	for _, c := range pkt.Chunks {
		if c.Type == ctAbort || c.Type == ctShutdownComplete {
			return
		}
	}
	for _, c := range pkt.Chunks {
		var reply *chunk
		tag := pkt.VerificationTag
		switch c.Type {
		case ctInit:
			reply = &chunk{Type: ctAbort, Reason: reason}
			tag = c.InitiateTag
		case ctData, ctIData:
			reply = &chunk{Type: ctAbort, Flags: abortTBit, Reason: reason}
		case ctShutdownAck:
			reply = &chunk{Type: ctShutdownComplete, Flags: abortTBit}
		default:
			continue
		}
		s.send(src, dst, &packet{
			SrcPort:         pkt.DstPort,
			DstPort:         pkt.SrcPort,
			VerificationTag: tag,
			Chunks:          []*chunk{reply},
		})
		return
	}
}

func (s *Stack) handlePacket(ipPkt *netsim.Packet, ifc *netsim.Iface) {
	pkt := s.newPacket()
	if err := pkt.decode(ipPkt.Payload, s.cfg.ChecksumVerify); err != nil {
		s.freePacket(pkt)
		// A corrupted packet that fails the CRC (or is structurally
		// unparseable) is dropped here; the sender's T3 timer recovers,
		// exactly as with loss. The paper's kernels computed the CRC but
		// this is where it pays off under real corruption.
		if errors.Is(err, errBadCRC) {
			s.Stats.ChecksumDrops++
		} else {
			s.Stats.DecodeDrops++
		}
		return
	}
	sk, ok := s.socks[pkt.DstPort]
	if !ok {
		// No socket on this port (the endpoint closed or aborted and
		// released it): answer out-of-the-blue INIT, DATA and SHUTDOWN
		// ACK per RFC 4960 §8.4, so a peer dialing, retransmitting or
		// closing into a dead endpoint finishes fast instead of
		// exhausting its timers.
		s.respondOOTB(ipPkt.Dst, ipPkt.Src, pkt, "no endpoint")
		s.freePacket(pkt)
		return
	}
	// DATA chunk payloads alias the IP payload; record the owning packet
	// so the reassembly queue can hold a reference instead of copying.
	for _, c := range pkt.Chunks {
		if c.Type == ctData || c.Type == ctIData {
			c.buf = ipPkt
		}
	}
	// The socket keeps nothing but payload slices and the owning netsim
	// packet; the decoded packet and its chunks recycle right after.
	sk.handlePacket(ipPkt.Src, ipPkt.Dst, pkt)
	s.freePacket(pkt)
}
