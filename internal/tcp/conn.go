package tcp

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/seqnum"
	"repro/internal/sim"
	"repro/internal/transport"
)

// Errors returned by the socket API. Each wraps its canonical
// internal/transport sentinel, so errors.Is(err,
// transport.ErrWouldBlock) etc. works across stacks.
var (
	ErrWouldBlock = transport.Wrap(transport.ErrWouldBlock, "tcp: operation would block")
	ErrClosed     = transport.Wrap(transport.ErrClosed, "tcp: connection closed")
	ErrReset      = transport.Wrap(transport.ErrAborted, "tcp: connection reset by peer")
	ErrKilled     = transport.Wrap(transport.ErrAborted, "tcp: connection killed")
	ErrTimeout    = transport.Wrap(transport.ErrTimeout, "tcp: connection timed out")
	ErrMsgSize    = transport.Wrap(transport.ErrMsgSize, "tcp: message too large")
)

// Conn satisfies the shared nonblocking endpoint contract.
var _ transport.Endpoint = (*Conn)(nil)

// Config holds per-connection tunables. Zero values select defaults
// documented on each field. The timers and retry limits are fixed at
// the BSD-era values the paper's FreeBSD nodes ran (see the constants
// below).
type Config struct {
	SndBuf int // send buffer bytes (default 64 KiB; experiments use 220 KiB)
	RcvBuf int // receive buffer bytes (default 64 KiB; experiments use 220 KiB)

	NoDelay bool // disable Nagle (LAM-TCP default: disabled, i.e. NoDelay=true)

	NoSack        bool // force SACK off (for ablations; the paper's setting is on)
	MaxSackBlocks int  // SACK blocks per ACK (default 4, the BSD option-space limit)

	// Probe, when non-nil, receives protocol-event callbacks (in-order
	// delivery advance, congestion-window changes). The chaos harness
	// installs its invariant oracles here.
	Probe *Probe
}

// Protocol constants of the paper's FreeBSD TCP.
const (
	delAck        = 100 * time.Millisecond // delayed-ACK timeout (BSD-style)
	ackEverySegs  = 2                      // ACK at least every n in-order segments
	rtoMin        = time.Second            // minimum retransmission timeout
	rtoMax        = 64 * time.Second       // maximum retransmission timeout
	maxRetries    = 12                     // retransmissions before aborting
	synRetries    = 5                      // SYN retransmissions before failing connect
	initCwndBytes = 4380                   // initial congestion window (RFC 3390)
)

func (c Config) withDefaults() Config {
	if c.SndBuf == 0 {
		c.SndBuf = 64 << 10
	}
	if c.RcvBuf == 0 {
		c.RcvBuf = 64 << 10
	}
	if c.MaxSackBlocks == 0 {
		c.MaxSackBlocks = maxSackBlocks
	}
	return c
}

type connState int

const (
	stateClosed connState = iota
	stateSynSent
	stateSynRcvd
	stateEstablished
	stateFinWait // we sent FIN
	stateDone
)

// Stats counts per-connection protocol events.
type Stats struct {
	SegsSent        int64
	SegsRcvd        int64
	BytesSent       int64
	BytesRcvd       int64
	Retransmits     int64
	FastRetransmits int64
	RTOs            int64
	DupAcksRcvd     int64
	AcksSent        int64
	AcksBeyondMax   int64 // ACKs above snd.max: must stay zero
}

// Conn is one TCP connection endpoint.
type Conn struct {
	stack *Stack
	cfg   Config

	laddr, raddr netsim.Addr
	lport, rport uint16

	state     connState
	err       error
	remoteFin bool
	finQueued bool
	finSent   bool
	finSeq    seqnum.V
	noDelay   bool

	// Send state.
	iss       seqnum.V
	sndBase   seqnum.V // sequence number of the send buffer's first byte
	sndUna    seqnum.V
	sndNxt    seqnum.V
	maxSent   seqnum.V
	peerWnd   uint32
	mss       int
	cwnd      int
	ssthresh  int
	dupacks   int
	recover   seqnum.V
	inFastRec bool
	inRTORec  bool
	highRtx   seqnum.V // top of the most recent hole retransmission
	rtxShift  uint     // RTO backoff exponent
	retries   int
	sacked    []sackBlock // scoreboard from peer SACKs
	peerSack  bool

	// RTT estimation.
	srtt, rttvar, rto time.Duration
	rttActive         bool
	rttSeq            seqnum.V
	rttStart          time.Duration

	// Receive state.
	rcvNxt      seqnum.V
	lastAdvWnd  uint32
	unackedSegs int
	ackPending  bool
	lastOOOSeq  seqnum.V
	lastOOOLen  int

	sb sendBuffer
	rb recvBuffer

	rtoTimer     sim.Timer
	delackTimer  sim.Timer
	persistTimer sim.Timer
	persistShift uint

	// onRTO and onDelack as timer callbacks, bound on first use.
	rtoFn, delackFn func()
	sackScratch     []sackBlock // SACK blocks of the ACK being built

	readCond, writeCond, connCond *sim.Cond
	notify                        func(transport.Ready)

	Stats Stats
}

func (s *Stack) newConn(laddr netsim.Addr, lport uint16, raddr netsim.Addr, rport uint16) *Conn {
	cfg := s.cfg
	c := &Conn{
		stack:     s,
		cfg:       cfg,
		laddr:     laddr,
		raddr:     raddr,
		lport:     lport,
		rport:     rport,
		noDelay:   cfg.NoDelay,
		rto:       rtoMin * 3, // conservative pre-measurement default
		readCond:  sim.NewCond(s.kernel()),
		writeCond: sim.NewCond(s.kernel()),
		connCond:  sim.NewCond(s.kernel()),
	}
	c.sb.limit = cfg.SndBuf
	c.rb.limit = cfg.RcvBuf
	c.mss = s.node.MTU(laddr, raddr) - netsim.IPHeaderSize - headerBaseSize
	c.iss = seqnum.V(s.kernel().Rand().Uint32())
	c.cwnd = initCwndBytes
	c.ssthresh = 1 << 30
	return c
}

// LocalAddr returns the local address.
func (c *Conn) LocalAddr() netsim.Addr { return c.laddr }

// LocalPort returns the local port.
func (c *Conn) LocalPort() uint16 { return c.lport }

// SetNotify registers fn to be invoked (in kernel context) with the
// readiness edges each inbound segment produced: ReadyRecv when in-order
// bytes (or the peer's FIN) became readable, ReadySend when an ack freed
// send-buffer space or the connection finished establishing, ReadyErr or
// ReadyClosed on teardown. This is the edge-triggered event hook the RPI
// modules feed into their readiness poller instead of select().
func (c *Conn) SetNotify(fn func(transport.Ready)) { c.notify = fn }

func (c *Conn) kernel() *sim.Kernel { return c.stack.kernel() }

func (c *Conn) fireNotify(ev transport.Ready) {
	if c.notify != nil && ev != 0 {
		c.notify(ev)
	}
}

// fail aborts the connection with err, waking all blocked processes.
func (c *Conn) fail(err error) {
	if c.state == stateDone {
		return
	}
	c.state = stateDone
	if c.err == nil {
		c.err = err
	}
	c.stopTimers()
	c.stack.removeConn(c)
	c.readCond.Broadcast()
	c.writeCond.Broadcast()
	c.connCond.Broadcast()
	c.fireNotify(transport.ReadyErr)
}

func (c *Conn) stopTimers() {
	c.rtoTimer.Stop()
	c.delackTimer.Stop()
	c.persistTimer.Stop()
}

// handleSegment is the inbound packet entry point, called in kernel
// context from the stack demux.
func (c *Conn) handleSegment(seg *segment) {
	c.Stats.SegsRcvd++
	if seg.Flags&flagRST != 0 {
		if c.state == stateSynSent || c.state == stateSynRcvd {
			c.fail(ErrReset)
		} else if c.state != stateClosed && c.state != stateDone {
			c.fail(ErrReset)
		}
		return
	}
	switch c.state {
	case stateSynSent:
		if seg.Flags&flagSYN != 0 && seg.Flags&flagACK != 0 && seg.Ack == c.iss.Add(1) {
			c.establish(seg)
			c.sendAckNow()
			c.connCond.Broadcast()
			c.fireNotify(transport.ReadySend) // open for business: writable
		}
	case stateSynRcvd:
		if seg.Flags&flagACK != 0 && seg.Flags&flagSYN == 0 && seg.Ack == c.iss.Add(1) {
			c.state = stateEstablished
			c.sndUna = c.iss.Add(1)
			c.peerWnd = seg.Wnd
			c.rtoTimer.Stop()
			c.rtxShift = 0
			c.retries = 0
			c.stack.completeAccept(c)
			c.connCond.Broadcast()
			ev := transport.ReadySend
			// Fall through to process any piggybacked data.
			if len(seg.Data) > 0 {
				before := c.rb.readable()
				c.processData(seg)
				if c.rb.readable() > before || c.remoteFin {
					ev |= transport.ReadyRecv
				}
			}
			c.fireNotify(ev)
		} else if seg.Flags&flagSYN != 0 {
			// Duplicate SYN: re-send SYN-ACK.
			c.sendSynAck()
		}
	case stateEstablished, stateFinWait:
		// Compute the readiness edges this segment produces: readable if
		// it grew the in-order queue or carried the peer's FIN, writable
		// if its ack freed send-buffer space. A pure duplicate ACK yields
		// no edge — and no wasted engine wake-up.
		beforeRecv := c.rb.readable()
		beforeFin := c.remoteFin
		beforeSpace := c.sb.space()
		if seg.Flags&flagACK != 0 {
			c.processAck(seg)
		}
		if len(seg.Data) > 0 || seg.Flags&flagFIN != 0 {
			c.processData(seg)
		}
		c.output()
		var ev transport.Ready
		if c.rb.readable() > beforeRecv || (c.remoteFin && !beforeFin) {
			ev |= transport.ReadyRecv
		}
		if c.state != stateDone && c.sb.space() > beforeSpace {
			ev |= transport.ReadySend
		}
		c.fireNotify(ev)
	}
}

// establish transitions a SynSent connection to Established using the
// peer's SYN-ACK.
func (c *Conn) establish(seg *segment) {
	c.state = stateEstablished
	c.rcvNxt = seg.Seq.Add(1)
	c.sndUna = c.iss.Add(1)
	c.sndNxt = c.sndUna
	c.maxSent = c.sndUna
	c.sndBase = c.sndUna
	c.peerWnd = seg.Wnd
	if seg.MSS != 0 && int(seg.MSS) < c.mss {
		c.mss = int(seg.MSS)
	}
	c.peerSack = !c.cfg.NoSack
	c.rtoTimer.Stop()
	c.rtxShift = 0
	c.retries = 0
	c.lastAdvWnd = uint32(c.rb.window())
}

// processAck handles the ACK, window, and SACK information on an
// inbound segment.
func (c *Conn) processAck(seg *segment) {
	// Record SACK scoreboard information regardless of ack movement.
	if len(seg.Sacks) > 0 {
		for _, b := range seg.Sacks {
			c.addSacked(b)
		}
	}
	oldPeerWnd := c.peerWnd
	c.peerWnd = seg.Wnd

	if seg.Ack.Greater(c.maxSent) && seg.Ack.Greater(c.sndUna) {
		// An acknowledgment for data we never sent indicates endpoint
		// state corruption; it is counted so tests can assert it never
		// happens (regression guard for a retransmission-overrun bug).
		c.Stats.AcksBeyondMax++
	}
	switch {
	case seg.Ack.Greater(c.sndUna) && seg.Ack.LessEq(c.maxSent):
		c.newAck(seg.Ack)
	case seg.Ack == c.sndUna:
		// Potential duplicate ACK: no data, no window change, and we
		// have outstanding data.
		if len(seg.Data) == 0 && seg.Flags&flagFIN == 0 &&
			c.outstanding() > 0 && seg.Wnd == oldPeerWnd {
			c.Stats.DupAcksRcvd++
			c.dupAck()
		}
	}
	if c.peerWnd > 0 {
		c.persistTimer.Stop()
		c.persistShift = 0
	} else if c.unsentBytes() > 0 && c.outstanding() == 0 {
		c.startPersist()
	}
}

// newAck processes a cumulative ACK that advances snd.una.
func (c *Conn) newAck(ack seqnum.V) {
	acked := ack.Sub(c.sndUna)
	// RTT sample (Karn: only if the timed segment was not retransmitted;
	// rttActive is cleared on any retransmission).
	if c.rttActive && ack.GreaterEq(c.rttSeq) {
		c.rttActive = false
		c.updateRTT(c.kernel().Now() - c.rttStart)
	}
	// Release acknowledged bytes from the send buffer. The FIN, if any,
	// occupies the sequence number just past the data.
	bufAcked := ack.Sub(c.sndBase)
	if int(bufAcked) > c.sb.len() {
		bufAcked = uint32(c.sb.len()) // FIN byte included in ack
	}
	c.sb.ack(int(bufAcked))
	c.sndBase = c.sndBase.Add(bufAcked)
	c.sndUna = ack
	c.pruneSacked()
	c.dupacks = 0
	c.retries = 0
	c.rtxShift = 0

	inRecovery := c.inFastRec || c.inRTORec
	if inRecovery {
		if ack.GreaterEq(c.recover) {
			// Full ACK: leave recovery.
			c.inFastRec = false
			c.inRTORec = false
			c.cwnd = c.ssthresh
			c.probeCwnd()
		} else {
			// Partial ACK (New-Reno): retransmit the next hole and
			// deflate the window by the amount acked.
			c.retransmitHole(c.sndUna)
			if c.inFastRec {
				c.cwnd -= int(acked)
				c.cwnd += c.mss
				if c.cwnd < c.mss {
					c.cwnd = c.mss
				}
			}
			c.resetRTO()
		}
	} else {
		c.growCwnd(int(acked))
	}

	if c.sndUna == c.sndNxt {
		c.rtoTimer.Stop()
		if c.finSent && c.state == stateFinWait && c.remoteFin {
			c.finish()
			return
		}
	} else {
		c.resetRTO()
	}
	c.writeCond.Broadcast()
}

// growCwnd applies slow start or congestion avoidance for acked bytes.
// TCP grows per-ACK ("ack counting"); the paper contrasts this with
// SCTP's byte counting.
func (c *Conn) growCwnd(acked int) {
	if c.cwnd < c.ssthresh {
		// Slow start: one MSS per ACK (classic BSD behaviour).
		c.cwnd += c.mss
	} else {
		// Congestion avoidance: MSS*MSS/cwnd per ACK.
		inc := c.mss * c.mss / c.cwnd
		if inc == 0 {
			inc = 1
		}
		c.cwnd += inc
	}
	if c.cwnd > c.sb.limit+c.mss {
		c.cwnd = c.sb.limit + c.mss
	}
	c.probeCwnd()
}

// dupAck counts duplicate ACKs and triggers fast retransmit at three.
func (c *Conn) dupAck() {
	if c.inFastRec {
		// Window inflation: each dup ACK means one segment left the
		// network.
		c.cwnd += c.mss
		// With SACK, use the scoreboard to retransmit further holes.
		if c.peerSack {
			c.retransmitHole(c.highRtx)
		}
		c.output()
		return
	}
	c.dupacks++
	if c.dupacks < 3 {
		return
	}
	// Fast retransmit.
	c.Stats.FastRetransmits++
	flight := c.outstanding()
	c.ssthresh = flight / 2
	if c.ssthresh < 2*c.mss {
		c.ssthresh = 2 * c.mss
	}
	c.cwnd = c.ssthresh + 3*c.mss
	c.inFastRec = true
	c.recover = c.sndNxt
	c.highRtx = c.sndUna
	c.probeCwnd()
	c.retransmitHole(c.sndUna)
	c.resetRTO()
}

// outstanding returns the number of unacknowledged sequence-space bytes.
func (c *Conn) outstanding() int { return int(c.sndNxt.Sub(c.sndUna)) }

// unsentBytes returns buffered bytes not yet transmitted.
func (c *Conn) unsentBytes() int {
	sent := int(c.sndNxt.Sub(c.sndBase))
	if c.finSent && sent > 0 {
		sent-- // FIN consumed one sequence number, not a buffer byte
	}
	n := c.sb.len() - sent
	if n < 0 {
		n = 0
	}
	return n
}

// addSacked merges a peer-reported SACK block into the scoreboard.
func (c *Conn) addSacked(b sackBlock) {
	if b.End.LessEq(b.Start) || b.End.LessEq(c.sndUna) {
		return
	}
	if b.Start.Less(c.sndUna) {
		b.Start = c.sndUna
	}
	out := c.sacked[:0]
	for _, s := range c.sacked {
		if s.End.Less(b.Start) || s.Start.Greater(b.End) {
			out = append(out, s)
			continue
		}
		if s.Start.Less(b.Start) {
			b.Start = s.Start
		}
		if s.End.Greater(b.End) {
			b.End = s.End
		}
	}
	// Insert keeping order.
	i := 0
	for i < len(out) && !b.Start.Less(out[i].Start) {
		i++
	}
	out = append(out, sackBlock{})
	copy(out[i+1:], out[i:])
	out[i] = b
	c.sacked = out
}

func (c *Conn) pruneSacked() {
	out := c.sacked[:0]
	for _, s := range c.sacked {
		if s.End.Greater(c.sndUna) {
			if s.Start.Less(c.sndUna) {
				s.Start = c.sndUna
			}
			out = append(out, s)
		}
	}
	c.sacked = out
}

// processData handles the payload and FIN of an inbound segment.
func (c *Conn) processData(seg *segment) {
	seq := seg.Seq
	data := seg.Data
	fin := seg.Flags&flagFIN != 0
	finSeq := seq.Add(uint32(len(data)))

	// Trim data already received.
	if seq.Less(c.rcvNxt) {
		skip := c.rcvNxt.Sub(seq)
		if int(skip) >= len(data) {
			data = nil
			seq = c.rcvNxt
		} else {
			data = data[skip:]
			seq = c.rcvNxt
		}
	}

	switch {
	case len(data) == 0 && !fin:
		if seg.Seq.Less(c.rcvNxt) {
			c.sendAckNow() // pure duplicate; re-ACK
		}
		return
	case seq == c.rcvNxt && len(data) > 0:
		// In-order data; honor the advertised window.
		win := c.rb.window()
		trimmedTail := false
		if len(data) > win {
			data = data[:win]
			trimmedTail = true
		}
		c.rb.deliver(data)
		c.rcvNxt = c.rcvNxt.Add(uint32(len(data)))
		c.Stats.BytesRcvd += int64(len(data))
		// Pull any now-contiguous out-of-order segments.
		hadOOO := len(c.rb.ooo) > 0
		c.rcvNxt = c.rb.extract(c.rcvNxt)
		c.probeDeliver()
		if hadOOO || trimmedTail {
			c.sendAckNow() // hole filled or data dropped: ACK immediately
		} else {
			c.scheduleAck()
		}
		c.readCond.Broadcast()
	case seq.Greater(c.rcvNxt) && len(data) > 0:
		// Out-of-order: buffer within the window and send an immediate
		// duplicate ACK carrying SACK blocks.
		win := c.rb.window()
		maxEnd := c.rcvNxt.Add(uint32(win))
		end := seq.Add(uint32(len(data)))
		if end.Greater(maxEnd) {
			over := end.Sub(maxEnd)
			if int(over) < len(data) {
				data = data[:len(data)-int(over)]
			} else {
				data = nil
			}
		}
		if len(data) > 0 {
			c.rb.insertOOO(seq, data)
		}
		c.lastOOOSeq = seq
		c.lastOOOLen = len(data)
		c.sendAckNow()
	}

	if fin && finSeq == c.rcvNxt && !c.remoteFin {
		c.rcvNxt = c.rcvNxt.Add(1)
		c.remoteFin = true
		c.sendAckNow()
		c.readCond.Broadcast()
		if c.finSent && c.sndUna == c.sndNxt {
			c.finish()
		}
	}
}

// finish tears the connection down after both directions closed
// cleanly. There is no TIME_WAIT: the simulator never reuses a
// connection four-tuple.
func (c *Conn) finish() {
	c.state = stateDone
	c.stopTimers()
	c.stack.removeConn(c)
	c.readCond.Broadcast()
	c.writeCond.Broadcast()
	c.connCond.Broadcast()
	c.fireNotify(transport.ReadyClosed)
}

func (c *Conn) updateRTT(m time.Duration) {
	if c.srtt == 0 {
		c.srtt = m
		c.rttvar = m / 2
	} else {
		d := c.srtt - m
		if d < 0 {
			d = -d
		}
		c.rttvar = (3*c.rttvar + d) / 4
		c.srtt = (7*c.srtt + m) / 8
	}
	c.rto = c.srtt + 4*c.rttvar
	if c.rto < rtoMin {
		c.rto = rtoMin
	}
	if c.rto > rtoMax {
		c.rto = rtoMax
	}
}
