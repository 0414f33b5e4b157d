package tcp

import (
	"repro/internal/netsim"
	"repro/internal/seqnum"
	"repro/internal/transport"
)

// output transmits as much buffered data as the congestion and peer
// windows allow, applying Nagle's algorithm unless NoDelay is set.
func (c *Conn) output() {
	if c.state != stateEstablished && c.state != stateFinWait {
		return
	}
	for {
		unsent := c.unsentBytes()
		if unsent == 0 {
			break
		}
		wnd := int(c.peerWnd)
		if c.cwnd < wnd {
			wnd = c.cwnd
		}
		avail := wnd - c.outstanding()
		if avail <= 0 {
			if c.peerWnd == 0 && c.outstanding() == 0 {
				c.startPersist()
			}
			break
		}
		n := c.mss
		if n > unsent {
			n = unsent
		}
		if n > avail {
			n = avail
		}
		// Nagle: do not send a sub-MSS segment while data is in flight.
		if !c.noDelay && n < c.mss && c.outstanding() > 0 && !c.finQueued {
			break
		}
		off := int(c.sndNxt.Sub(c.sndBase))
		data := c.sb.slice(off, n)
		c.sendData(c.sndNxt, data, false)
		c.sndNxt = c.sndNxt.Add(uint32(len(data)))
		if c.sndNxt.Greater(c.maxSent) {
			c.maxSent = c.sndNxt
		}
	}
	// Send the FIN once all data is out.
	if c.finQueued && !c.finSent && c.unsentBytes() == 0 {
		c.finSeq = c.sndBase.Add(uint32(c.sb.len()))
		if c.sndNxt == c.finSeq {
			c.finSent = true
			c.state = stateFinWait
			c.sndNxt = c.sndNxt.Add(1)
			if c.sndNxt.Greater(c.maxSent) {
				c.maxSent = c.sndNxt
			}
			c.sendSegment(&segment{
				Flags: flagACK | flagFIN,
				Seq:   c.finSeq,
				Ack:   c.rcvNxt,
				Wnd:   uint32(c.rb.window()),
			})
			c.resetRTO()
		}
	}
}

// sendData transmits one data segment starting at seq.
func (c *Conn) sendData(seq seqnum.V, data []byte, isRtx bool) {
	if len(data) == 0 {
		return
	}
	if !isRtx && !c.rttActive {
		// Time this segment for RTT estimation.
		c.rttActive = true
		c.rttSeq = seq.Add(uint32(len(data)))
		c.rttStart = c.kernel().Now()
	}
	if isRtx {
		c.Stats.Retransmits++
		c.rttActive = false // Karn's algorithm
	}
	c.Stats.BytesSent += int64(len(data))
	c.sendSegment(&segment{
		Flags: flagACK,
		Seq:   seq,
		Ack:   c.rcvNxt,
		Wnd:   uint32(c.rb.window()),
		Data:  data,
	})
	// Piggybacked ACK covers anything pending.
	c.cancelPendingAck()
	if !c.rtoTimer.Active() {
		c.resetRTO()
	}
}

// sackedRangeContaining returns the scoreboard range covering q, if
// any.
func (c *Conn) sackedRangeContaining(q seqnum.V) (sackBlock, bool) {
	for _, s := range c.sacked {
		if q.GreaterEq(s.Start) && q.Less(s.End) {
			return s, true
		}
	}
	return sackBlock{}, false
}

// retransmitHole retransmits the first un-SACKed segment at or above
// from (and at or above snd.una). It never transmits past snd.nxt —
// bytes beyond it are unsent data that must go through output() — and
// it skips SACKed data by walking to the end of each scoreboard range.
// It returns whether anything was sent.
func (c *Conn) retransmitHole(from seqnum.V) bool {
	seq := seqnum.Max(from, c.sndUna)
	for seq.Less(c.sndNxt) {
		if c.finSent && seq == c.finSeq {
			// Retransmit the FIN.
			c.sendSegment(&segment{
				Flags: flagACK | flagFIN,
				Seq:   c.finSeq,
				Ack:   c.rcvNxt,
				Wnd:   uint32(c.rb.window()),
			})
			c.Stats.Retransmits++
			c.highRtx = seq.Add(1)
			c.resetRTO()
			return true
		}
		if s, ok := c.sackedRangeContaining(seq); ok {
			seq = s.End
			continue
		}
		// Hole at seq: bounded by the MSS, snd.nxt, the FIN sequence,
		// and the next SACKed range.
		n := c.mss
		if rem := int(c.sndNxt.Sub(seq)); n > rem {
			n = rem
		}
		if c.finSent && int(c.finSeq.Sub(seq)) < n {
			n = int(c.finSeq.Sub(seq))
		}
		for _, s := range c.sacked {
			if s.Start.Greater(seq) && int(s.Start.Sub(seq)) < n {
				n = int(s.Start.Sub(seq))
			}
		}
		if n <= 0 {
			return false
		}
		off := int(seq.Sub(c.sndBase))
		data := c.sb.slice(off, n)
		if len(data) == 0 {
			return false
		}
		c.sendData(seq, data, true)
		end := seq.Add(uint32(len(data)))
		if end.Greater(c.highRtx) {
			c.highRtx = end
		}
		c.resetRTO()
		return true
	}
	return false
}

// sendSegment fills in addressing and transmits a segment.
func (c *Conn) sendSegment(seg *segment) {
	seg.SrcPort = c.lport
	seg.DstPort = c.rport
	c.Stats.SegsSent++
	c.stack.node.Send(c.stack.node.NewPacket(c.laddr, c.raddr, netsim.ProtoTCP, seg.encode()))
}

func (c *Conn) sendSyn() {
	c.sndNxt = c.iss.Add(1)
	c.maxSent = c.sndNxt
	c.sndUna = c.iss
	c.sndBase = c.iss.Add(1)
	c.sendSegment(&segment{
		Flags: flagSYN,
		Seq:   c.iss,
		Wnd:   uint32(c.rb.window()),
		MSS:   uint16(c.mss),
	})
}

func (c *Conn) sendSynAck() {
	c.sendSegment(&segment{
		Flags: flagSYN | flagACK,
		Seq:   c.iss,
		Ack:   c.rcvNxt,
		Wnd:   uint32(c.rb.window()),
		MSS:   uint16(c.mss),
	})
}

// scheduleAck implements the delayed-ACK policy: an ACK is sent after
// ackEverySegs in-order segments or when the delAck timer fires.
func (c *Conn) scheduleAck() {
	c.unackedSegs++
	if c.unackedSegs >= ackEverySegs {
		c.sendAckNow()
		return
	}
	c.ackPending = true
	if !c.delackTimer.Active() {
		if c.delackFn == nil {
			c.delackFn = c.onDelack
		}
		c.delackTimer = c.kernel().After(delAck, c.delackFn)
	}
}

// onDelack fires the delayed-ACK timer.
func (c *Conn) onDelack() {
	if c.ackPending {
		c.sendAckNow()
	}
}

func (c *Conn) cancelPendingAck() {
	c.ackPending = false
	c.unackedSegs = 0
	c.delackTimer.Stop()
}

// sendAckNow emits a pure ACK, attaching SACK blocks when the
// reassembly queue is non-empty and SACK was negotiated.
func (c *Conn) sendAckNow() {
	c.cancelPendingAck()
	seg := &segment{
		Flags: flagACK,
		Seq:   c.sndNxt,
		Ack:   c.rcvNxt,
		Wnd:   uint32(c.rb.window()),
	}
	if !c.cfg.NoSack {
		c.sackScratch = c.rb.sackBlocks(c.sackScratch[:0], c.cfg.MaxSackBlocks, c.lastOOOSeq, c.lastOOOLen)
		seg.Sacks = c.sackScratch
	}
	c.lastAdvWnd = seg.Wnd
	c.Stats.AcksSent++
	c.sendSegment(seg)
}

// maybeSendWindowUpdate re-advertises the window after the application
// drains the receive buffer, mirroring the BSD "window update" rule.
func (c *Conn) maybeSendWindowUpdate() {
	w := uint32(c.rb.window())
	if w < c.lastAdvWnd {
		return
	}
	opened := int(w - c.lastAdvWnd)
	threshold := 2 * c.mss
	if c.rb.limit/2 < threshold {
		threshold = c.rb.limit / 2
	}
	if opened >= threshold {
		c.sendAckNow()
	}
}

// resetRTO (re)arms the retransmission timer with the current backoff.
func (c *Conn) resetRTO() {
	c.rtoTimer.Stop()
	d := c.rto << c.rtxShift
	if d > rtoMax {
		d = rtoMax
	}
	if c.rtoFn == nil {
		c.rtoFn = c.onRTO
	}
	c.rtoTimer = c.kernel().After(d, c.rtoFn)
}

// onRTO fires when the retransmission timer expires.
func (c *Conn) onRTO() {
	if c.state == stateDone || c.sndUna == c.sndNxt {
		return
	}
	// A peer advertising a zero window is alive and acking; keep
	// probing (persist-style) instead of counting toward the
	// connection-death threshold.
	if c.peerWnd > 0 {
		c.retries++
	}
	if c.retries > maxRetries {
		c.fail(ErrTimeout)
		return
	}
	c.Stats.RTOs++
	flight := c.outstanding()
	c.ssthresh = flight / 2
	if c.ssthresh < 2*c.mss {
		c.ssthresh = 2 * c.mss
	}
	c.cwnd = c.mss
	c.rtxShift++
	c.dupacks = 0
	c.inFastRec = false
	c.inRTORec = true
	c.recover = c.sndNxt
	c.highRtx = c.sndUna
	// Conservatively forget SACK information (the reneging rule),
	// keeping the scoreboard's array.
	c.sacked = c.sacked[:0]
	c.rttActive = false
	c.probeCwnd()
	c.retransmitHole(c.sndUna)
	c.resetRTO()
	c.fireNotify(transport.ReadySend)
}

// startPersist arms the zero-window probe timer.
func (c *Conn) startPersist() {
	if c.persistTimer.Active() {
		return
	}
	d := c.rto << c.persistShift
	if d > rtoMax {
		d = rtoMax
	}
	c.persistTimer = c.kernel().After(d, func() {
		if c.state == stateDone || c.peerWnd > 0 || c.unsentBytes() == 0 {
			return
		}
		// Send a one-byte window probe. Like BSD's forced output, the
		// probe is real data and advances snd.nxt: if the window opened
		// between the peer's last ACK and now, the peer accepts the
		// byte, and its ACK must stay within our snd.max accounting.
		off := int(c.sndNxt.Sub(c.sndBase))
		data := c.sb.slice(off, 1)
		if len(data) == 1 {
			c.sendSegment(&segment{
				Flags: flagACK,
				Seq:   c.sndNxt,
				Ack:   c.rcvNxt,
				Wnd:   uint32(c.rb.window()),
				Data:  data,
			})
			c.sndNxt = c.sndNxt.Add(1)
			if c.sndNxt.Greater(c.maxSent) {
				c.maxSent = c.sndNxt
			}
			if !c.rtoTimer.Active() {
				c.resetRTO()
			}
		}
		if c.persistShift < 6 {
			c.persistShift++
		}
		c.startPersist()
	})
}
