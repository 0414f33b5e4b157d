package sctp

import (
	"repro/internal/seqnum"
	"repro/internal/transport"
)

// trySend fragments and queues one user message, or reports why it
// cannot: ErrMsgSize when the message exceeds the send buffer (forcing
// middleware-level chunking, paper §3.4/§3.6) and ErrWouldBlock when
// there is no space now.
func (a *Assoc) trySend(stream uint16, ppid uint32, data []byte) error {
	switch a.state {
	case aDone:
		if a.err != nil {
			return a.err
		}
		return ErrClosed
	case aShutdownPending, aShutdownSent, aShutdownReceived, aShutdownAckSent:
		return ErrClosed
	case aCookieWait, aCookieEchoed:
		return ErrWouldBlock // not yet established
	}
	if int(stream) >= a.numOut {
		return ErrBadStream
	}
	if len(data) > a.cfg.SndBuf {
		return ErrMsgSize
	}
	if a.sndUsed+len(data) > a.cfg.SndBuf {
		return ErrWouldBlock
	}
	a.enqueue(stream, ppid, data)
	a.transmit()
	return nil
}

// enqueue fragments one user message into chunks that fit the primary
// path's MTU and queues them in the stream scheduler. The message takes
// the stream's next SSN (DATA) or MID (I-DATA, RFC 8260, whose
// fragments are numbered by FSN from 0). A DATA chunk takes its TSN
// here; an I-DATA chunk takes it at transmit time (popOut), because the
// scheduler may interleave streams.
func (a *Assoc) enqueue(stream uint16, ppid uint32, data []byte) {
	seq := a.outSeq[stream]
	a.outSeq[stream]++
	maxSeg := a.paths[a.primary].mtu - a.dataHdrSize()
	// Copy: sendmsg semantics let the caller reuse its buffer as soon
	// as the call returns, but chunks live on until acknowledged. The
	// copy goes into a pooled buffer shared by all fragments and
	// recycled once every chunk is acknowledged (or the assoc dies).
	s := a.sock.stack
	mb := s.newMsgBuf(data)
	rest := mb.b
	for fsn := uint32(0); ; fsn++ {
		n := min(len(rest), maxSeg)
		flags := uint8(0)
		if fsn == 0 {
			flags |= flagBeginFragment
		}
		if n == len(rest) {
			flags |= flagEndFragment
		}
		mb.refs++
		oc := s.newChunk()
		*oc = outChunk{
			c:    chunk{Type: ctData, Flags: flags, Stream: stream, PPID: ppid, Data: rest[:n:n]},
			mb:   mb,
			size: n,
		}
		if a.useIData {
			oc.c.Type, oc.c.MID, oc.c.FSN = ctIData, seqnum.MID(seq), seqnum.FSN(fsn)
		} else {
			oc.c.SSN, oc.c.TSN = seqnum.S16(seq), a.nextTSN
			a.nextTSN = a.nextTSN.Add(1)
		}
		a.sched.push(stream, oc)
		rest = rest[n:]
		if len(rest) == 0 {
			break
		}
	}
	a.sndUsed += len(data)
	a.sock.Stats.MsgsSent++
	a.sock.Stats.BytesSent += int64(len(data))
}

// dataHdrSize returns the wire header size of this association's data
// chunks (DATA or I-DATA), used when bundling to the MTU.
func (a *Assoc) dataHdrSize() int {
	if a.useIData {
		return iDataChunkHeaderSize
	}
	return dataChunkHeaderSize
}

// popOut dequeues the next never-sent chunk. In I-DATA mode the chunk
// takes its TSN here — at transmit time — so TSN order equals wire
// order even when the scheduler interleaves streams; SACK gap and
// missing-report accounting depend on that.
func (a *Assoc) popOut() *outChunk {
	oc := a.sched.pop()
	if oc != nil && a.useIData {
		oc.c.TSN = a.nextTSN
		a.nextTSN = a.nextTSN.Add(1)
	}
	return oc
}

// activePath returns the path to transmit new data on: the primary if
// active, else the first active alternate.
func (a *Assoc) activePath() int {
	if a.paths[a.primary].active {
		return a.primary
	}
	for i, pt := range a.paths {
		if pt.active {
			return i
		}
	}
	return a.primary // nothing active; keep trying the primary
}

// rtxPath returns the path for retransmissions: an active path other
// than avoid when one exists (SCTP's retransmission policy, which the
// paper credits for throughput under loss when multihomed).
func (a *Assoc) rtxPath(avoid int) int {
	for i, pt := range a.paths {
		if pt.active && i != avoid {
			return i
		}
	}
	return a.activePath()
}

// totalFlight returns outstanding bytes across all paths.
func (a *Assoc) totalFlight() int {
	n := 0
	for _, pt := range a.paths {
		n += pt.flight
	}
	return n
}

// transmit pushes retransmissions first, then new data, bundling
// chunks up to the path MTU per packet.
func (a *Assoc) transmit() {
	if a.state == aDone || len(a.paths) == 0 {
		return
	}
	a.sendRetransmissions()
	a.sendNewData()
	a.maybeProgressShutdown()
}

// sendRetransmissions drains the retransmission queue. The first
// retransmission packet is exempt from cwnd (RFC 4960 fast-retransmit
// rule); subsequent packets respect the window of their path.
func (a *Assoc) sendRetransmissions() {
	hdr := a.dataHdrSize()
	exempt := true
	for a.rtxQ.Len() > 0 {
		oc := a.rtxQ.Front()
		if oc.sacked || oc.c.TSN.LessEq(a.lastCumAcked()) {
			a.dropRtx()
			continue
		}
		pi := a.rtxPath(oc.pathIdx)
		pt := a.paths[pi]
		if !exempt && pt.flight >= pt.cwnd {
			break
		}
		batch := a.batch[:0]
		size := 0
		for a.rtxQ.Len() > 0 {
			oc := a.rtxQ.Front()
			if oc.sacked {
				a.dropRtx()
				continue
			}
			if size+hdr+oc.size > pt.mtu && len(batch) > 0 {
				break
			}
			oc.inRtxQ = false
			a.rtxQ.Pop()
			batch = append(batch, oc)
			size += hdr + oc.size
		}
		a.batch = batch
		if len(batch) == 0 {
			break
		}
		a.sendDataPacket(pi, batch, true)
		exempt = false
	}
}

// dropRtx discards the sacked chunk at the head of rtxQ. A chunk the
// cumulative ack already took out of inflight has left its last queue
// and is recycled.
func (a *Assoc) dropRtx() {
	oc := a.rtxQ.Pop()
	oc.inRtxQ = false
	if oc.c.TSN.LessEq(a.lastCumAcked()) {
		a.sock.stack.freeChunk(oc)
	}
}

// pickCMTPath returns the next active path with congestion window
// space, rotating round-robin so new data stripes across all paths
// (Concurrent Multipath Transfer). Returns -1 when every path is full.
func (a *Assoc) pickCMTPath() int {
	n := len(a.paths)
	for i := 0; i < n; i++ {
		pi := (a.cmtNext + i) % n
		pt := a.paths[pi]
		if pt.active && pt.flight < pt.cwnd {
			a.cmtNext = (pi + 1) % n
			return pi
		}
	}
	return -1
}

// sendNewData transmits never-sent chunks within cwnd and peer rwnd, in
// the order the stream scheduler hands them out.
func (a *Assoc) sendNewData() {
	hdr := a.dataHdrSize()
	for a.sched.pending() > 0 {
		var pi int
		if a.cfg.CMT {
			pi = a.pickCMTPath()
			if pi < 0 {
				return
			}
		} else {
			pi = a.activePath()
		}
		pt := a.paths[pi]
		if pt.flight >= pt.cwnd {
			return
		}
		// Zero-window probe: when the peer advertises no space, keep
		// exactly one chunk in flight.
		probe := false
		if a.peerRwnd < a.sched.peek().size {
			if a.totalFlight() > 0 {
				return
			}
			probe = true
		}
		batch := a.batch[:0]
		size := 0
		budget := pt.cwnd - pt.flight
		for {
			oc := a.sched.peek()
			if oc == nil {
				break
			}
			if size+hdr+oc.size > pt.mtu && len(batch) > 0 {
				break
			}
			if len(batch) > 0 && (size+oc.size > budget || (a.peerRwnd < size+oc.size && !probe)) {
				break
			}
			a.popOut()
			batch = append(batch, oc)
			size += hdr + oc.size
			if probe {
				break
			}
		}
		a.batch = batch
		if len(batch) == 0 {
			return
		}
		a.sendDataPacket(pi, batch, false)
		if probe {
			return
		}
	}
}

// lastCumAcked returns the highest cumulatively acked TSN.
func (a *Assoc) lastCumAcked() seqnum.V {
	if a.inflight.Len() > 0 {
		return a.inflight.Front().c.TSN.Add(^uint32(0)) // first outstanding - 1
	}
	return a.nextTSN.Add(^uint32(0))
}

// sendDataPacket bundles the batch (plus any pending SACK) into one
// packet on path pi.
func (a *Assoc) sendDataPacket(pi int, batch []*outChunk, isRtx bool) {
	pt := a.paths[pi]
	chunks := a.chunks[:0]
	// Piggyback a pending SACK (bundling, Figure 1 of the paper).
	if a.sackNow || a.sackTimer.Active() {
		chunks = append(chunks, a.buildSack())
		a.dupTSNs = a.dupTSNs[:0] // the SACK is encoded below, before any new dup
		a.pktsNoSack = 0
		a.sackNow = false
		a.sackTimer.Stop()
		a.stats.SacksSent++
	}
	for _, oc := range batch {
		oc.pathIdx = pi
		oc.transmits++
		oc.sacked = false
		oc.inFlight = true
		pt.flight += oc.size
		if !isRtx {
			a.peerRwnd -= oc.size
			if a.peerRwnd < 0 {
				a.peerRwnd = 0
			}
			a.inflight.Push(oc)
		} else {
			a.stats.Retransmits++
			if pt.rttActive && pt.rttTSN == oc.c.TSN {
				pt.rttActive = false // Karn
			}
		}
		chunks = append(chunks, &oc.c)
		a.stats.ChunksSent++
		if oc.c.Type == ctIData {
			a.stats.IDataChunksSent++
		}
		a.stats.BytesSent += int64(oc.size)
	}
	if !isRtx && !pt.rttActive && len(batch) > 0 {
		pt.rttActive = true
		pt.rttTSN = batch[0].c.TSN
		pt.rttStart = a.kernel().Now()
	}
	pt.lastSend = a.kernel().Now()
	a.sendChunks(pt.src, pt.addr, chunks)
	clear(chunks) // drop the pointers; the packet is encoded
	a.chunks = chunks
	a.armT3(pi)
}

// armT3 starts the retransmission timer on path pi if not running.
func (a *Assoc) armT3(pi int) {
	pt := a.paths[pi]
	if pt.t3.Active() {
		return
	}
	pt.t3 = a.kernel().After(pt.rto, pt.t3Fn)
}

func (a *Assoc) restartT3(pi int) {
	a.paths[pi].t3.Stop()
	a.armT3(pi)
}

// onT3 handles retransmission timeout on path pi: back off, collapse
// the window to one MTU, and queue everything outstanding on that path
// for retransmission (on an alternate path when available).
func (a *Assoc) onT3(pi int) {
	if a.state == aDone {
		return
	}
	pt := a.paths[pi]
	if pt.flight == 0 {
		return
	}
	a.stats.T3Expiries++
	a.pathError(pi)
	if a.state == aDone {
		return
	}
	pt.ssthresh = pt.cwnd / 2
	if pt.ssthresh < 4*pt.mtu {
		pt.ssthresh = 4 * pt.mtu
	}
	pt.cwnd = pt.mtu
	pt.pba = 0
	pt.inFastRec = false
	pt.backoff(a.cfg.RTOMax)
	pt.rttActive = false
	// Requeue everything outstanding on this path. Their bytes leave
	// flight here (pt.flight = 0 below), so mark each chunk accordingly:
	// a SACK for the original transmission must not decrement flight a
	// second time.
	for i := 0; i < a.inflight.Len(); i++ {
		oc := a.inflight.At(i)
		if oc.pathIdx != pi {
			continue
		}
		oc.inFlight = false
		if !oc.sacked && !oc.inRtxQ {
			oc.inRtxQ = true
			a.rtxQ.Push(oc)
		}
	}
	pt.flight = 0
	a.probeCwnd(pt)
	a.transmit()
	a.sock.fireNotify(a.id, transport.ReadySend)
}

// processSackLikeCum applies the cumulative-ack information carried on
// a SHUTDOWN chunk.
func (a *Assoc) processSackLikeCum(cum seqnum.V) {
	a.processSack(&chunk{Type: ctSack, CumTSNAck: cum, ARwnd: uint32(a.peerRwnd)})
}

// processSack is the sender-side heart of SCTP loss recovery.
func (a *Assoc) processSack(c *chunk) {
	if a.state == aDone {
		return
	}
	cum := c.CumTSNAck
	ackedPerPath := make(map[int]int)
	newlyAcked := false

	// Cumulative acknowledgment.
	for a.inflight.Len() > 0 && a.inflight.Front().c.TSN.LessEq(cum) {
		oc := a.inflight.Pop()
		pt := a.paths[oc.pathIdx]
		if a.leaveFlight(oc) {
			ackedPerPath[oc.pathIdx] += oc.size
		}
		oc.sacked = true // fully acked; a sacked chunk is never sent again
		a.releaseBuf(oc)
		a.sndUsed -= oc.size
		newlyAcked = true
		if pt.rttActive && oc.c.TSN.GreaterEq(pt.rttTSN) {
			pt.rttActive = false
			if oc.transmits == 1 {
				a.updatePathRTT(pt, a.kernel().Now()-pt.rttStart)
			}
		}
		a.retire(oc)
	}

	// Gap-ack blocks: first mark SACKed chunks (recording, per path, the
	// highest TSN newly acknowledged), then count missing reports.
	var highestSacked seqnum.V
	haveGaps := len(c.Gaps) > 0
	if haveGaps {
		highestSacked = cum.Add(uint32(c.Gaps[len(c.Gaps)-1].End))
		newlySackedHigh := make(map[int]seqnum.V)
		for i := 0; i < a.inflight.Len(); i++ {
			oc := a.inflight.At(i)
			tsn := oc.c.TSN
			inGap := false
			for _, g := range c.Gaps {
				if tsn.GreaterEq(cum.Add(uint32(g.Start))) && tsn.LessEq(cum.Add(uint32(g.End))) {
					inGap = true
					break
				}
			}
			if !inGap {
				continue
			}
			if hi, ok := newlySackedHigh[oc.pathIdx]; !ok || tsn.Greater(hi) {
				newlySackedHigh[oc.pathIdx] = tsn
			}
			if !oc.sacked {
				oc.sacked = true
				a.releaseBuf(oc)
				a.leaveFlight(oc)
				pt := a.paths[oc.pathIdx]
				if pt.rttActive && tsn.GreaterEq(pt.rttTSN) {
					pt.rttActive = false
					if oc.transmits == 1 {
						a.updatePathRTT(pt, a.kernel().Now()-pt.rttStart)
					}
				}
			}
		}
		for i := 0; i < a.inflight.Len(); i++ {
			oc := a.inflight.At(i)
			if oc.sacked || oc.inRtxQ {
				continue
			}
			tsn := oc.c.TSN
			evidence := tsn.Less(highestSacked)
			if a.cfg.CMT {
				// Split fast retransmit: with data striped across paths,
				// a gap report only indicates loss if a *later TSN on
				// the same path* was acknowledged; cross-path reordering
				// is expected and must not trigger retransmissions.
				hi, ok := newlySackedHigh[oc.pathIdx]
				evidence = ok && tsn.Less(hi)
			}
			if evidence {
				oc.missing++
				if oc.missing >= fastRtxThreshold {
					a.markFastRtx(oc)
				}
			}
		}
	}

	if newlyAcked {
		a.assocErrors = 0
	}

	// Congestion window growth (byte counting — the paper's §4.1.1
	// contrast with TCP's ack counting) and fast-recovery exit. Paths
	// iterate in index order so probe callbacks fire deterministically.
	for pi := range a.paths {
		bytes, acked := ackedPerPath[pi]
		if !acked {
			continue
		}
		pt := a.paths[pi]
		pt.errors = 0
		if !pt.active {
			pt.active = true
		}
		if pt.inFastRec {
			if cum.GreaterEq(pt.recoverTSN) {
				pt.inFastRec = false
			} else {
				continue
			}
		}
		if pt.cwnd <= pt.ssthresh {
			// Slow start: grow by bytes acked, at most one MTU per SACK
			// (RFC 4960 byte counting). The ablation switch reverts to
			// TCP-style per-ACK growth halved by delayed SACKs.
			inc := bytes
			if inc > pt.mtu {
				inc = pt.mtu
			}
			if a.cfg.AckCountingCwnd {
				inc = pt.mtu / 2
			}
			pt.cwnd += inc
		} else {
			pt.pba += bytes
			if pt.pba >= pt.cwnd {
				pt.pba -= pt.cwnd
				pt.cwnd += pt.mtu
			}
		}
		max := a.cfg.SndBuf + pt.mtu
		if pt.cwnd > max {
			pt.cwnd = max
		}
		a.probeCwnd(pt)
	}

	// Peer receive window: advertised minus what is still in flight.
	a.peerRwnd = int(c.ARwnd) - a.outstandingUnsacked()
	if a.peerRwnd < 0 {
		a.peerRwnd = 0
	}

	// Retransmission timers.
	for pi, pt := range a.paths {
		if pt.flight == 0 && a.rtxQ.Len() == 0 {
			pt.t3.Stop()
		} else if pt.flight > 0 && newlyAcked {
			a.restartT3(pi)
		}
	}

	if newlyAcked {
		a.sndCond.Broadcast()
		a.sock.fireNotify(a.id, transport.ReadySend)
	}
	a.transmit()
}

// markFastRtx queues a chunk for fast retransmission, entering fast
// recovery on its path (halving once per recovery epoch).
func (a *Assoc) markFastRtx(oc *outChunk) {
	a.stats.FastRetransmits++
	pt := a.paths[oc.pathIdx]
	if !pt.inFastRec {
		pt.ssthresh = pt.cwnd / 2
		if pt.ssthresh < 4*pt.mtu {
			pt.ssthresh = 4 * pt.mtu
		}
		pt.cwnd = pt.ssthresh
		pt.pba = 0
		pt.inFastRec = true
		pt.recoverTSN = a.nextTSN.Add(^uint32(0))
	}
	// The chunk is no longer considered in flight on its path.
	a.leaveFlight(oc)
	oc.missing = 0
	oc.inRtxQ = true
	a.rtxQ.Push(oc)
	a.probeCwnd(pt)
}

// outstandingUnsacked returns in-flight bytes not yet sacked.
func (a *Assoc) outstandingUnsacked() int {
	n := 0
	for i := 0; i < a.inflight.Len(); i++ {
		if oc := a.inflight.At(i); !oc.sacked && !oc.inRtxQ {
			n += oc.size
		}
	}
	return n
}
