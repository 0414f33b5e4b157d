package sctp

import (
	"time"

	"repro/internal/fifo"
	"repro/internal/netsim"
	"repro/internal/seqnum"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

type assocState int

const (
	aClosed assocState = iota
	aCookieWait
	aCookieEchoed
	aEstablished
	aShutdownPending
	aShutdownSent
	aShutdownReceived
	aShutdownAckSent
	aDone
)

// Stats counts per-association protocol events.
type Stats struct {
	PacketsSent     int64
	PacketsRcvd     int64
	ChunksSent      int64
	ChunksRcvd      int64
	BytesSent       int64
	BytesRcvd       int64
	Retransmits     int64
	FastRetransmits int64
	T3Expiries      int64
	SacksSent       int64
	SacksRcvd       int64
	DupChunksRcvd   int64
	IDataChunksSent int64 // RFC 8260 I-DATA chunks transmitted
	IDataChunksRcvd int64 // RFC 8260 I-DATA chunks received
	BadTagDrops     int64
	Failovers       int64
	HeartbeatsSent  int64
	Restarts        int64 // RFC 4960 §5.2 in-place association restarts
}

// path holds per-destination-address transport state: SCTP keeps
// congestion control variables per path (paper §2.1).
type path struct {
	addr netsim.Addr // peer address
	src  netsim.Addr // local address used to reach it
	mtu  int         // payload MTU for DATA chunks

	cwnd, ssthresh, pba int
	flight              int
	active              bool
	errors              int

	srtt, rttvar, rto time.Duration
	rttActive         bool
	rttTSN            seqnum.V
	rttStart          time.Duration

	inFastRec  bool
	recoverTSN seqnum.V

	t3            sim.Timer
	hbTimer       sim.Timer
	t3Fn          func() // cached After callback; avoids a closure per T3 arm
	hbOutstanding bool
	hbNonce       uint64
	lastSend      time.Duration
}

// msgBuf is a pooled copy of one user message, shared by the chunks it
// was fragmented into. refs counts chunks still holding a share; the
// last release recycles the buffer (see Assoc.releaseBuf).
type msgBuf struct {
	b    []byte
	refs int32
}

// outChunk tracks one DATA chunk through transmission. Chunks come from
// the stack's free list and go back to it once they have left every
// queue (see Assoc.retire).
type outChunk struct {
	c         chunk
	mb        *msgBuf
	size      int
	pathIdx   int
	transmits int
	sacked    bool
	missing   int
	inRtxQ    bool
	// inFlight records whether this chunk's bytes are currently counted
	// in its path's flight. It is the accounting ground truth: flight is
	// only ever decremented for a chunk whose bytes are in it, so a SACK
	// arriving for a chunk that T3 or fast retransmit already pulled out
	// of flight cannot steal bytes that belong to other outstanding
	// chunks (which would zero flight early, stop the T3 timer, and
	// strand the still-unacked chunks forever).
	inFlight bool
}

// releaseBuf drops oc's share of its message copy; the last share
// recycles the copy. Idempotent: called when the chunk is first sacked
// and again defensively at teardown.
func (a *Assoc) releaseBuf(oc *outChunk) {
	mb := oc.mb
	if mb == nil {
		return
	}
	oc.mb = nil
	mb.refs--
	if mb.refs == 0 {
		wire.PutBuf(mb.b)
		mb.b = nil
		a.sock.stack.freeBufs.Put(mb)
	}
}

// retire recycles a chunk that left inflight through the cumulative ack,
// unless it still waits in rtxQ: sendRetransmissions retires it when it
// discards it there.
func (a *Assoc) retire(oc *outChunk) {
	if !oc.inRtxQ {
		a.sock.stack.freeChunk(oc)
	}
}

type tsnRange struct {
	start, end seqnum.V // inclusive
}

// Assoc is one SCTP association endpoint.
type Assoc struct {
	sock *Socket
	cfg  Config
	id   AssocID

	state      assocState
	err        error
	peerPort   uint16
	myTag      uint32
	peerTag    uint32
	localAddrs []netsim.Addr
	peerAddrs  []netsim.Addr
	paths      []*path
	primary    int
	cmtNext    int // round-robin cursor for Concurrent Multipath Transfer
	numOut     int
	numIn      int

	// Send side. Every never-sent chunk waits in sched: DATA in FIFO
	// order, I-DATA under Config.Scheduler.
	nextTSN  seqnum.V
	outSeq   []uint32 // next SSN (DATA) or MID (I-DATA) per outbound stream
	sched    sched
	rtxQ     fifo.Queue[*outChunk]
	inflight fifo.Queue[*outChunk] // TSN order
	sndUsed  int
	peerRwnd int
	sndCond  *sim.Cond

	// Scratch for assembling one outbound packet, reused for every one.
	batch  []*outChunk
	chunks []*chunk

	// I-DATA mode (RFC 8260), committed at handshake when both ends
	// enable Config.IData. Outbound messages take a per-stream MID
	// instead of an SSN, and their TSNs are assigned at transmit time so
	// TSN order equals wire order even when the scheduler interleaves
	// streams.
	useIData bool

	// Receive side.
	cumTSN      seqnum.V
	rcvRanges   []tsnRange
	dupTSNs     []seqnum.V
	reasm       reasm
	rcvUsed     int
	lastRwnd    int
	pktsNoSack  int
	sackTimer   sim.Timer
	sackFn      func() // cached delayed-SACK callback
	sackNow     bool
	sackScratch chunk // reused by buildSack; dead once encoded
	lastDataSrc netsim.Addr

	assocErrors   int
	reqStreams    int
	cookie        []byte
	initTimer     sim.Timer
	initTries     int
	shutdownTimer sim.Timer
	shutdownTries int
	shutdownFrom  int // path the peer's last SHUTDOWN arrived on
	connCond      *sim.Cond

	stats Stats
}

// Statistics returns a copy of the association counters.
func (a *Assoc) Statistics() Stats { return a.stats }

// ID returns the association identifier.
func (a *Assoc) ID() AssocID { return a.id }

// PrimaryPath returns the current primary destination address.
func (a *Assoc) PrimaryPath() netsim.Addr { return a.paths[a.primary].addr }

// PathActive reports whether the path to addr is active.
func (a *Assoc) PathActive(addr netsim.Addr) bool {
	for _, pt := range a.paths {
		if pt.addr == addr {
			return pt.active
		}
	}
	return false
}

// NumOutStreams returns the negotiated number of outbound streams.
func (a *Assoc) NumOutStreams() int { return a.numOut }

// SndBufAvailable returns free send-buffer space in bytes.
func (a *Assoc) SndBufAvailable() int { return a.cfg.SndBuf - a.sndUsed }

func (a *Assoc) kernel() *sim.Kernel { return a.sock.kernel() }

// newAssoc builds the shared association skeleton.
func (sk *Socket) newAssoc(peerPort uint16, peerAddrs []netsim.Addr) *Assoc {
	sk.stack.nextID++
	a := &Assoc{
		sock:       sk,
		cfg:        sk.cfg,
		id:         sk.stack.nextID,
		peerPort:   peerPort,
		peerAddrs:  peerAddrs,
		localAddrs: sk.stack.node.Addrs(),
		sndCond:    sim.NewCond(sk.kernel()),
		connCond:   sim.NewCond(sk.kernel()),
		peerRwnd:   4380, // until the peer advertises
	}
	a.sackFn = func() {
		if a.state != aDone {
			a.sendSack()
		}
	}
	a.reasm.stack, a.reasm.to = sk.stack, a
	for _, pa := range peerAddrs {
		key := addrPort{pa, peerPort}
		sk.assocs[key] = a
	}
	sk.byID[a.id] = a
	sk.Stats.AssocsOpened++
	return a
}

// buildPaths creates per-destination state once peer addresses are
// known. The local source for each peer address is the interface on the
// same subnet when one exists (the multihomed cluster pairs subnets).
func (a *Assoc) buildPaths() {
	a.paths = nil
	for _, pa := range a.peerAddrs {
		src := a.localAddrs[0]
		for _, la := range a.localAddrs {
			if la.Subnet() == pa.Subnet() {
				src = la
				break
			}
		}
		mtu := a.sock.stack.node.MTU(src, pa) - netsim.IPHeaderSize - commonHeaderSize
		pt := &path{
			addr:   pa,
			src:    src,
			mtu:    mtu,
			active: true,
			rto:    a.cfg.RTOInitial,
		}
		pt.cwnd = initialCwnd(mtu)
		pt.ssthresh = 1 << 30
		pi := len(a.paths)
		pt.t3Fn = func() { a.onT3(pi) }
		a.paths = append(a.paths, pt)
	}
	a.primary = 0
}

// initialCwnd follows RFC 4960: min(4*MTU, max(2*MTU, 4380)).
func initialCwnd(mtu int) int {
	v := 4380
	if v < 2*mtu {
		v = 2 * mtu
	}
	if v > 4*mtu {
		v = 4 * mtu
	}
	return v
}

// initStreams sizes stream state after negotiation. useIData must be
// committed before this is called: it picks the chunk kind the send
// queue and the reassembler carry.
func (a *Assoc) initStreams(out, in int) {
	a.numOut = out
	a.numIn = in
	a.outSeq = make([]uint32, out)
	policy := SchedFIFO
	if a.useIData {
		policy = a.cfg.Scheduler
	}
	a.sched.init(policy, out)
	a.reasm.init(in, a.useIData)
}

// UsesIData reports whether RFC 8260 interleaving was negotiated for
// this association (both endpoints enabled Config.IData).
func (a *Assoc) UsesIData() bool { return a.useIData }

// establish finalizes the handshake on either side.
func (a *Assoc) establish() {
	a.state = aEstablished
	a.startHeartbeats()
	a.notify(NotifyCommUp, nil)
	a.connCond.Broadcast()
	a.sndCond.Broadcast()
}

// handlePacket processes one inbound packet for this association.
func (a *Assoc) handlePacket(src, dst netsim.Addr, pkt *packet) {
	if a.state == aDone {
		return
	}
	a.stats.PacketsRcvd++
	hadData := false
	for _, c := range pkt.Chunks {
		switch c.Type {
		case ctData, ctIData:
			a.handleData(c)
			hadData = true
		case ctSack:
			a.stats.SacksRcvd++
			a.processSack(c)
		case ctHeartbeat:
			// Echo the heartbeat info back to the sender on the same
			// path.
			a.sendChunks(dst, src, []*chunk{{
				Type: ctHeartbeatAck, HBPath: c.HBPath, HBNonce: c.HBNonce,
			}})
		case ctHeartbeatAck:
			a.handleHeartbeatAck(c)
		case ctInit:
			a.handleInitCollision(src, dst, c)
		case ctInitAck:
			a.handleInitAck(src, c)
		case ctCookieAck:
			a.handleCookieAck()
		case ctCookieEcho:
			a.handleCookieEchoOnAssoc(src, dst, c)
		case ctShutdown:
			a.handleShutdown(src, c)
		case ctShutdownAck:
			a.handleShutdownAck(src, dst)
		case ctShutdownComplete:
			a.finish()
			return
		case ctAbort:
			a.fail(ErrAborted, false)
			return
		}
		if a.state == aDone {
			return
		}
	}
	if hadData {
		a.lastDataSrc = src
		a.sackPolicy()
	}
}

// inRanges reports whether tsn was already received (above cumTSN).
func (a *Assoc) inRanges(tsn seqnum.V) bool {
	for _, r := range a.rcvRanges {
		if tsn.GreaterEq(r.start) && tsn.LessEq(r.end) {
			return true
		}
	}
	return false
}

// insertRange records tsn as received, merging adjacent ranges.
func (a *Assoc) insertRange(tsn seqnum.V) {
	for i := range a.rcvRanges {
		r := &a.rcvRanges[i]
		if tsn == r.start.Add(^uint32(0)) { // tsn == start-1
			r.start = tsn
			a.mergeRanges()
			return
		}
		if tsn == r.end.Add(1) {
			r.end = tsn
			a.mergeRanges()
			return
		}
		if tsn.Less(r.start) {
			a.rcvRanges = append(a.rcvRanges, tsnRange{})
			copy(a.rcvRanges[i+1:], a.rcvRanges[i:])
			a.rcvRanges[i] = tsnRange{tsn, tsn}
			return
		}
	}
	a.rcvRanges = append(a.rcvRanges, tsnRange{tsn, tsn})
}

func (a *Assoc) mergeRanges() {
	out := a.rcvRanges[:0]
	for _, r := range a.rcvRanges {
		if n := len(out); n > 0 && r.start.LessEq(out[n-1].end.Add(1)) {
			if r.end.Greater(out[n-1].end) {
				out[n-1].end = r.end
			}
			continue
		}
		out = append(out, r)
	}
	a.rcvRanges = out
}

// acceptTSN runs the TSN-level acceptance shared by DATA and I-DATA:
// duplicate detection, receive-buffer admission, range bookkeeping and
// cumulative-TSN advance. It reports whether the chunk's payload was
// accepted for reassembly.
func (a *Assoc) acceptTSN(c *chunk) bool {
	a.stats.ChunksRcvd++
	tsn := c.TSN
	if tsn.LessEq(a.cumTSN) || a.inRanges(tsn) {
		a.stats.DupChunksRcvd++
		a.dupTSNs = append(a.dupTSNs, tsn)
		a.sackNow = true
		return false
	}
	if a.rcvUsed+len(c.Data) > a.cfg.RcvBuf {
		// No receive-buffer space: drop silently; the sender's rwnd
		// tracking normally prevents this.
		return false
	}
	if int(c.Stream) >= a.numIn {
		return false // invalid stream; a real stack sends an ERROR chunk
	}
	a.insertRange(tsn)
	a.rcvUsed += len(c.Data)
	a.stats.BytesRcvd += int64(len(c.Data))

	// Advance the cumulative TSN through the first range if contiguous.
	if len(a.rcvRanges) > 0 && a.rcvRanges[0].start == a.cumTSN.Add(1) {
		a.cumTSN = a.rcvRanges[0].end
		// Shift rather than head-slice, so the array is reused.
		a.rcvRanges = a.rcvRanges[:copy(a.rcvRanges, a.rcvRanges[1:])]
		if p := a.cfg.Probe; p != nil && p.CumTSN != nil {
			p.CumTSN(a, a.cumTSN)
		}
	}
	return true
}

// handleData processes one DATA or I-DATA chunk: the TSN machinery,
// then reassembly and per-stream ordered delivery.
func (a *Assoc) handleData(c *chunk) {
	if (c.Type == ctIData) != a.useIData {
		// Protocol violation: the chunk kind is not the negotiated one
		// (RFC 8260 §2.2). Count and drop, like a chunk for an invalid
		// stream.
		a.stats.ChunksRcvd++
		return
	}
	if !a.acceptTSN(c) {
		return
	}
	if a.useIData {
		a.stats.IDataChunksRcvd++
		a.probeIDataFrag(c)
	}
	a.reasm.feed(c)
}

// deliver hands the socket a message the reassembler releases in
// per-stream order. Different streams deliver independently: this is
// the multistreaming property that removes head-of-line blocking.
func (a *Assoc) deliver(m *Message) {
	m.Assoc, m.Peer = a.id, a.peerAddrs[0]
	if a.useIData {
		a.probeDeliverMID(m)
	} else {
		a.probeDeliver(m)
	}
	a.sock.enqueue(m)
}

// notify queues an association event on the socket.
func (a *Assoc) notify(kind NotificationType, err error) {
	m := a.sock.stack.newMsg()
	m.Assoc, m.Peer = a.id, a.peerAddrs[0]
	m.Notification, m.Err = kind, err
	a.sock.enqueue(m)
}

// creditRwnd returns receive-buffer space after the application reads a
// message, and advertises the opened window when it grew materially.
func (a *Assoc) creditRwnd(n int) {
	a.rcvUsed -= n
	if a.rcvUsed < 0 {
		a.rcvUsed = 0
	}
	if a.state != aEstablished {
		return
	}
	avail := a.cfg.RcvBuf - a.rcvUsed
	threshold := 2 * a.paths[a.primary].mtu
	if a.cfg.RcvBuf/2 < threshold {
		threshold = a.cfg.RcvBuf / 2
	}
	if avail-a.lastRwnd >= threshold {
		a.sendSack()
	}
}

// sackPolicy decides whether to SACK immediately or delay, per RFC
// 4960: immediately when there are gaps or duplicates, otherwise every
// second packet or after the delayed-SACK timer.
func (a *Assoc) sackPolicy() {
	if a.sackNow || len(a.rcvRanges) > 0 || len(a.dupTSNs) > 0 {
		a.sendSack()
		return
	}
	a.pktsNoSack++
	if a.pktsNoSack >= a.cfg.SackEveryPkts {
		a.sendSack()
		return
	}
	if !a.sackTimer.Active() {
		a.sackTimer = a.kernel().After(sackDelay, a.sackFn)
	}
}

// buildSack constructs the SACK chunk for the current receive state.
// Unlike TCP's four-block option limit, the number of gap-ack blocks is
// bounded only by the MTU (paper §4.1.1).
func (a *Assoc) buildSack() *chunk {
	// The SACK is encoded into a packet before the next buildSack call,
	// so one scratch chunk per assoc (with its gap slice) is reused for
	// every SACK instead of allocating each time.
	c := &a.sackScratch
	gaps := c.Gaps[:0]
	*c = chunk{
		Type:      ctSack,
		CumTSNAck: a.cumTSN,
		ARwnd:     uint32(a.cfg.RcvBuf - a.rcvUsed),
		DupTSNs:   a.dupTSNs,
		Gaps:      gaps,
	}
	maxGaps := (a.paths[a.primary].mtu - 20) / 4
	for _, r := range a.rcvRanges {
		if len(c.Gaps) >= maxGaps {
			break
		}
		c.Gaps = append(c.Gaps, gapBlock{
			Start: uint16(r.start.Sub(a.cumTSN)),
			End:   uint16(r.end.Sub(a.cumTSN)),
		})
	}
	return c
}

// sendSack emits a SACK to the source of the most recent data.
func (a *Assoc) sendSack() {
	if a.state == aDone {
		return
	}
	c := a.buildSack()
	a.dupTSNs = a.dupTSNs[:0] // the SACK is encoded below, before any new dup
	a.pktsNoSack = 0
	a.sackNow = false
	a.sackTimer.Stop()
	a.lastRwnd = int(c.ARwnd)
	a.stats.SacksSent++
	dst := a.lastDataSrc
	if dst == 0 {
		dst = a.paths[a.primary].addr
	}
	src := a.srcFor(dst)
	a.sendChunks(src, dst, []*chunk{c})
}

// pathTo returns the index of the path to the peer address addr, or the
// active path when addr is none of the peer's.
func (a *Assoc) pathTo(addr netsim.Addr) int {
	for i, pt := range a.paths {
		if pt.addr == addr {
			return i
		}
	}
	return a.activePath()
}

// srcFor picks the local source address for a peer destination.
func (a *Assoc) srcFor(dst netsim.Addr) netsim.Addr {
	for _, pt := range a.paths {
		if pt.addr == dst {
			return pt.src
		}
	}
	return a.localAddrs[0]
}

// sendChunks transmits a control-only packet.
func (a *Assoc) sendChunks(src, dst netsim.Addr, chunks []*chunk) {
	a.stats.PacketsSent++
	a.sock.stack.send(src, dst, &packet{
		SrcPort:         a.sock.port,
		DstPort:         a.peerPort,
		VerificationTag: a.peerTag,
		Chunks:          chunks,
	})
}

// fail terminates the association with an error.
func (a *Assoc) fail(err error, sendAbort bool) {
	if a.state == aDone {
		return
	}
	if sendAbort {
		pt := a.paths[a.primary]
		a.sendChunks(pt.src, pt.addr, []*chunk{{Type: ctAbort, Reason: err.Error()}})
	}
	a.err = err
	a.teardown()
	a.notify(NotifyCommLost, err)
}

// abort is the public-facing abort used by Socket.Abort.
func (a *Assoc) abort(reason string, notifyPeer bool) {
	a.fail(ErrAborted, notifyPeer)
	_ = reason
}

// finish completes a graceful shutdown.
func (a *Assoc) finish() {
	if a.state == aDone {
		return
	}
	a.teardown()
	a.notify(NotifyShutdownComplete, nil)
}

func (a *Assoc) teardown() {
	a.state = aDone
	a.release()
	a.initTimer.Stop()
	a.sackTimer.Stop()
	a.shutdownTimer.Stop()
	for _, pt := range a.paths {
		pt.t3.Stop()
		pt.hbTimer.Stop()
	}
	a.sock.removeAssoc(a)
	a.sndCond.Broadcast()
	a.connCond.Broadcast()
}

// release drops what the association still buffers (teardown and
// restart): the reassembler's fragments and parked messages, and the
// shares of pooled message copies that unacknowledged chunks hold. rtxQ
// is a subset of inflight, and releaseBuf is idempotent, so walking
// both is safe. Scheduler-queued chunks were never transmitted, so
// their shares are released here too. The chunks themselves are left
// to the garbage collector.
func (a *Assoc) release() {
	a.reasm.release()
	a.sched.drain(a.releaseBuf)
	for _, q := range []*fifo.Queue[*outChunk]{&a.rtxQ, &a.inflight} {
		for i := 0; i < q.Len(); i++ {
			a.releaseBuf(q.At(i))
		}
		q.Clear()
	}
}

// gracefulClose initiates the SCTP shutdown sequence. SCTP has no
// half-closed state (paper §3.5.2): both directions stop.
func (a *Assoc) gracefulClose() {
	switch a.state {
	case aEstablished:
		a.state = aShutdownPending
		a.maybeProgressShutdown()
	case aCookieWait, aCookieEchoed:
		a.fail(ErrClosed, true)
	}
}

// maybeProgressShutdown advances the shutdown handshake once all
// outbound data is acknowledged.
func (a *Assoc) maybeProgressShutdown() {
	if a.sched.pending() != 0 || a.rtxQ.Len() != 0 || a.inflight.Len() != 0 {
		return
	}
	switch a.state {
	case aShutdownPending:
		a.state = aShutdownSent
		a.sendShutdown(a.activePath())
	case aShutdownReceived:
		a.state = aShutdownAckSent
		a.sendShutdownAck(a.shutdownFrom)
	}
}

// sendShutdown sends SHUTDOWN on path pi and arms T2-shutdown for it.
func (a *Assoc) sendShutdown(pi int) {
	pt := a.paths[pi]
	a.sendChunks(pt.src, pt.addr, []*chunk{{Type: ctShutdown, CumTSNAck: a.cumTSN}})
	a.armShutdownTimer(pi, a.sendShutdown)
}

// sendShutdownAck sends SHUTDOWN ACK on path pi and arms T2-shutdown
// for it.
func (a *Assoc) sendShutdownAck(pi int) {
	pt := a.paths[pi]
	a.sendChunks(pt.src, pt.addr, []*chunk{{Type: ctShutdownAck}})
	a.armShutdownTimer(pi, a.sendShutdownAck)
}

// armShutdownTimer arms T2-shutdown for a chunk just sent on path pi.
// On expiry it backs off pi's RTO and resends on an alternate active
// path (RFC 4960 §6.4): heartbeats stop once shutdown begins, so a dead
// primary is never marked inactive, and retransmitting to it alone would
// ride the backoff to Association.Max.Retrans.
func (a *Assoc) armShutdownTimer(pi int, resend func(pi int)) {
	a.shutdownTimer.Stop()
	a.shutdownTimer = a.kernel().After(a.paths[pi].rto, func() {
		if a.state != aShutdownSent && a.state != aShutdownAckSent {
			return
		}
		a.shutdownTries++
		if a.shutdownTries > a.cfg.AssocMaxRetrans {
			a.fail(ErrTimeout, true)
			return
		}
		// Back off the RTO of the path that timed out, the same rule the
		// INIT and T3 timers follow.
		a.paths[pi].backoff(a.cfg.RTOMax)
		resend(a.rtxPath(pi))
	})
}

func (a *Assoc) handleShutdown(src netsim.Addr, c *chunk) {
	// The peer will not send more data; ack what we have and finish our
	// own sending. The SHUTDOWN ACK goes back to the address the
	// SHUTDOWN came from (RFC 4960 §6.4).
	a.shutdownFrom = a.pathTo(src)
	a.processSackLikeCum(c.CumTSNAck)
	switch a.state {
	case aEstablished, aShutdownPending:
		a.state = aShutdownReceived
		a.maybeProgressShutdown()
	case aShutdownSent:
		// Simultaneous shutdown: answer with SHUTDOWN-ACK.
		a.state = aShutdownAckSent
		a.sendShutdownAck(a.shutdownFrom)
	}
}

func (a *Assoc) handleShutdownAck(src, dst netsim.Addr) {
	switch a.state {
	case aShutdownSent, aShutdownAckSent:
		a.sendChunks(dst, src, []*chunk{{Type: ctShutdownComplete}})
		a.finish()
	}
}

// startHeartbeats arms the heartbeat timer on every path.
func (a *Assoc) startHeartbeats() {
	if a.cfg.HBDisable {
		return
	}
	for i := range a.paths {
		a.armHeartbeat(i)
	}
}

func (a *Assoc) armHeartbeat(i int) {
	pt := a.paths[i]
	// RFC 4960 staggers heartbeats by RTO plus jitter.
	d := a.cfg.HBInterval + pt.rto +
		time.Duration(a.kernel().Rand().Int63n(int64(a.cfg.HBInterval)/2+1))
	pt.hbTimer = a.kernel().After(d, func() { a.fireHeartbeat(i) })
}

func (a *Assoc) fireHeartbeat(i int) {
	if a.state != aEstablished {
		return
	}
	pt := a.paths[i]
	idle := a.kernel().Now()-pt.lastSend >= a.cfg.HBInterval
	if idle && !pt.hbOutstanding {
		pt.hbOutstanding = true
		pt.hbNonce = uint64(a.kernel().Now())
		a.stats.HeartbeatsSent++
		a.sendChunks(pt.src, pt.addr, []*chunk{{
			Type: ctHeartbeat, HBPath: pt.addr, HBNonce: pt.hbNonce,
		}})
		// Treat a missing HEARTBEAT-ACK within RTO as a path error.
		nonce := pt.hbNonce
		a.kernel().After(pt.rto, func() {
			if a.state != aEstablished || !pt.hbOutstanding || pt.hbNonce != nonce {
				return
			}
			pt.hbOutstanding = false
			// A missed heartbeat backs off the path RTO like any other
			// retransmission timeout (RFC 4960 §8.3 / §6.3.3 E2), so
			// successive probes of a dead path space out exponentially
			// up to RTOMax.
			pt.backoff(a.cfg.RTOMax)
			a.pathError(i)
		})
	}
	a.armHeartbeat(i)
}

func (a *Assoc) handleHeartbeatAck(c *chunk) {
	for _, pt := range a.paths {
		if pt.addr == c.HBPath && pt.hbOutstanding && pt.hbNonce == c.HBNonce {
			pt.hbOutstanding = false
			pt.errors = 0
			// The peer answered, so the association is alive: a HEARTBEAT
			// ACK clears its error count too (RFC 4960 §8.1), or dead-path
			// misses on an idle endpoint add up to an abort while other
			// paths are healthy.
			a.assocErrors = 0
			if !pt.active {
				pt.active = true
				if !a.paths[a.primary].active {
					a.choosePrimary()
				}
			}
			rtt := a.kernel().Now() - time.Duration(c.HBNonce)
			a.updatePathRTT(pt, rtt)
			return
		}
	}
}

// pathError counts an error against a path (and the association),
// deactivating it past Path.Max.Retrans: the failover mechanism of
// paper §3.5.1.
func (a *Assoc) pathError(i int) {
	pt := a.paths[i]
	pt.errors++
	a.assocErrors++
	if pt.errors > a.cfg.PathMaxRetrans && pt.active {
		pt.active = false
		if a.primary == i {
			a.choosePrimary()
		}
	}
	if a.assocErrors > a.cfg.AssocMaxRetrans {
		a.fail(ErrTimeout, false)
	}
}

// choosePrimary fails over to the first active alternate path.
func (a *Assoc) choosePrimary() {
	for i, pt := range a.paths {
		if pt.active && i != a.primary {
			from := a.paths[a.primary].addr
			a.primary = i
			a.stats.Failovers++
			if p := a.cfg.Probe; p != nil && p.Failover != nil {
				p.Failover(a, from, pt.addr)
			}
			return
		}
	}
	// No active alternate: keep the current primary and hope it
	// recovers (heartbeats keep probing).
}

// updatePathRTT folds one round-trip measurement into the path's RTO
// (RFC 4960 §6.3.1), clamped to [RTOMin, RTOMax].
func (a *Assoc) updatePathRTT(pt *path, m time.Duration) {
	if m <= 0 {
		return
	}
	var rto time.Duration
	pt.srtt, pt.rttvar, rto = transport.SmoothRTT(pt.srtt, pt.rttvar, m)
	pt.rto = min(max(rto, a.cfg.RTOMin), a.cfg.RTOMax)
}

// backoff doubles the path's RTO after a timeout, clamped to limit
// (RFC 4960 §6.3.3 E2).
func (pt *path) backoff(limit time.Duration) {
	pt.rto = min(2*pt.rto, limit)
}

// leaveFlight takes oc's bytes out of its path's flight. It reports
// whether they were still counted there: a chunk leaves flight once,
// whether by SACK, T3 or fast retransmit.
func (a *Assoc) leaveFlight(oc *outChunk) bool {
	if !oc.inFlight {
		return false
	}
	oc.inFlight = false
	pt := a.paths[oc.pathIdx]
	pt.flight = max(pt.flight-oc.size, 0)
	return true
}
