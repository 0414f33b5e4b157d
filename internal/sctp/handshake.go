package sctp

import (
	"repro/internal/netsim"
	"repro/internal/seqnum"
	"repro/internal/sim"
)

// Connect establishes an association with a peer reachable at raddrs
// (all its interface addresses; the first is the initial primary),
// blocking until the four-way handshake completes. streams of 0 uses
// the socket default. Simultaneous INIT collision between two sockets
// converges on a single association per RFC 4960 §5.2.1.
func (sk *Socket) Connect(p *sim.Proc, raddrs []netsim.Addr, rport uint16, streams int) (AssocID, error) {
	if len(raddrs) == 0 {
		return 0, ErrInitFailed
	}
	if streams <= 0 {
		streams = sk.cfg.Streams
	}
	if a := sk.assocs[addrPort{raddrs[0], rport}]; a != nil {
		return a.id, nil // already associated
	}
	a := sk.newAssoc(rport, raddrs)
	a.state = aCookieWait
	a.myTag = sk.nonZeroTag()
	a.nextTSN = seqnum.V(sk.kernel().Rand().Uint32())
	a.cumTSN = 0 // set from peer's initial TSN later
	a.buildPaths()
	a.reqStreams = streams
	a.sendInit()

	for a.state != aEstablished && a.state != aDone {
		a.connCond.Wait(p)
	}
	if a.state == aDone {
		if a.err != nil {
			return 0, a.err
		}
		return 0, ErrInitFailed
	}
	return a.id, nil
}

func (sk *Socket) nonZeroTag() uint32 {
	for {
		if t := sk.kernel().Rand().Uint32(); t != 0 {
			return t
		}
	}
}

// sendInit transmits (or retransmits) the INIT chunk. INIT carries
// verification tag 0 per RFC 4960.
func (a *Assoc) sendInit() {
	pt := a.paths[a.primary]
	init := &chunk{
		Type:        ctInit,
		InitiateTag: a.myTag,
		ARwnd:       uint32(a.cfg.RcvBuf),
		OutStreams:  uint16(a.reqStreams),
		InStreams:   uint16(a.reqStreams),
		InitialTSN:  a.nextTSN,
		Addrs:       a.localAddrs,
	}
	if a.cfg.IData {
		init.Flags |= initFlagIData
	}
	a.stats.PacketsSent++
	a.sock.stack.send(pt.src, pt.addr, &packet{
		SrcPort:         a.sock.port,
		DstPort:         a.peerPort,
		VerificationTag: 0,
		Chunks:          []*chunk{init},
	})
	a.armInitTimer(func() {
		if a.state == aCookieWait {
			a.sendInit()
		}
	})
}

func (a *Assoc) armInitTimer(resend func()) {
	a.initTimer.Stop()
	a.initTimer = a.kernel().After(a.paths[a.primary].rto, func() {
		if a.state != aCookieWait && a.state != aCookieEchoed {
			return
		}
		a.initTries++
		if a.initTries > initRetries {
			a.fail(ErrTimeout, false)
			return
		}
		a.paths[a.primary].backoff(a.cfg.RTOMax)
		resend()
	})
}

// handleInit answers an INIT on a listening socket with INIT-ACK. No
// state is allocated: everything lives in the signed cookie, which is
// how SCTP resists SYN-flood-style attacks (paper §3.5.2).
func (sk *Socket) handleInit(src, dst netsim.Addr, pkt *packet, c *chunk) {
	if !sk.listening {
		return
	}
	tag := sk.nonZeroTag()
	tsn := seqnum.V(sk.kernel().Rand().Uint32())
	sk.sendInitAck(src, dst, pkt.SrcPort, c, tag, tsn, sk.cfg.Streams, sk.stack.node.Addrs())
}

// sendInitAck answers INIT c from src:peerPort with an INIT-ACK that
// offers this end's initiate tag and initial TSN, at most maxStreams
// streams each way, I-DATA when both ends want it, and localAddrs. All
// of it is committed to a signed state cookie; nothing else is kept.
// The INIT-ACK carries the initiator's tag.
func (sk *Socket) sendInitAck(src, dst netsim.Addr, peerPort uint16, c *chunk,
	tag uint32, tsn seqnum.V, maxStreams int, localAddrs []netsim.Addr) {
	streams := min(int(c.OutStreams), maxStreams)
	if streams <= 0 {
		streams = 1
	}
	peerAddrs := c.Addrs
	if len(peerAddrs) == 0 {
		peerAddrs = []netsim.Addr{src}
	}
	idata := sk.cfg.IData && c.Flags&initFlagIData != 0
	cookie := &stateCookie{
		PeerPort:   peerPort,
		PeerTag:    c.InitiateTag,
		LocalTag:   tag,
		PeerTSN:    c.InitialTSN,
		LocalTSN:   tsn,
		OutStreams: uint16(streams),
		InStreams:  uint16(streams),
		IData:      idata,
		PeerAddrs:  peerAddrs,
		LocalAddrs: localAddrs,
		IssuedAt:   sk.kernel().Now(),
	}
	initAck := &chunk{
		Type:        ctInitAck,
		InitiateTag: tag,
		ARwnd:       uint32(sk.cfg.RcvBuf),
		OutStreams:  uint16(streams),
		InStreams:   uint16(streams),
		InitialTSN:  tsn,
		Addrs:       localAddrs,
		Cookie:      cookie.encode(sk.stack.cookieMAC()),
	}
	if idata {
		initAck.Flags |= initFlagIData
	}
	sk.sendControl(dst, src, peerPort, c.InitiateTag, initAck)
}

// handleInitAck (client side) advances CookieWait → CookieEchoed.
func (a *Assoc) handleInitAck(src netsim.Addr, c *chunk) {
	if a.state != aCookieWait {
		return
	}
	a.peerTag = c.InitiateTag
	a.cumTSN = c.InitialTSN.Add(^uint32(0)) // peerTSN - 1
	a.peerRwnd = int(c.ARwnd)
	streams := int(c.OutStreams)
	if streams > a.reqStreams {
		streams = a.reqStreams
	}
	// Interleaving is on only when we asked for it and the peer's
	// INIT-ACK confirms it; otherwise fall back to legacy DATA.
	a.useIData = a.cfg.IData && c.Flags&initFlagIData != 0
	a.initStreams(streams, streams)
	// Adopt the peer's full address list for multihoming.
	if len(c.Addrs) > 0 {
		a.adoptPeerAddrs(c.Addrs)
	}
	// The cookie aliases the pooled packet payload and outlives this
	// handler (it is echoed until COOKIE-ACK), so copy it out.
	a.cookie = append([]byte(nil), c.Cookie...)
	a.state = aCookieEchoed
	a.initTries = 0
	a.sendCookieEcho()
}

// adoptPeerAddrs re-keys the association under the peer's complete
// address list and rebuilds paths.
func (a *Assoc) adoptPeerAddrs(addrs []netsim.Addr) {
	sk := a.sock
	for _, pa := range a.peerAddrs {
		key := addrPort{pa, a.peerPort}
		if sk.assocs[key] == a {
			delete(sk.assocs, key)
		}
	}
	a.peerAddrs = addrs
	for _, pa := range addrs {
		sk.assocs[addrPort{pa, a.peerPort}] = a
	}
	oldRTO := a.paths[a.primary].rto
	a.buildPaths()
	a.paths[a.primary].rto = oldRTO
}

// sendCookieEcho transmits (or retransmits) the COOKIE-ECHO chunk.
func (a *Assoc) sendCookieEcho() {
	pt := a.paths[a.primary]
	a.sendChunks(pt.src, pt.addr, []*chunk{{Type: ctCookieEcho, Cookie: a.cookie}})
	a.armInitTimer(func() {
		if a.state == aCookieEchoed {
			a.sendCookieEcho()
		}
	})
}

// handleCookieAck (client side) completes the handshake.
func (a *Assoc) handleCookieAck() {
	if a.state != aCookieEchoed {
		return
	}
	a.initTimer.Stop()
	a.establish()
}

// handleInitCollision implements RFC 4960 §5.2.1: an INIT arriving for
// an association still in COOKIE-WAIT/COOKIE-ECHOED means both
// endpoints initiated simultaneously. Respond with an INIT-ACK that
// reuses our existing initiate tag and TSN so both handshakes converge
// on one consistent association.
func (a *Assoc) handleInitCollision(src, dst netsim.Addr, c *chunk) {
	if a.state == aEstablished {
		// RFC 4960 §5.2.2: an INIT on an established association means
		// the peer's endpoint restarted (it lost all state — the INIT
		// carries a fresh initiate tag). Answer with an INIT-ACK whose
		// cookie holds a NEW local tag and TSN; the restart itself
		// commits only when the signed COOKIE-ECHO returns (see
		// handleCookieEchoOnAssoc), so a spoofed INIT cannot reset us.
		a.handleRestartInit(src, dst, c)
		return
	}
	if a.state != aCookieWait && a.state != aCookieEchoed {
		return // INIT during shutdown: ignore
	}
	// Reuse our initiate tag and TSN, per the collision rule.
	a.sock.sendInitAck(src, dst, a.peerPort, c, a.myTag, a.nextTSN, a.reqStreams, a.localAddrs)
}

// handleRestartInit answers a restart INIT (RFC 4960 §5.2.2) on an
// established association: INIT-ACK with a new local tag and TSN,
// both committed to a signed cookie, state untouched until the echo.
func (a *Assoc) handleRestartInit(src, dst netsim.Addr, c *chunk) {
	sk := a.sock
	tag := sk.nonZeroTag()
	tsn := seqnum.V(sk.kernel().Rand().Uint32())
	sk.sendInitAck(src, dst, a.peerPort, c, tag, tsn, a.cfg.Streams, a.localAddrs)
}

// restartInPlace commits an RFC 4960 §5.2 association restart: same
// Assoc and AssocID, but every piece of transfer state — queues,
// TSNs, stream sequence numbers, congestion and path state — resets
// as if freshly established, and the new tags from the validated
// cookie are adopted. The application learns via NotifyRestart.
func (a *Assoc) restartInPlace(ck *stateCookie) {
	// Release everything the old incarnation buffered.
	a.release()
	a.sndUsed = 0
	a.rcvRanges = a.rcvRanges[:0]
	a.dupTSNs = a.dupTSNs[:0]
	a.rcvUsed = 0
	a.lastRwnd = 0
	a.pktsNoSack = 0
	a.sackNow = false
	a.sackTimer.Stop()
	a.lastDataSrc = 0
	a.assocErrors = 0

	// Adopt the restarted peer's identity and fresh sequence spaces.
	a.myTag = ck.LocalTag
	a.peerTag = ck.PeerTag
	a.nextTSN = ck.LocalTSN
	a.cumTSN = ck.PeerTSN.Add(^uint32(0))
	a.peerRwnd = 4380 // until the peer advertises again
	// The restarted handshake renegotiated interleaving; the cookie
	// records the agreed mode.
	a.useIData = ck.IData
	a.initStreams(int(ck.OutStreams), int(ck.InStreams))

	// Fresh path state (timers included), as for a new association.
	for _, pt := range a.paths {
		pt.t3.Stop()
		pt.hbTimer.Stop()
	}
	a.buildPaths()
	a.startHeartbeats()

	a.stats.Restarts++
	if p := a.cfg.Probe; p != nil && p.Restart != nil {
		p.Restart(a)
	}
	a.notify(NotifyRestart, nil)
	a.sndCond.Broadcast()
}

// handleCookieEchoOnAssoc processes a COOKIE-ECHO that arrives while
// the association already exists: our COOKIE-ACK was lost (established
// case), the peer restarted (§5.2 — the cookie carries tags that
// differ from the current ones), or this is the closing leg of an INIT
// collision.
func (a *Assoc) handleCookieEchoOnAssoc(src, dst netsim.Addr, c *chunk) {
	if a.state == aEstablished {
		if ck, err := decodeCookie(c.Cookie, a.sock.stack.cookieMAC()); err == nil &&
			(ck.LocalTag != a.myTag || ck.PeerTag != a.peerTag) {
			// A validated cookie with new tags: the peer restarted.
			a.restartInPlace(ck)
			pt := a.paths[a.primary]
			a.sendChunks(pt.src, pt.addr, []*chunk{{Type: ctCookieAck}})
			return
		}
		// Our COOKIE-ACK was lost; resend it.
		a.sendChunks(dst, src, []*chunk{{Type: ctCookieAck}})
		return
	}
	if a.state != aCookieWait && a.state != aCookieEchoed {
		return
	}
	ck, err := decodeCookie(c.Cookie, a.sock.stack.cookieMAC())
	if err != nil || ck.LocalTag != a.myTag {
		return
	}
	a.peerTag = ck.PeerTag
	a.cumTSN = ck.PeerTSN.Add(^uint32(0))
	if a.numOut == 0 {
		a.useIData = ck.IData
		a.initStreams(int(ck.OutStreams), int(ck.InStreams))
	}
	a.initTimer.Stop()
	a.establish()
	pt := a.paths[a.primary]
	a.sendChunks(pt.src, pt.addr, []*chunk{{Type: ctCookieAck}})
}

// handleCookieEcho (server side) validates the cookie and instantiates
// the association — the first moment the server commits any resources.
func (sk *Socket) handleCookieEcho(src, dst netsim.Addr, pkt *packet, c *chunk) {
	if !sk.listening {
		return
	}
	ck, err := decodeCookie(c.Cookie, sk.stack.cookieMAC())
	if err != nil {
		return
	}
	if sk.kernel().Now()-ck.IssuedAt > cookieLifetime {
		// Stale cookie: a real stack sends an ERROR; dropping forces
		// the peer to restart the handshake, which is equivalent here.
		return
	}
	if ck.PeerPort != pkt.SrcPort {
		return
	}
	a := sk.newAssoc(ck.PeerPort, ck.PeerAddrs)
	a.myTag = ck.LocalTag
	a.peerTag = ck.PeerTag
	a.nextTSN = ck.LocalTSN
	a.cumTSN = ck.PeerTSN.Add(^uint32(0))
	a.buildPaths()
	// ck.IData is the AND of both sides' preferences: we wrote it into
	// the cookie we signed at INIT time, so it is trustworthy here.
	a.useIData = ck.IData
	a.initStreams(int(ck.OutStreams), int(ck.InStreams))
	a.establish()
	// COOKIE-ACK, with which data could be bundled (the paper notes the
	// third and fourth handshake legs may carry user data).
	pt := a.paths[a.primary]
	a.sendChunks(pt.src, pt.addr, []*chunk{{Type: ctCookieAck}})
}
