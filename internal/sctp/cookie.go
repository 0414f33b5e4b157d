package sctp

import (
	"crypto/hmac"
	"crypto/sha256"
	"hash"
	"time"

	"repro/internal/netsim"
	"repro/internal/seqnum"
	"repro/internal/wire"
)

// stateCookie is the signed cookie exchanged during the four-way
// handshake. The receiver of INIT allocates no resources: everything
// needed to build the association is inside the cookie, authenticated
// with an HMAC so a spoofed COOKIE-ECHO cannot forge state (the paper's
// §3.5.2 "added protection").
type stateCookie struct {
	PeerPort   uint16
	PeerTag    uint32 // peer's initiate tag (our send verification tag)
	LocalTag   uint32 // our initiate tag (peer's send verification tag)
	PeerTSN    seqnum.V
	LocalTSN   seqnum.V
	OutStreams uint16
	InStreams  uint16
	IData      bool // RFC 8260 interleaving negotiated by both ends
	PeerAddrs  []netsim.Addr
	LocalAddrs []netsim.Addr
	IssuedAt   time.Duration // virtual time, for staleness checks
}

const cookieMACSize = sha256.Size

// encode serializes the cookie and appends its MAC under mac (the
// stack's keyed HMAC, reset by the caller).
func (c *stateCookie) encode(mac hash.Hash) []byte {
	w := wire.NewWriter(64)
	w.U16(c.PeerPort)
	w.U32(c.PeerTag)
	w.U32(c.LocalTag)
	w.U32(uint32(c.PeerTSN))
	w.U32(uint32(c.LocalTSN))
	w.U16(c.OutStreams)
	w.U16(c.InStreams)
	if c.IData {
		w.U8(1)
	} else {
		w.U8(0)
	}
	w.U64(uint64(c.IssuedAt))
	w.U16(uint16(len(c.PeerAddrs)))
	for _, a := range c.PeerAddrs {
		w.U32(uint32(a))
	}
	w.U16(uint16(len(c.LocalAddrs)))
	for _, a := range c.LocalAddrs {
		w.U32(uint32(a))
	}
	mac.Write(w.B)
	return mac.Sum(w.B)
}

// decodeCookie verifies the MAC under mac (the stack's keyed HMAC,
// reset by the caller) and parses the cookie. It returns ErrInitFailed
// on any tampering.
func decodeCookie(b []byte, mac hash.Hash) (*stateCookie, error) {
	if len(b) < cookieMACSize {
		return nil, ErrInitFailed
	}
	body, tag := b[:len(b)-cookieMACSize], b[len(b)-cookieMACSize:]
	mac.Write(body)
	var sum [cookieMACSize]byte
	if !hmac.Equal(mac.Sum(sum[:0]), tag) {
		return nil, ErrInitFailed
	}
	r := wire.NewReader(body)
	c := &stateCookie{}
	c.PeerPort = r.U16()
	c.PeerTag = r.U32()
	c.LocalTag = r.U32()
	c.PeerTSN = seqnum.V(r.U32())
	c.LocalTSN = seqnum.V(r.U32())
	c.OutStreams = r.U16()
	c.InStreams = r.U16()
	c.IData = r.U8() != 0
	c.IssuedAt = time.Duration(r.U64())
	np := int(r.U16())
	for i := 0; i < np; i++ {
		c.PeerAddrs = append(c.PeerAddrs, netsim.Addr(r.U32()))
	}
	nl := int(r.U16())
	for i := 0; i < nl; i++ {
		c.LocalAddrs = append(c.LocalAddrs, netsim.Addr(r.U32()))
	}
	if err := r.Err(); err != nil {
		return nil, ErrInitFailed
	}
	return c, nil
}
