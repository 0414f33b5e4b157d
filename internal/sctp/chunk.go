// Package sctp implements a userspace SCTP (RFC 4960 era, as the paper
// used it) over the simulated network: four-way handshake with a signed
// state cookie, verification tags, message-oriented DATA chunks with
// fragmentation and bundling, independent streams with per-stream
// sequence numbers, SACKs with unbounded gap-ack blocks, byte-counting
// congestion control with per-destination state, multihoming with
// heartbeats and failover, one-to-many and one-to-one sockets, and the
// CRC32c checksum (offloadable, as the paper's modified kernel did).
package sctp

import (
	"errors"
	"fmt"

	"repro/internal/netsim"
	"repro/internal/seqnum"
	"repro/internal/wire"
)

// errBadCRC marks a packet rejected by CRC32c verification; the stack
// counts these drops separately from other decode failures.
var errBadCRC = errors.New("sctp: bad CRC32c")

// Chunk type identifiers (RFC 4960 §3.2).
const (
	ctData             = 0
	ctInit             = 1
	ctInitAck          = 2
	ctSack             = 3
	ctHeartbeat        = 4
	ctHeartbeatAck     = 5
	ctAbort            = 6
	ctShutdown         = 7
	ctShutdownAck      = 8
	ctCookieEcho       = 10
	ctCookieAck        = 11
	ctShutdownComplete = 14
	ctIData            = 64 // RFC 8260 interleaved DATA
)

// DATA chunk flags.
const (
	flagEndFragment   = 0x01 // E bit
	flagBeginFragment = 0x02 // B bit
	flagUnordered     = 0x04 // U bit (not used by the MPI middleware)
)

// ABORT / SHUTDOWN-COMPLETE chunk flags.
const (
	abortTBit = 0x01 // T bit: verification tag is reflected, not ours (RFC 4960 §8.5.1)
)

// INIT / INIT-ACK chunk flags. RFC 8260 negotiates interleaving via a
// Supported Extensions parameter; this stack compresses that to one
// flag bit, which keeps legacy interop semantics identical (both sides
// must advertise it or the association uses plain DATA).
const (
	initFlagIData = 0x01
)

// commonHeaderSize is the SCTP common header: src port, dst port,
// verification tag, checksum.
const commonHeaderSize = 12

// dataChunkHeaderSize is the DATA chunk header (type, flags, length,
// TSN, stream, SSN, PPID).
const dataChunkHeaderSize = 16

// iDataChunkHeaderSize is the I-DATA chunk header (RFC 8260 §2.1):
// type, flags, length, TSN, stream, reserved, MID, then PPID on the
// first fragment (B bit set) or FSN on every later one.
const iDataChunkHeaderSize = 20

// chunk is the parsed form of any chunk. Fields are a union across
// chunk types; Type selects which are meaningful.
type chunk struct {
	Type  uint8
	Flags uint8

	// DATA
	TSN    seqnum.V
	Stream uint16
	SSN    seqnum.S16
	PPID   uint32
	Data   []byte

	// I-DATA (RFC 8260). The wire overlays PPID and FSN: a begin
	// fragment carries the PPID (its FSN is implicitly 0), every later
	// fragment carries the FSN instead.
	MID seqnum.MID
	FSN seqnum.FSN

	// INIT / INIT-ACK
	InitiateTag uint32
	ARwnd       uint32
	OutStreams  uint16
	InStreams   uint16
	InitialTSN  seqnum.V
	Addrs       []netsim.Addr
	Cookie      []byte // INIT-ACK, COOKIE-ECHO

	// SACK
	CumTSNAck seqnum.V
	Gaps      []gapBlock
	DupTSNs   []seqnum.V

	// buf is the pooled IP packet whose payload Data aliases, when the
	// chunk was decoded from the wire. Reassembly retains it instead of
	// copying the fragment.
	buf *netsim.Packet

	// HEARTBEAT / HEARTBEAT-ACK
	HBPath  netsim.Addr
	HBNonce uint64

	// ABORT / errors
	Reason string
}

// gapBlock is a SACK gap-ack block; offsets are relative to CumTSNAck.
type gapBlock struct {
	Start, End uint16 // TSNs [cum+Start, cum+End] have been received
}

// wireSize returns the serialized size of the chunk (including the
// 4-byte chunk header), before padding.
func (c *chunk) wireSize() int {
	switch c.Type {
	case ctData:
		return dataChunkHeaderSize + len(c.Data)
	case ctIData:
		return iDataChunkHeaderSize + len(c.Data)
	case ctInit, ctInitAck:
		return 4 + 16 + 2 + 4*len(c.Addrs) + 2 + len(c.Cookie)
	case ctSack:
		return 4 + 12 + 4*len(c.Gaps) + 4*len(c.DupTSNs)
	case ctHeartbeat, ctHeartbeatAck:
		return 4 + 12
	case ctShutdown:
		return 4 + 4
	case ctAbort:
		return 4 + 2 + len(c.Reason)
	default:
		return 4
	}
}

func (c *chunk) encode(w *wire.Writer) {
	w.U8(c.Type)
	w.U8(c.Flags)
	w.U16(uint16(c.wireSize()))
	switch c.Type {
	case ctData:
		w.U32(uint32(c.TSN))
		w.U16(c.Stream)
		w.U16(uint16(c.SSN))
		w.U32(c.PPID)
		w.Bytes(c.Data)
	case ctIData:
		w.U32(uint32(c.TSN))
		w.U16(c.Stream)
		w.U16(0) // reserved
		w.U32(uint32(c.MID))
		if c.Flags&flagBeginFragment != 0 {
			w.U32(c.PPID)
		} else {
			w.U32(uint32(c.FSN))
		}
		w.Bytes(c.Data)
	case ctInit, ctInitAck:
		w.U32(c.InitiateTag)
		w.U32(c.ARwnd)
		w.U16(c.OutStreams)
		w.U16(c.InStreams)
		w.U32(uint32(c.InitialTSN))
		w.U16(uint16(len(c.Addrs)))
		for _, a := range c.Addrs {
			w.U32(uint32(a))
		}
		w.U16(uint16(len(c.Cookie)))
		w.Bytes(c.Cookie)
	case ctSack:
		w.U32(uint32(c.CumTSNAck))
		w.U32(c.ARwnd)
		w.U16(uint16(len(c.Gaps)))
		w.U16(uint16(len(c.DupTSNs)))
		for _, g := range c.Gaps {
			w.U16(g.Start)
			w.U16(g.End)
		}
		for _, d := range c.DupTSNs {
			w.U32(uint32(d))
		}
	case ctHeartbeat, ctHeartbeatAck:
		w.U32(uint32(c.HBPath))
		w.U64(c.HBNonce)
	case ctShutdown:
		w.U32(uint32(c.CumTSNAck))
	case ctAbort:
		w.U16(uint16(len(c.Reason)))
		w.Bytes([]byte(c.Reason))
	case ctCookieEcho:
		// Cookie carried as the chunk value.
	}
	if c.Type == ctCookieEcho {
		// Fix up: cookie-echo carries raw cookie; re-encode length.
		panic("sctp: cookie-echo must be encoded via encodeCookieEcho")
	}
}

// encodeCookieEcho writes a COOKIE-ECHO chunk (whose value is the raw
// cookie). The flags byte is zero on every chunk this stack originates
// (RFC 4960 §3.3.11), but it is passed through so re-encoding a decoded
// chunk preserves it — the peer ignores it either way.
func encodeCookieEcho(w *wire.Writer, flags uint8, cookie []byte) {
	w.U8(ctCookieEcho)
	w.U8(flags)
	w.U16(uint16(4 + len(cookie)))
	w.Bytes(cookie)
}

// decodeChunk decodes one chunk into c, which it fully resets first.
// The Gaps and DupTSNs backing arrays survive every reset, whatever the
// chunk type and gap count, so steady-state SACK decoding on a reused
// packet is allocation-free; every other slice field starts nil because
// receive-side code is allowed to retain Addrs (and copies
// Cookie/Reason).
func decodeChunk(r *wire.Reader, c *chunk) error {
	*c = chunk{Gaps: c.Gaps[:0], DupTSNs: c.DupTSNs[:0]}
	c.Type = r.U8()
	c.Flags = r.U8()
	length := int(r.U16())
	if length < 4 {
		return fmt.Errorf("sctp: bad chunk length %d", length)
	}
	body := r.Bytes(length - 4)
	if err := r.Err(); err != nil {
		return err
	}
	br := wire.NewReader(body)
	switch c.Type {
	case ctData:
		c.TSN = seqnum.V(br.U32())
		c.Stream = br.U16()
		c.SSN = seqnum.S16(br.U16())
		c.PPID = br.U32()
		c.Data = br.Rest()
	case ctIData:
		c.TSN = seqnum.V(br.U32())
		c.Stream = br.U16()
		br.U16() // reserved
		c.MID = seqnum.MID(br.U32())
		if c.Flags&flagBeginFragment != 0 {
			c.PPID = br.U32() // FSN implicitly 0 on the begin fragment
		} else {
			c.FSN = seqnum.FSN(br.U32())
		}
		c.Data = br.Rest()
	case ctInit, ctInitAck:
		c.InitiateTag = br.U32()
		c.ARwnd = br.U32()
		c.OutStreams = br.U16()
		c.InStreams = br.U16()
		c.InitialTSN = seqnum.V(br.U32())
		na := int(br.U16())
		for i := 0; i < na; i++ {
			c.Addrs = append(c.Addrs, netsim.Addr(br.U32()))
		}
		nc := int(br.U16())
		c.Cookie = br.Bytes(nc)
	case ctSack:
		c.CumTSNAck = seqnum.V(br.U32())
		c.ARwnd = br.U32()
		ng := int(br.U16())
		nd := int(br.U16())
		for i := 0; i < ng; i++ {
			c.Gaps = append(c.Gaps, gapBlock{br.U16(), br.U16()})
		}
		for i := 0; i < nd; i++ {
			c.DupTSNs = append(c.DupTSNs, seqnum.V(br.U32()))
		}
	case ctHeartbeat, ctHeartbeatAck:
		c.HBPath = netsim.Addr(br.U32())
		c.HBNonce = br.U64()
	case ctShutdown:
		c.CumTSNAck = seqnum.V(br.U32())
	case ctAbort:
		n := int(br.U16())
		c.Reason = string(br.Bytes(n))
	case ctCookieEcho:
		c.Cookie = br.Rest()
	}
	return br.Err()
}

// packet is a parsed SCTP packet: common header plus chunks. Decoded
// packets come from the stack's free list with their chunks laid out in
// slab; the stack returns them once dispatch finishes (chunk structs are
// dead by then — receive-side code keeps only payload slices and the
// owning netsim packet, never the chunks).
type packet struct {
	SrcPort, DstPort uint16
	VerificationTag  uint32
	Chunks           []*chunk
	slab             []chunk
}

// reset clears a decoded packet for reuse. Payload aliases are cleared
// by the per-chunk reset in decodeChunk on next use; here it is enough
// to drop the chunk pointers.
func (p *packet) reset() {
	for i := range p.slab {
		c := &p.slab[i]
		*c = chunk{Gaps: c.Gaps[:0], DupTSNs: c.DupTSNs[:0]}
	}
	p.Chunks = p.Chunks[:0]
}

// encodePacket serializes the packet, computing the CRC32c checksum.
// The buffer comes from the shared pool, sized exactly so it is never
// regrown; ownership passes to the caller (in practice to netsim via a
// pooled packet).
func encodePacket(p *packet) []byte {
	size := commonHeaderSize
	for _, c := range p.Chunks {
		n := c.wireSize()
		if c.Type == ctCookieEcho {
			n = 4 + len(c.Cookie)
		}
		size += (n + 3) &^ 3
	}
	w := wire.NewPooledWriter(size)
	w.U16(p.SrcPort)
	w.U16(p.DstPort)
	w.U32(p.VerificationTag)
	w.U32(0) // checksum placeholder
	for _, c := range p.Chunks {
		if c.Type == ctCookieEcho {
			encodeCookieEcho(w, c.Flags, c.Cookie)
		} else {
			c.encode(w)
		}
		w.Pad(4)
	}
	sum := wire.CRC32c(w.B)
	w.B[8] = byte(sum >> 24)
	w.B[9] = byte(sum >> 16)
	w.B[10] = byte(sum >> 8)
	w.B[11] = byte(sum)
	return w.B
}

// decode parses and (when verify is set) checksums b into p, reusing its
// chunk slab.
func (p *packet) decode(b []byte, verify bool) error {
	if len(b) < commonHeaderSize {
		return wire.ErrShort
	}
	if verify {
		sum := uint32(b[8])<<24 | uint32(b[9])<<16 | uint32(b[10])<<8 | uint32(b[11])
		// Zero the checksum field in place for the computation rather
		// than copying the whole packet; delivery is serialized within a
		// kernel, so the scribble is invisible to other readers.
		b[8], b[9], b[10], b[11] = 0, 0, 0, 0
		ok := wire.CRC32c(b) == sum
		b[8] = byte(sum >> 24)
		b[9] = byte(sum >> 16)
		b[10] = byte(sum >> 8)
		b[11] = byte(sum)
		if !ok {
			// Wrapped with packet context: classification must go
			// through errors.Is (the transport error contract), not ==.
			return fmt.Errorf("%w in %d-byte packet", errBadCRC, len(b))
		}
	}
	r := wire.NewReader(b)
	p.SrcPort = r.U16()
	p.DstPort = r.U16()
	p.VerificationTag = r.U32()
	r.Skip(4) // checksum
	n := 0
	for r.Remaining() >= 4 {
		start := r.Remaining()
		if n == len(p.slab) {
			p.slab = append(p.slab, chunk{})
		}
		if err := decodeChunk(r, &p.slab[n]); err != nil {
			p.reset()
			return err
		}
		n++
		consumed := start - r.Remaining()
		pad := (4 - consumed%4) % 4
		if pad > r.Remaining() {
			pad = r.Remaining()
		}
		r.Skip(pad)
	}
	// Pointers are taken only after the loop: growing the slab above
	// may have moved it.
	p.Chunks = p.Chunks[:0]
	for i := 0; i < n; i++ {
		p.Chunks = append(p.Chunks, &p.slab[i])
	}
	return nil
}
