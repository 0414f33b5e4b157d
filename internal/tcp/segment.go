// Package tcp implements a userspace TCP over the simulated network:
// three-way handshake, byte-stream delivery, receiver flow control,
// Reno/New-Reno congestion control with a BSD-style SACK option limited
// to four gap blocks, delayed ACKs, Nagle's algorithm (disabled by the
// MPI middleware, as in LAM), Jacobson/Karn RTO estimation, and
// half-close. It is the baseline transport for the LAM-TCP analogue.
package tcp

import (
	"fmt"

	"repro/internal/seqnum"
	"repro/internal/wire"
)

// Segment flags.
const (
	flagFIN = 1 << 0
	flagSYN = 1 << 1
	flagRST = 1 << 2
	flagACK = 1 << 4
)

// sackBlock is one SACK option block: [Start, End) in sequence space.
type sackBlock struct {
	Start, End seqnum.V
}

// segment is the unit of TCP transmission.
type segment struct {
	SrcPort, DstPort uint16
	Seq              seqnum.V
	Ack              seqnum.V
	Flags            uint8
	Wnd              uint32
	MSS              uint16 // carried on SYN
	Sacks            []sackBlock
	Data             []byte
}

// headerBaseSize is the serialized size of a segment header without
// SACK blocks. It approximates a real TCP header (20 bytes) plus the
// option padding BSD stacks typically emit.
const headerBaseSize = 20

// maxSackBlocks is the BSD-era default the paper cites: SACK
// information carried in options is limited to reporting at most four
// blocks. Config.MaxSackBlocks can raise it for ablations; the wire
// format accepts up to wireSackLimit.
const maxSackBlocks = 4

// wireSackLimit bounds the decoder against absurd block counts.
const wireSackLimit = 255

// encode serializes the segment into a pooled buffer. The caller owns
// the result; transmitted segments hand it to netsim via Node.NewPacket
// so the network recycles it after delivery.
func (s *segment) encode() []byte {
	w := wire.NewPooledWriter(headerBaseSize + 8*len(s.Sacks) + len(s.Data))
	w.U16(s.SrcPort)
	w.U16(s.DstPort)
	w.U32(uint32(s.Seq))
	w.U32(uint32(s.Ack))
	w.U8(s.Flags)
	w.U8(uint8(len(s.Sacks)))
	w.U32(s.Wnd)
	w.U16(s.MSS)
	for _, b := range s.Sacks {
		w.U32(uint32(b.Start))
		w.U32(uint32(b.End))
	}
	w.Bytes(s.Data)
	return w.B
}

// decode parses b into s, reusing the array of s.Sacks whether or not
// the segment carries SACK blocks. Data aliases b.
func (s *segment) decode(b []byte) error {
	r := wire.NewReader(b)
	*s = segment{Sacks: s.Sacks[:0]}
	s.SrcPort = r.U16()
	s.DstPort = r.U16()
	s.Seq = seqnum.V(r.U32())
	s.Ack = seqnum.V(r.U32())
	s.Flags = r.U8()
	nsack := int(r.U8())
	s.Wnd = r.U32()
	s.MSS = r.U16()
	if nsack > wireSackLimit {
		return fmt.Errorf("tcp: %d SACK blocks exceeds option space", nsack)
	}
	for i := 0; i < nsack; i++ {
		s.Sacks = append(s.Sacks, sackBlock{seqnum.V(r.U32()), seqnum.V(r.U32())})
	}
	s.Data = r.Rest()
	return r.Err()
}

// segLen returns the amount of sequence space the segment occupies.
func (s *segment) segLen() uint32 {
	n := uint32(len(s.Data))
	if s.Flags&flagSYN != 0 {
		n++
	}
	if s.Flags&flagFIN != 0 {
		n++
	}
	return n
}

func (s *segment) String() string {
	fl := ""
	if s.Flags&flagSYN != 0 {
		fl += "S"
	}
	if s.Flags&flagACK != 0 {
		fl += "A"
	}
	if s.Flags&flagFIN != 0 {
		fl += "F"
	}
	if s.Flags&flagRST != 0 {
		fl += "R"
	}
	return fmt.Sprintf("[%d->%d %s seq=%d ack=%d len=%d wnd=%d sacks=%d]",
		s.SrcPort, s.DstPort, fl, s.Seq, s.Ack, len(s.Data), s.Wnd, len(s.Sacks))
}
