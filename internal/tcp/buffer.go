package tcp

import (
	"repro/internal/seqnum"
	"repro/internal/wire"
)

// sendBuffer holds unacknowledged and not-yet-sent outbound bytes. The
// byte at offset 0 always corresponds to snd.una. The bytes live in
// buf[head:]; acked bytes are dropped by advancing head, and write
// slides the live bytes back to the front of the array when it runs out
// of room, so a connection settles on one array and stops allocating.
type sendBuffer struct {
	buf   []byte
	head  int
	limit int
}

func (b *sendBuffer) len() int   { return len(b.buf) - b.head }
func (b *sendBuffer) space() int { return b.limit - b.len() }

// write appends up to space() bytes from p, returning how many were
// taken.
func (b *sendBuffer) write(p []byte) int {
	n := b.space()
	if n > len(p) {
		n = len(p)
	}
	if len(b.buf)+n > cap(b.buf) {
		live := b.buf[b.head:]
		if len(live)+n > cap(b.buf)/2 {
			// Too full to slide: grow to twice what is needed, moving
			// only the live bytes.
			nb := make([]byte, len(live), 2*(len(live)+n))
			copy(nb, live)
			b.buf = nb
		} else {
			// Slide. At most half the array moves and at least half is
			// free afterwards, so copying costs O(1) per byte written.
			b.buf = b.buf[:copy(b.buf, live)]
		}
		b.head = 0
	}
	b.buf = append(b.buf, p[:n]...)
	return n
}

// slice returns up to n bytes starting at byte offset off (relative to
// snd.una). The returned slice must not be retained across writes or
// acks.
func (b *sendBuffer) slice(off, n int) []byte {
	if off >= b.len() {
		return nil
	}
	end := off + n
	if end > b.len() {
		end = b.len()
	}
	return b.buf[b.head+off : b.head+end]
}

// ack discards n bytes from the front (they were cumulatively acked).
func (b *sendBuffer) ack(n int) {
	if n > b.len() {
		n = b.len()
	}
	b.head += n
	if b.head == len(b.buf) {
		b.buf, b.head = b.buf[:0], 0
	}
}

// recvBuffer holds in-order bytes awaiting the application plus the
// out-of-order reassembly queue. Out-of-order bytes count against the
// advertised window: this is precisely the transport-level head-of-line
// pressure the paper describes for TCP (Figure 5).
//
// The in-order queue is a bip buffer (sonic's bip_buffer/mirrored_buffer
// technique): the application peeks at a contiguous head region, parses
// in place, and consumes what it used. A partial read never triggers a
// copy or a compaction slide — the remaining bytes stay where the
// segments delivered them. The queue's ceiling is above the advertised
// window's limit because window accounting happens at delivery time:
// in-order data is trimmed to the window before it lands here, but the
// out-of-order queue (bounded separately by limit, plus one in-flight
// window of trimmed delivery) drains into it without a window check
// when a hole fills.
type recvBuffer struct {
	in     *wire.BipBuffer // nil until the first byte arrives
	ooo    []oooSeg        // sorted by Seq, non-overlapping
	oooLen int
	limit  int
}

type oooSeg struct {
	Seq  seqnum.V
	Data []byte
}

func (b *recvBuffer) readable() int {
	if b.in == nil {
		return 0
	}
	return b.in.Len()
}

// window returns the receive window to advertise. As in BSD, the
// reassembly (out-of-order) queue is not charged against the advertised
// window — only undelivered in-order bytes are. This keeps duplicate
// ACKs carrying an unchanged window during a loss episode, which is
// what lets the sender count them. The paper's head-of-line pressure
// (Figure 5) still holds: Msg-B's bytes sit in the buffer and are
// capped by insertOOO, and once the hole fills they land in the
// in-order queue and shrink the window until the application reads.
func (b *recvBuffer) window() int {
	w := b.limit - b.readable()
	if w < 0 {
		w = 0
	}
	return w
}

// read moves up to len(p) in-order bytes to p, crossing the bip-buffer
// region boundary if needed.
func (b *recvBuffer) read(p []byte) int {
	total := 0
	for b.in != nil && total < len(p) {
		h := b.in.Head()
		if len(h) == 0 {
			break
		}
		n := copy(p[total:], h)
		b.in.Consume(n)
		total += n
	}
	return total
}

// peek returns the contiguous in-order head region without consuming.
func (b *recvBuffer) peek() []byte {
	if b.in == nil {
		return nil
	}
	return b.in.Head()
}

// discard consumes n previously peeked bytes.
func (b *recvBuffer) discard(n int) {
	for n > 0 {
		h := b.in.Head()
		if len(h) > n {
			b.in.Consume(n)
			return
		}
		b.in.Consume(len(h))
		n -= len(h)
	}
}

// deliver appends in-order data for the application. Delivery is
// window-checked by the caller (in-order arrivals) or bounded by the
// reassembly queue (extract), so the bip ceiling — limit for the window
// plus 2*limit for a full reassembly drain — is never hit; see the
// recvBuffer comment.
func (b *recvBuffer) deliver(data []byte) {
	if b.in == nil {
		b.in = wire.NewBipBuffer(3 * b.limit)
	}
	b.in.Write(data)
}

// insertOOO stores an out-of-order segment [seq, seq+len(data)),
// trimming any overlap with already-stored segments. It returns the
// number of new bytes stored. The reassembly queue is bounded by the
// buffer limit; segments beyond it are dropped (the peer retransmits).
func (b *recvBuffer) insertOOO(seq seqnum.V, data []byte) int {
	if len(data) == 0 || b.oooLen >= b.limit {
		return 0
	}
	stored := 0
	// Walk the sorted queue, trimming the incoming range against each
	// existing segment and inserting the non-overlapping pieces.
	for i := 0; i <= len(b.ooo); i++ {
		if len(data) == 0 {
			break
		}
		if i == len(b.ooo) {
			b.ooo = append(b.ooo, oooSeg{seq, copyOf(data)})
			stored += len(data)
			break
		}
		cur := b.ooo[i]
		curEnd := cur.Seq.Add(uint32(len(cur.Data)))
		segEnd := seq.Add(uint32(len(data)))
		if segEnd.LessEq(cur.Seq) {
			// Entirely before cur: insert here.
			b.insertAt(i, oooSeg{seq, copyOf(data)})
			stored += len(data)
			data = nil
			break
		}
		if seq.GreaterEq(curEnd) {
			continue // entirely after cur
		}
		// Overlap. Keep the part before cur (if any), then continue
		// with the part after cur.
		if seq.Less(cur.Seq) {
			n := cur.Seq.Sub(seq)
			b.insertAt(i, oooSeg{seq, copyOf(data[:n])})
			stored += int(n)
			i++ // skip the piece we just inserted
		}
		if segEnd.Greater(curEnd) {
			drop := curEnd.Sub(seq)
			data = data[drop:]
			seq = curEnd
		} else {
			data = nil
			break
		}
	}
	b.oooLen += stored
	return stored
}

// copyOf copies an out-of-order segment's bytes into a pooled buffer,
// which extract returns to the pool.
func copyOf(data []byte) []byte {
	return append(wire.GetBuf(len(data))[:0], data...)
}

// insertAt inserts s at index i of the reassembly queue.
func (b *recvBuffer) insertAt(i int, s oooSeg) {
	b.ooo = append(b.ooo, oooSeg{})
	copy(b.ooo[i+1:], b.ooo[i:])
	b.ooo[i] = s
}

// extract pops consecutive out-of-order segments starting at nxt,
// delivering them in-order, and returns the new nxt.
func (b *recvBuffer) extract(nxt seqnum.V) seqnum.V {
	for len(b.ooo) > 0 {
		s := b.ooo[0]
		end := s.Seq.Add(uint32(len(s.Data)))
		if s.Seq.Greater(nxt) {
			break
		}
		// s.Seq <= nxt; deliver the part at or beyond nxt.
		if end.Greater(nxt) {
			skip := nxt.Sub(s.Seq)
			b.deliver(s.Data[skip:])
			nxt = end
		}
		b.oooLen -= len(s.Data)
		wire.PutBuf(s.Data)
		n := copy(b.ooo, b.ooo[1:])
		b.ooo[n] = oooSeg{}
		b.ooo = b.ooo[:n]
	}
	return nxt
}

// sackBlocks appends to blocks (normally a reused scratch slice,
// truncated) up to max SACK blocks describing the out-of-order queue,
// most-recently-relevant first per RFC 2018. The block containing the
// most recently received segment (recentSeq, when recentLen is nonzero)
// is placed first.
func (b *recvBuffer) sackBlocks(blocks []sackBlock, max int, recentSeq seqnum.V, recentLen int) []sackBlock {
	if len(b.ooo) == 0 {
		return blocks
	}
	// Coalesce adjacent stored segments into blocks.
	cur := sackBlock{b.ooo[0].Seq, b.ooo[0].Seq.Add(uint32(len(b.ooo[0].Data)))}
	for _, s := range b.ooo[1:] {
		if s.Seq == cur.End {
			cur.End = cur.End.Add(uint32(len(s.Data)))
			continue
		}
		blocks = append(blocks, cur)
		cur = sackBlock{s.Seq, s.Seq.Add(uint32(len(s.Data)))}
	}
	blocks = append(blocks, cur)
	// Move the block containing the most recent arrival to the front.
	if recentLen > 0 {
		for i, blk := range blocks {
			if recentSeq.GreaterEq(blk.Start) && recentSeq.Less(blk.End) {
				if i != 0 {
					blk := blocks[i]
					copy(blocks[1:i+1], blocks[0:i])
					blocks[0] = blk
				}
				break
			}
		}
	}
	if len(blocks) > max {
		blocks = blocks[:max]
	}
	return blocks
}
