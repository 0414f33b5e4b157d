package sctp

import (
	"repro/internal/netsim"
	"repro/internal/seqnum"
	"repro/internal/wire"
)

// frag is one stored fragment: the data slice plus a retained reference
// to the pooled packet it aliases (nil when the data is unpooled).
type frag struct {
	data []byte
	buf  *netsim.Packet
}

// partial reassembles one fragmented user message, identified by its
// stream and its sequence number: the SSN of DATA or the MID of I-DATA
// (RFC 8260). Fragments are keyed by position: the TSN for DATA, whose
// fragments occupy consecutive TSNs, and the FSN for I-DATA, whose
// fragments count from 0 and may interleave with other messages in the
// TSN space. Both are 32-bit serial numbers.
type partial struct {
	// The field order packs the struct into 48 bytes.
	frags  map[seqnum.V]frag
	bytes  int
	stream uint16
	haveB  bool
	haveE  bool
	seq    uint32
	ppid   uint32
	first  seqnum.V // key of the begin fragment, once seen
	last   seqnum.V // key of the end fragment, once seen
	lo, hi seqnum.V // bounds on the keys held in frags
}

// outside reports whether fragment key lies before the begin fragment
// or after the end fragment, as far as either is known.
func (pm *partial) outside(key seqnum.V) bool {
	return pm.haveB && key.Less(pm.first) || pm.haveE && key.Greater(pm.last)
}

// trim drops the fragments that a newly fixed begin or end fragment
// places outside the message, so the completeness count stays exact.
// Callers skip it when lo and hi show that no held key can be outside.
func (pm *partial) trim() {
	for key, f := range pm.frags {
		if pm.outside(key) {
			if f.buf != nil {
				f.buf.Release()
			}
			pm.bytes -= len(f.data)
			delete(pm.frags, key)
		}
	}
}

// releaseFrags drops the packet references held by an unfinished
// reassembly (association teardown or restart).
func (pm *partial) releaseFrags() {
	for _, f := range pm.frags {
		if f.buf != nil {
			f.buf.Release()
		}
	}
	clear(pm.frags)
}

// reasm is the receive side for both chunk kinds: per-(stream, SSN or
// MID) fragment reassembly plus per-stream ordered delivery, in 16-bit
// SSN order for DATA and 32-bit MID order for I-DATA. It takes chunks
// and emits Messages to a deliverer, so the fuzz targets can drive it
// without an association; TSN-level dedup and buffer accounting stay
// with the caller. Partials and messages come from the stack's free
// lists.
//
// Robustness contract, independent of the sender: the first chunk seen
// for a given fragment key wins, the first begin fragment fixes the
// message's start and the first end fragment its end, fragments outside
// them are dropped, and each message is delivered at most once, in
// per-stream order 0, 1, 2, ...; a stale or duplicate message is
// dropped and its payload recycled.
type reasm struct {
	stack *Stack    // free lists for partials and messages
	to    deliverer // takes each message in per-stream order
	mid   bool      // I-DATA: FSN keys and 32-bit MID order

	partial  map[uint64]*partial // by streamSeq
	expected []uint32            // next sequence number to deliver, per stream
	reorder  map[uint64]*Message // early arrivals, by streamSeq
}

// deliverer takes the messages a reassembler releases: the association,
// or a test's collector.
type deliverer interface{ deliver(*Message) }

// streamSeq keys a message by stream and sequence number.
func streamSeq(stream uint16, seq uint32) uint64 { return uint64(stream)<<32 | uint64(seq) }

// init sizes the per-stream state for the negotiated chunk kind. The
// partial and reorder maps are made on first insert; reads and deletes
// on a nil map are safe.
func (r *reasm) init(streams int, mid bool) {
	r.mid = mid
	r.expected = make([]uint32, streams)
}

// release drops all reassembly state (association teardown or restart):
// unfinished reassemblies give back their packet references, and parked
// early arrivals their payloads.
func (r *reasm) release() {
	for key, pm := range r.partial {
		pm.releaseFrags()
		r.stack.freePartial(pm)
		delete(r.partial, key)
	}
	for key, m := range r.reorder {
		wire.PutBuf(m.Data)
		r.stack.freeMsg(m)
		delete(r.reorder, key)
	}
}

// feed accepts one DATA or I-DATA chunk (already TSN-deduplicated by
// the caller) and delivers every message that becomes deliverable in
// per-stream order. The chunk's Stream must be in range. When the chunk
// aliases a pooled packet (c.buf non-nil) a reference is retained for
// as long as the fragment is held.
func (r *reasm) feed(c *chunk) {
	begin := c.Flags&flagBeginFragment != 0
	end := c.Flags&flagEndFragment != 0
	seq, key := uint32(c.SSN), c.TSN
	if r.mid {
		seq, key = uint32(c.MID), seqnum.V(c.FSN)
		if begin {
			key = 0 // the wire carries PPID, not FSN, on the begin fragment
		}
	}
	if begin && end {
		// Unfragmented message: skip the fragment map. This is the
		// common case for small sends.
		r.deliverOrdered(r.message(c.Stream, seq, c.PPID,
			append(wire.GetBuf(len(c.Data))[:0], c.Data...)))
		return
	}
	pk := streamSeq(c.Stream, seq)
	pm := r.partial[pk]
	if pm == nil {
		pm = r.stack.newPartial()
		pm.stream, pm.seq = c.Stream, seq
		if r.partial == nil {
			r.partial = make(map[uint64]*partial) // first fragmented message
		}
		r.partial[pk] = pm
	}
	if pm.outside(key) {
		return
	}
	if _, dup := pm.frags[key]; !dup {
		if c.buf != nil {
			c.buf.Retain()
		}
		pm.frags[key] = frag{data: c.Data, buf: c.buf}
		pm.bytes += len(c.Data)
		if len(pm.frags) == 1 {
			pm.lo, pm.hi = key, key
		} else {
			pm.lo, pm.hi = seqnum.Min(pm.lo, key), seqnum.Max(pm.hi, key)
		}
	}
	if begin && !pm.haveB {
		pm.haveB, pm.first, pm.ppid = true, key, c.PPID
		if pm.lo.Less(key) {
			pm.trim()
		}
	}
	if end && !pm.haveE {
		pm.haveE, pm.last = true, key
		if pm.hi.Greater(key) {
			pm.trim()
		}
	}
	// Every held key lies in [first, last], so the count is complete
	// exactly when every fragment is there.
	if pm.haveB && pm.haveE && uint64(len(pm.frags)) == uint64(pm.last.Sub(pm.first))+1 {
		delete(r.partial, pk)
		r.complete(pm)
	}
}

// complete assembles a finished message and hands it to ordered
// delivery. Message.Data is a pooled buffer: the receiver (the RPI
// engine) returns it to the wire pool once the payload has been copied
// out.
func (r *reasm) complete(pm *partial) {
	data := wire.GetBuf(pm.bytes)[:0]
	for key := pm.first; ; key = key.Add(1) {
		f := pm.frags[key]
		data = append(data, f.data...)
		if f.buf != nil {
			f.buf.Release()
		}
		if key == pm.last {
			break
		}
	}
	m := r.message(pm.stream, pm.seq, pm.ppid, data)
	r.stack.freePartial(pm)
	r.deliverOrdered(m)
}

// message builds a received message from the stack's free list.
func (r *reasm) message(stream uint16, seq, ppid uint32, data []byte) *Message {
	m := r.stack.newMsg()
	m.Stream, m.PPID, m.Data = stream, ppid, data
	if r.mid {
		m.MID = seq
	} else {
		m.SSN = uint16(seq)
	}
	return m
}

// seqOf returns m's per-stream sequence number: its MID or its SSN.
func (r *reasm) seqOf(m *Message) uint32 {
	if r.mid {
		return m.MID
	}
	return uint32(m.SSN)
}

// before reports whether sequence number a precedes b in serial order:
// 32-bit for MIDs, 16-bit for SSNs.
func (r *reasm) before(a, b uint32) bool {
	if r.mid {
		return seqnum.MID(a).Less(seqnum.MID(b))
	}
	return seqnum.S16(a).Less(seqnum.S16(b))
}

// deliverOrdered releases messages in per-stream order, parking early
// arrivals in the reorder map. Stale (already delivered) and duplicate
// messages are dropped here, which is what makes double delivery
// impossible even for fabricated input.
func (r *reasm) deliverOrdered(m *Message) {
	st, seq := m.Stream, r.seqOf(m)
	if seq != r.expected[st] {
		key := streamSeq(st, seq)
		if _, dup := r.reorder[key]; dup || r.before(seq, r.expected[st]) {
			// Already delivered, or a second copy of a parked early
			// arrival (the parked one keeps ownership): this copy is
			// never going anywhere, so recycle its pooled payload here or
			// leak it.
			wire.PutBuf(m.Data)
			r.stack.freeMsg(m)
			return
		}
		if r.reorder == nil {
			r.reorder = make(map[uint64]*Message) // first early arrival
		}
		r.reorder[key] = m
		return
	}
	r.to.deliver(m)
	for {
		next := r.expected[st] + 1
		if !r.mid {
			next = uint32(uint16(next)) // SSNs wrap at 16 bits
		}
		r.expected[st] = next
		key := streamSeq(st, next)
		early, ok := r.reorder[key]
		if !ok {
			return
		}
		delete(r.reorder, key)
		r.to.deliver(early)
	}
}
