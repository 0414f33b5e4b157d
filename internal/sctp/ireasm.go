package sctp

import (
	"repro/internal/seqnum"
	"repro/internal/wire"
)

// ipartial reassembles one interleaved user message, identified by
// (stream, MID). Unlike legacy DATA reassembly, fragments are keyed by
// FSN rather than TSN, so fragments of different messages may arrive
// interleaved in the TSN space.
type ipartial struct {
	stream uint16
	mid    seqnum.MID
	ppid   uint32
	frags  map[seqnum.FSN]frag
	haveB  bool
	haveE  bool
	eFSN   seqnum.FSN
	bytes  int
}

func (pm *ipartial) releaseFrags() {
	for fsn, f := range pm.frags {
		if f.buf != nil {
			f.buf.Release()
		}
		delete(pm.frags, fsn)
	}
}

// ikey builds the reassembly map key for (stream, MID).
func ikey(stream uint16, mid seqnum.MID) uint64 {
	return uint64(stream)<<32 | uint64(uint32(mid))
}

// ireasm is the RFC 8260 receive side: per-(stream, MID) fragment
// reassembly plus per-stream ordered delivery by MID. It is standalone
// (fed chunks, emits Messages) so the fuzz targets can drive it without
// an association; TSN-level dedup and buffer accounting stay with the
// caller.
//
// Robustness contract, independent of the sender: the first chunk seen
// for a given (stream, MID, FSN) wins, the first end fragment fixes the
// message length and later or conflicting fragments beyond it are
// dropped, and each message is delivered at most once, in per-stream
// MID order 0,1,2,...
type ireasm struct {
	partial     map[uint64]*ipartial
	expectedMID []seqnum.MID
	reorder     []map[seqnum.MID]*Message
}

// init sizes the per-stream state. The partial map and the per-stream
// reorder maps are made on first insert; reads and deletes on a nil map
// are safe.
func (ir *ireasm) init(streams int) {
	ir.partial = nil
	ir.expectedMID = make([]seqnum.MID, streams)
	ir.reorder = make([]map[seqnum.MID]*Message, streams)
}

// release drops all reassembly state (association teardown or restart).
// Pending reorder messages hold only wire-pool buffers, which the pool
// reclaims; packet references live in the fragment maps and are
// released here.
func (ir *ireasm) release() {
	for key, pm := range ir.partial {
		pm.releaseFrags()
		delete(ir.partial, key)
	}
	clear(ir.reorder)
	for i := range ir.expectedMID {
		ir.expectedMID[i] = 0
	}
}

// feed accepts one I-DATA chunk (already TSN-deduplicated by the
// caller) and invokes deliver for every message that becomes
// deliverable in per-stream MID order. The chunk's Stream must be in
// range and a begin fragment must carry FSN 0, both guaranteed by the
// codec. When the chunk aliases a pooled packet (c.buf non-nil) a
// reference is retained for as long as the fragment is held.
func (ir *ireasm) feed(c *chunk, deliver func(*Message)) {
	begin := c.Flags&flagBeginFragment != 0
	end := c.Flags&flagEndFragment != 0
	if begin && end {
		// Unfragmented message: skip the fragment map entirely.
		ir.deliverOrdered(&Message{
			Stream: c.Stream,
			MID:    uint32(c.MID),
			PPID:   c.PPID,
			Data:   append(wire.GetBuf(len(c.Data))[:0], c.Data...),
		}, deliver)
		return
	}
	key := ikey(c.Stream, c.MID)
	pm := ir.partial[key]
	if pm == nil {
		// A message already delivered for this (stream, MID) cannot
		// resurface: the caller's TSN dedup rejects replayed chunks, and
		// MIDs below expectedMID reach the reorder map, not here... but a
		// hostile sender can still fabricate one. Delivery order is
		// enforced by deliverOrdered either way.
		pm = &ipartial{
			stream: c.Stream, mid: c.MID,
			frags: make(map[seqnum.FSN]frag),
		}
		if ir.partial == nil {
			ir.partial = make(map[uint64]*ipartial)
		}
		ir.partial[key] = pm
	}
	fsn := c.FSN
	if begin {
		fsn = 0 // the wire carries PPID, not FSN, on the begin fragment
		if !pm.haveB {
			pm.haveB = true
			pm.ppid = c.PPID
		}
	}
	if pm.haveE && fsn.Greater(pm.eFSN) {
		return // beyond the fixed end: drop
	}
	if _, dup := pm.frags[fsn]; !dup {
		if c.buf != nil {
			c.buf.Retain()
		}
		pm.frags[fsn] = frag{data: c.Data, buf: c.buf}
		pm.bytes += len(c.Data)
	}
	if end && !pm.haveE {
		pm.haveE = true
		pm.eFSN = fsn
		// Discard any stray fragments beyond the now-known end so the
		// completeness count stays exact.
		for f, fr := range pm.frags {
			if f.Greater(pm.eFSN) {
				if fr.buf != nil {
					fr.buf.Release()
				}
				pm.bytes -= len(fr.data)
				delete(pm.frags, f)
			}
		}
	}
	if pm.haveB && pm.haveE && uint64(len(pm.frags)) == uint64(pm.eFSN)+1 {
		delete(ir.partial, key)
		ir.complete(pm, deliver)
	}
}

// complete assembles a finished message and hands it to ordered
// delivery.
func (ir *ireasm) complete(pm *ipartial, deliver func(*Message)) {
	data := wire.GetBuf(pm.bytes)[:0]
	for fsn := seqnum.FSN(0); ; fsn = fsn.Add(1) {
		f := pm.frags[fsn]
		data = append(data, f.data...)
		if f.buf != nil {
			f.buf.Release()
		}
		if fsn == pm.eFSN {
			break
		}
	}
	ir.deliverOrdered(&Message{
		Stream: pm.stream,
		MID:    uint32(pm.mid),
		PPID:   pm.ppid,
		Data:   data,
	}, deliver)
}

// deliverOrdered releases messages in per-stream MID order, parking
// early arrivals in the reorder map. Duplicate or stale MIDs (already
// delivered) are dropped here, which is what makes double delivery
// impossible even for fabricated input.
func (ir *ireasm) deliverOrdered(m *Message, deliver func(*Message)) {
	st := int(m.Stream)
	mid := seqnum.MID(m.MID)
	if mid.Less(ir.expectedMID[st]) {
		// Already delivered: the reassembled payload is pooled and this
		// copy is never going anywhere, so recycle it here or leak it.
		wire.PutBuf(m.Data)
		return
	}
	if mid != ir.expectedMID[st] {
		if _, dup := ir.reorder[st][mid]; dup {
			// Duplicate of a parked early arrival: drop this copy's
			// buffer, the parked one keeps ownership.
			wire.PutBuf(m.Data)
			return
		}
		if ir.reorder[st] == nil {
			ir.reorder[st] = make(map[seqnum.MID]*Message)
		}
		ir.reorder[st][mid] = m
		return
	}
	deliver(m)
	ir.expectedMID[st] = ir.expectedMID[st].Add(1)
	for {
		next, ok := ir.reorder[st][ir.expectedMID[st]]
		if !ok {
			break
		}
		delete(ir.reorder[st], ir.expectedMID[st])
		deliver(next)
		ir.expectedMID[st] = ir.expectedMID[st].Add(1)
	}
}
