package sctp

import (
	"bytes"
	"testing"

	"repro/internal/seqnum"
	"repro/internal/wire"
)

// FuzzChunkCodec feeds arbitrary bytes to the packet decoder. The
// decoder must never panic, and anything it accepts must survive an
// encode → decode round trip with identical normalized chunk fields —
// the property that makes the wire format safe against a corrupting
// or adversarial network. Seed corpus: testdata/fuzz/FuzzChunkCodec
// (regenerate with FUZZ_SEED_GEN=1, see TestGenerateFuzzCorpus).
func FuzzChunkCodec(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		// The verify path scribbles on the checksum field in place;
		// give it its own copy so the non-verify decode below sees the
		// original input.
		vb := append([]byte(nil), b...)
		if p, err := decodePacket(vb, true); err == nil {
			p.reset()
		}
		p1, err := decodePacket(b, false)
		if err != nil {
			return
		}
		b2 := encodePacket(p1)
		p2, err := decodePacket(b2, true)
		if err != nil {
			t.Fatalf("re-decode of re-encoded packet failed: %v", err)
		}
		if p1.SrcPort != p2.SrcPort || p1.DstPort != p2.DstPort ||
			p1.VerificationTag != p2.VerificationTag {
			t.Fatalf("common header changed: %d/%d/%d vs %d/%d/%d",
				p1.SrcPort, p1.DstPort, p1.VerificationTag,
				p2.SrcPort, p2.DstPort, p2.VerificationTag)
		}
		if len(p1.Chunks) != len(p2.Chunks) {
			t.Fatalf("chunk count changed: %d vs %d", len(p1.Chunks), len(p2.Chunks))
		}
		for i := range p1.Chunks {
			if !chunksEqual(p1.Chunks[i], p2.Chunks[i]) {
				t.Fatalf("chunk %d changed across round trip:\n%+v\nvs\n%+v",
					i, *p1.Chunks[i], *p2.Chunks[i])
			}
		}
		p1.reset()
		p2.reset()
		wire.PutBuf(b2)
	})
}

// chunksEqual compares the normalized (decoded) forms of two chunks.
func chunksEqual(a, b *chunk) bool {
	if a.Type != b.Type || a.Flags != b.Flags ||
		a.TSN != b.TSN || a.Stream != b.Stream || a.SSN != b.SSN ||
		a.PPID != b.PPID || a.MID != b.MID || a.FSN != b.FSN ||
		!bytes.Equal(a.Data, b.Data) ||
		a.InitiateTag != b.InitiateTag || a.ARwnd != b.ARwnd ||
		a.OutStreams != b.OutStreams || a.InStreams != b.InStreams ||
		a.InitialTSN != b.InitialTSN || !bytes.Equal(a.Cookie, b.Cookie) ||
		a.CumTSNAck != b.CumTSNAck ||
		a.HBPath != b.HBPath || a.HBNonce != b.HBNonce ||
		a.Reason != b.Reason {
		return false
	}
	if len(a.Addrs) != len(b.Addrs) || len(a.Gaps) != len(b.Gaps) ||
		len(a.DupTSNs) != len(b.DupTSNs) {
		return false
	}
	for i := range a.Addrs {
		if a.Addrs[i] != b.Addrs[i] {
			return false
		}
	}
	for i := range a.Gaps {
		if a.Gaps[i] != b.Gaps[i] {
			return false
		}
	}
	for i := range a.DupTSNs {
		if a.DupTSNs[i] != b.DupTSNs[i] {
			return false
		}
	}
	return true
}

// reasmOp is one fuzz-decoded DATA or I-DATA chunk for the
// reassembler: seq is its SSN or MID, key its TSN (as an offset from
// dataTSNBase) or FSN.
type reasmOp struct {
	stream uint16
	seq    uint32
	key    uint32
	begin  bool
	end    bool
	size   int
}

const (
	reasmStreams = 4
	reasmOpBytes = 5
	reasmKeys    = 16 // DATA TSN offsets; I-DATA FSNs use the first 8
	// dataTSNBase puts the DATA fuzz TSNs across the 32-bit wrap.
	dataTSNBase = seqnum.V(0xfffffff8)
)

// decodeReasmOps turns fuzz bytes into a bounded op sequence. Keeping
// the value ranges small (4 streams, 8 SSNs or MIDs, 16 TSNs or 8 FSNs)
// concentrates the search on the interesting collisions: duplicate
// keys, conflicting begin and end flags, interleavings, and reordering.
func decodeReasmOps(b []byte, mid bool) []reasmOp {
	var ops []reasmOp
	for len(b) >= reasmOpBytes && len(ops) < 512 {
		op := reasmOp{
			stream: uint16(b[0] % reasmStreams),
			seq:    uint32(b[1] % 8),
			key:    uint32(b[2] % reasmKeys),
			begin:  b[3]&1 != 0,
			end:    b[3]&2 != 0,
			size:   int(b[4]%32) + 1,
		}
		if mid {
			op.key %= 8
			if op.begin {
				// Codec invariant: the begin fragment's FSN is implicitly
				// 0 (the wire carries the PPID in that position).
				op.key = 0
			}
		}
		ops = append(ops, op)
		b = b[reasmOpBytes:]
	}
	return ops
}

// opPayload builds the deterministic payload for an op, so the model
// and the reassembler can independently predict assembled bytes.
func opPayload(op reasmOp) []byte {
	d := make([]byte, op.size)
	for i := range d {
		d[i] = byte(int(op.stream)*31 + int(op.seq)*17 + int(op.key)*7 + i)
	}
	return d
}

// reasmModel is an independent mirror of the documented reasm
// robustness contract (first fragment per key wins, the first begin
// and end fragments fix the message's bounds, delivery at most once in
// per-stream order). It uses plain maps, copies and unwrapped offsets —
// no pooling, no packet references, no serial arithmetic — so a
// divergence indicts the production structure.
type reasmModel struct {
	frags  map[[3]uint32][]byte // (stream, seq, key) → payload
	haveB  map[[2]uint32]bool
	haveE  map[[2]uint32]bool
	first  map[[2]uint32]uint32
	last   map[[2]uint32]uint32
	parked map[[2]uint32][]byte
	expect [reasmStreams]uint32
	out    []delivered
}

type delivered struct {
	stream uint16
	seq    uint32
	data   []byte
}

func newReasmModel() *reasmModel {
	return &reasmModel{
		frags:  make(map[[3]uint32][]byte),
		haveB:  make(map[[2]uint32]bool),
		haveE:  make(map[[2]uint32]bool),
		first:  make(map[[2]uint32]uint32),
		last:   make(map[[2]uint32]uint32),
		parked: make(map[[2]uint32][]byte),
	}
}

func (m *reasmModel) feed(op reasmOp, data []byte) {
	if op.begin && op.end {
		m.ordered(op.stream, op.seq, data)
		return
	}
	mk := [2]uint32{uint32(op.stream), op.seq}
	fk := func(key uint32) [3]uint32 { return [3]uint32{uint32(op.stream), op.seq, key} }
	outside := func(key uint32) bool {
		return m.haveB[mk] && key < m.first[mk] || m.haveE[mk] && key > m.last[mk]
	}
	if outside(op.key) {
		return
	}
	if _, dup := m.frags[fk(op.key)]; !dup {
		m.frags[fk(op.key)] = data
	}
	if op.begin && !m.haveB[mk] {
		m.haveB[mk], m.first[mk] = true, op.key
	}
	if op.end && !m.haveE[mk] {
		m.haveE[mk], m.last[mk] = true, op.key
	}
	for key := uint32(0); key < reasmKeys; key++ {
		if outside(key) {
			delete(m.frags, fk(key))
		}
	}
	if !m.haveB[mk] || !m.haveE[mk] {
		return
	}
	var msg []byte
	for key := m.first[mk]; key <= m.last[mk]; key++ {
		d, ok := m.frags[fk(key)]
		if !ok {
			return // incomplete
		}
		msg = append(msg, d...)
	}
	for key := m.first[mk]; key <= m.last[mk]; key++ {
		delete(m.frags, fk(key))
	}
	delete(m.haveB, mk)
	delete(m.haveE, mk)
	m.ordered(op.stream, op.seq, msg)
}

func (m *reasmModel) ordered(stream uint16, seq uint32, data []byte) {
	if seq < m.expect[stream] {
		return
	}
	if seq != m.expect[stream] {
		if _, dup := m.parked[[2]uint32{uint32(stream), seq}]; !dup {
			m.parked[[2]uint32{uint32(stream), seq}] = data
		}
		return
	}
	m.out = append(m.out, delivered{stream, seq, data})
	m.expect[stream]++
	for {
		next, ok := m.parked[[2]uint32{uint32(stream), m.expect[stream]}]
		if !ok {
			return
		}
		delete(m.parked, [2]uint32{uint32(stream), m.expect[stream]})
		m.out = append(m.out, delivered{stream, m.expect[stream], next})
		m.expect[stream]++
	}
}

// sinkFunc lets a test function take a reassembler's deliveries.
type sinkFunc func(*Message)

func (f sinkFunc) deliver(m *Message) { f(m) }

// fuzzReasm drives one reassembler (DATA mode, or I-DATA mode when mid
// is set) with the chunk sequence b decodes to and checks it never
// panics, never delivers a message twice or out of order, and produces
// exactly the deliveries the independent model predicts.
func fuzzReasm(t *testing.T, b []byte, mid bool) {
	ops := decodeReasmOps(b, mid)
	model := newReasmModel()
	var got []delivered
	var expect [reasmStreams]uint32
	r := reasm{stack: new(Stack)}
	r.to = sinkFunc(func(m *Message) {
		seq := uint32(m.SSN)
		if mid {
			seq = m.MID
		}
		// Contract invariant checked independently of the model: dense
		// per-stream order means no double delivery.
		if seq != expect[m.Stream] {
			t.Fatalf("stream %d delivered %d, want %d", m.Stream, seq, expect[m.Stream])
		}
		expect[m.Stream]++
		got = append(got, delivered{m.Stream, seq, append([]byte(nil), m.Data...)})
		wire.PutBuf(m.Data)
		r.stack.freeMsg(m)
	})
	r.init(reasmStreams, mid)
	for _, op := range ops {
		data := opPayload(op)
		c := &chunk{Stream: op.stream, Data: data}
		if op.begin {
			c.Flags |= flagBeginFragment
		}
		if op.end {
			c.Flags |= flagEndFragment
		}
		if mid {
			c.Type, c.MID, c.FSN = ctIData, seqnum.MID(op.seq), seqnum.FSN(op.key)
		} else {
			c.Type, c.SSN, c.TSN = ctData, seqnum.S16(op.seq), dataTSNBase.Add(op.key)
		}
		r.feed(c)
		model.feed(op, data)
	}
	if len(got) != len(model.out) {
		t.Fatalf("delivered %d messages, model predicts %d", len(got), len(model.out))
	}
	for i := range got {
		w := model.out[i]
		if got[i].stream != w.stream || got[i].seq != w.seq ||
			!bytes.Equal(got[i].data, w.data) {
			t.Fatalf("delivery %d: got (s=%d seq=%d %d bytes), want (s=%d seq=%d %d bytes)",
				i, got[i].stream, got[i].seq, len(got[i].data),
				w.stream, w.seq, len(w.data))
		}
	}
	r.release()
}

// FuzzIDataReassembly drives the reassembler in I-DATA mode with
// arbitrary chunk sequences — duplicates, conflicting flags, random
// orderings, truncated trains, interleaved MIDs — against the model.
// Seed corpus: testdata/fuzz/FuzzIDataReassembly.
func FuzzIDataReassembly(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) { fuzzReasm(t, b, true) })
}

// FuzzDataReassembly drives the same reassembler in DATA mode: TSN
// keys across the 32-bit wrap, 16-bit SSN order, random fragment
// orders, duplicates and conflicting begin and end flags. Seed corpus:
// testdata/fuzz/FuzzDataReassembly.
func FuzzDataReassembly(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) { fuzzReasm(t, b, false) })
}
