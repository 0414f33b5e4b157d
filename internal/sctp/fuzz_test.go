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

// reasmOp is one fuzz-decoded I-DATA chunk for the reassembler.
type reasmOp struct {
	stream uint16
	mid    uint32
	fsn    uint32
	begin  bool
	end    bool
	size   int
}

const (
	reasmStreams = 4
	reasmOpBytes = 5
)

// decodeReasmOps turns fuzz bytes into a bounded op sequence. Keeping
// the value ranges small (4 streams, 8 MIDs, 8 FSNs) concentrates the
// search on the interesting collisions: duplicate FSNs, conflicting
// end flags, interleavings, and MID reordering.
func decodeReasmOps(b []byte) []reasmOp {
	var ops []reasmOp
	for len(b) >= reasmOpBytes && len(ops) < 512 {
		op := reasmOp{
			stream: uint16(b[0] % reasmStreams),
			mid:    uint32(b[1] % 8),
			fsn:    uint32(b[2] % 8),
			begin:  b[3]&1 != 0,
			end:    b[3]&2 != 0,
			size:   int(b[4]%32) + 1,
		}
		if op.begin {
			// Codec invariant: the begin fragment's FSN is implicitly 0
			// (the wire carries the PPID in that position).
			op.fsn = 0
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
		d[i] = byte(int(op.stream)*31 + int(op.mid)*17 + int(op.fsn)*7 + i)
	}
	return d
}

// reasmModel is an independent ~40-line mirror of the documented
// ireasm robustness contract (first fragment per FSN wins, the first
// end fragment fixes the length, delivery at most once in per-stream
// MID order). It uses plain maps and copies — no pooling, no packet
// references — so a divergence indicts the production structure.
type reasmModel struct {
	frags  map[[3]uint32][]byte // (stream, mid, fsn) → payload
	haveB  map[[2]uint32]bool
	haveE  map[[2]uint32]bool
	eFSN   map[[2]uint32]uint32
	parked map[[2]uint32][]byte
	expect [reasmStreams]uint32
	out    []delivered
}

type delivered struct {
	stream uint16
	mid    uint32
	data   []byte
}

func newReasmModel() *reasmModel {
	return &reasmModel{
		frags:  make(map[[3]uint32][]byte),
		haveB:  make(map[[2]uint32]bool),
		haveE:  make(map[[2]uint32]bool),
		eFSN:   make(map[[2]uint32]uint32),
		parked: make(map[[2]uint32][]byte),
	}
}

func (m *reasmModel) feed(op reasmOp, data []byte) {
	if op.begin && op.end {
		m.ordered(op.stream, op.mid, data)
		return
	}
	mk := [2]uint32{uint32(op.stream), op.mid}
	if m.haveE[mk] && op.fsn > m.eFSN[mk] {
		return
	}
	if op.begin {
		m.haveB[mk] = true
	}
	fk := [3]uint32{uint32(op.stream), op.mid, op.fsn}
	if _, dup := m.frags[fk]; !dup {
		m.frags[fk] = data
	}
	if op.end && !m.haveE[mk] {
		m.haveE[mk] = true
		m.eFSN[mk] = op.fsn
		for f := op.fsn + 1; f < 8; f++ {
			delete(m.frags, [3]uint32{uint32(op.stream), op.mid, f})
		}
	}
	if !m.haveB[mk] || !m.haveE[mk] {
		return
	}
	var msg []byte
	for f := uint32(0); f <= m.eFSN[mk]; f++ {
		d, ok := m.frags[[3]uint32{uint32(op.stream), op.mid, f}]
		if !ok {
			return // incomplete
		}
		msg = append(msg, d...)
	}
	for f := uint32(0); f <= m.eFSN[mk]; f++ {
		delete(m.frags, [3]uint32{uint32(op.stream), op.mid, f})
	}
	delete(m.haveB, mk)
	delete(m.haveE, mk)
	delete(m.eFSN, mk)
	m.ordered(op.stream, op.mid, msg)
}

func (m *reasmModel) ordered(stream uint16, mid uint32, data []byte) {
	if mid < m.expect[stream] {
		return
	}
	if mid != m.expect[stream] {
		if _, dup := m.parked[[2]uint32{uint32(stream), mid}]; !dup {
			m.parked[[2]uint32{uint32(stream), mid}] = data
		}
		return
	}
	m.out = append(m.out, delivered{stream, mid, data})
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

// FuzzIDataReassembly drives the interleaved reassembler with
// arbitrary chunk sequences — duplicates, conflicting flags, random
// orderings, truncated trains — and checks it never panics, never
// delivers a (stream, MID) twice or out of order, and produces exactly
// the deliveries the independent model predicts. Seed corpus:
// testdata/fuzz/FuzzIDataReassembly.
func FuzzIDataReassembly(f *testing.F) {
	f.Fuzz(func(t *testing.T, b []byte) {
		ops := decodeReasmOps(b)
		var ir ireasm
		ir.init(reasmStreams)
		model := newReasmModel()

		var got []delivered
		var expectMID [reasmStreams]uint32
		deliver := func(m *Message) {
			// Contract invariants checked independently of the model:
			// dense per-stream MID order means no double delivery.
			if m.MID != expectMID[m.Stream] {
				t.Fatalf("stream %d delivered MID %d, want %d",
					m.Stream, m.MID, expectMID[m.Stream])
			}
			expectMID[m.Stream]++
			got = append(got, delivered{m.Stream, m.MID, append([]byte(nil), m.Data...)})
			wire.PutBuf(m.Data)
		}
		for _, op := range ops {
			data := opPayload(op)
			var flags uint8
			if op.begin {
				flags |= flagBeginFragment
			}
			if op.end {
				flags |= flagEndFragment
			}
			c := &chunk{
				Type:   ctIData,
				Flags:  flags,
				Stream: op.stream,
				MID:    seqnum.MID(op.mid),
				FSN:    seqnum.FSN(op.fsn),
				Data:   data,
			}
			ir.feed(c, deliver)
			model.feed(op, data)
		}
		if len(got) != len(model.out) {
			t.Fatalf("delivered %d messages, model predicts %d", len(got), len(model.out))
		}
		for i := range got {
			w := model.out[i]
			if got[i].stream != w.stream || got[i].mid != w.mid ||
				!bytes.Equal(got[i].data, w.data) {
				t.Fatalf("delivery %d: got (s=%d mid=%d %d bytes), want (s=%d mid=%d %d bytes)",
					i, got[i].stream, got[i].mid, len(got[i].data),
					w.stream, w.mid, len(w.data))
			}
		}
		ir.release()
	})
}
