package sctp

import (
	"bytes"
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"hash"
	"testing"
	"testing/quick"

	"repro/internal/netsim"
	"repro/internal/seqnum"
	"repro/internal/wire"
)

func TestDataChunkRoundTrip(t *testing.T) {
	in := &packet{
		SrcPort: 100, DstPort: 200, VerificationTag: 0xfeedface,
		Chunks: []*chunk{{
			Type: ctData, Flags: flagBeginFragment | flagEndFragment,
			TSN: 12345, Stream: 7, SSN: 99, PPID: 42,
			Data: []byte("payload bytes"),
		}},
	}
	out, err := decodePacket(encodePacket(in), true)
	if err != nil {
		t.Fatal(err)
	}
	if out.SrcPort != 100 || out.DstPort != 200 || out.VerificationTag != 0xfeedface {
		t.Fatalf("header mismatch: %+v", out)
	}
	c := out.Chunks[0]
	if c.TSN != 12345 || c.Stream != 7 || c.SSN != 99 || c.PPID != 42 ||
		!bytes.Equal(c.Data, []byte("payload bytes")) {
		t.Fatalf("data chunk mismatch: %+v", c)
	}
}

func TestSackRoundTrip(t *testing.T) {
	in := &packet{
		SrcPort: 1, DstPort: 2, VerificationTag: 3,
		Chunks: []*chunk{{
			Type: ctSack, CumTSNAck: 1000, ARwnd: 65536,
			Gaps:    []gapBlock{{2, 4}, {7, 9}, {20, 20}},
			DupTSNs: []seqnum.V{990, 991},
		}},
	}
	out, err := decodePacket(encodePacket(in), true)
	if err != nil {
		t.Fatal(err)
	}
	c := out.Chunks[0]
	if c.CumTSNAck != 1000 || c.ARwnd != 65536 || len(c.Gaps) != 3 || len(c.DupTSNs) != 2 {
		t.Fatalf("sack mismatch: %+v", c)
	}
	if c.Gaps[1] != (gapBlock{7, 9}) || c.DupTSNs[0] != 990 {
		t.Fatalf("sack contents mismatch: %+v", c)
	}
}

func TestInitRoundTrip(t *testing.T) {
	in := &packet{
		SrcPort: 9, DstPort: 10, VerificationTag: 0,
		Chunks: []*chunk{{
			Type: ctInit, InitiateTag: 555, ARwnd: 220 << 10,
			OutStreams: 10, InStreams: 10, InitialTSN: 777,
			Addrs: []netsim.Addr{netsim.MakeAddr(0, 1), netsim.MakeAddr(1, 1)},
		}},
	}
	out, err := decodePacket(encodePacket(in), true)
	if err != nil {
		t.Fatal(err)
	}
	c := out.Chunks[0]
	if c.InitiateTag != 555 || c.OutStreams != 10 || len(c.Addrs) != 2 ||
		c.Addrs[1] != netsim.MakeAddr(1, 1) {
		t.Fatalf("init mismatch: %+v", c)
	}
}

func TestBundledChunksRoundTrip(t *testing.T) {
	in := &packet{
		SrcPort: 1, DstPort: 2, VerificationTag: 3,
		Chunks: []*chunk{
			{Type: ctSack, CumTSNAck: 5, ARwnd: 100},
			{Type: ctData, Flags: flagBeginFragment | flagEndFragment,
				TSN: 6, Stream: 0, SSN: 0, Data: []byte("abc")},
			{Type: ctData, Flags: flagBeginFragment | flagEndFragment,
				TSN: 7, Stream: 1, SSN: 0, Data: []byte("defgh")},
		},
	}
	out, err := decodePacket(encodePacket(in), true)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Chunks) != 3 {
		t.Fatalf("chunks = %d, want 3", len(out.Chunks))
	}
	if !bytes.Equal(out.Chunks[2].Data, []byte("defgh")) {
		t.Fatalf("third chunk = %q", out.Chunks[2].Data)
	}
}

func TestCorruptChecksumRejected(t *testing.T) {
	in := &packet{SrcPort: 1, DstPort: 2, VerificationTag: 3,
		Chunks: []*chunk{{Type: ctCookieAck}}}
	b := encodePacket(in)
	b[8] ^= 0xff // corrupt the checksum field itself
	if _, err := decodePacket(b, true); err == nil {
		t.Fatal("corrupted packet accepted with checksum verification on")
	}
	if _, err := decodePacket(b, false); err != nil {
		t.Fatal("verification off should skip the checksum")
	}
}

// TestBadCRCErrorIsWrapped pins the error-contract the sentinel lint
// rule enforces: decodePacket wraps errBadCRC with context, so the
// stack's checksum-vs-garbage accounting only works through errors.Is.
// A == comparison would misclassify every CRC failure as a generic
// decode error (inflating DecodeDrops, zeroing ChecksumDrops).
func TestBadCRCErrorIsWrapped(t *testing.T) {
	in := &packet{SrcPort: 1, DstPort: 2, VerificationTag: 3,
		Chunks: []*chunk{{Type: ctCookieAck}}}
	b := encodePacket(in)
	b[8] ^= 0xff
	_, err := decodePacket(b, true)
	if err == nil {
		t.Fatal("corrupted packet accepted")
	}
	if !errors.Is(err, errBadCRC) {
		t.Fatalf("CRC failure %v does not errors.Is-match errBadCRC", err)
	}
	if err == errBadCRC { //simlint:allow sentinel this test pins that the bare sentinel is NOT returned, so == must be false
		t.Fatal("decodePacket returned the bare sentinel; it must wrap it with context so callers are forced through errors.Is")
	}
}

func TestCookieRoundTripAndMAC(t *testing.T) {
	secret := []byte("test-secret")
	ck := &stateCookie{
		PeerPort: 7, PeerTag: 1, LocalTag: 2, PeerTSN: 3, LocalTSN: 4,
		OutStreams: 10, InStreams: 10,
		PeerAddrs:  []netsim.Addr{netsim.MakeAddr(0, 5)},
		LocalAddrs: []netsim.Addr{netsim.MakeAddr(0, 6), netsim.MakeAddr(1, 6)},
		IssuedAt:   12345,
	}
	// One keyed MAC serves sign and verify, reset between uses, as the
	// stack holds it.
	mac := hmac.New(sha256.New, secret)
	keyed := func() hash.Hash { mac.Reset(); return mac }
	enc := ck.encode(keyed())
	out, err := decodeCookie(enc, keyed())
	if err != nil {
		t.Fatal(err)
	}
	if out.PeerPort != 7 || out.LocalTag != 2 || len(out.LocalAddrs) != 2 ||
		out.IssuedAt != 12345 {
		t.Fatalf("cookie mismatch: %+v", out)
	}
	// Tampering must be detected.
	enc[0] ^= 1
	if _, err := decodeCookie(enc, keyed()); err == nil {
		t.Fatal("tampered cookie accepted")
	}
	enc[0] ^= 1
	if _, err := decodeCookie(enc, keyed()); err != nil {
		t.Fatalf("restored cookie rejected: %v", err)
	}
	if _, err := decodeCookie(enc, hmac.New(sha256.New, []byte("wrong"))); err == nil {
		t.Fatal("cookie accepted with wrong secret")
	}
}

// decodePacket parses and (when verify is set) checksums a packet into
// a fresh packet struct.
func decodePacket(b []byte, verify bool) (*packet, error) {
	p := new(packet)
	if err := p.decode(b, verify); err != nil {
		return nil, err
	}
	return p, nil
}

func TestQuickDataRoundTrip(t *testing.T) {
	f := func(tsn uint32, stream, ssn uint16, ppid uint32, data []byte) bool {
		if len(data) > 60000 {
			data = data[:60000]
		}
		in := &packet{
			SrcPort: 1, DstPort: 2, VerificationTag: 3,
			Chunks: []*chunk{{
				Type: ctData, Flags: flagBeginFragment,
				TSN: seqnum.V(tsn), Stream: stream, SSN: seqnum.S16(ssn),
				PPID: ppid, Data: data,
			}},
		}
		out, err := decodePacket(encodePacket(in), true)
		if err != nil {
			return false
		}
		c := out.Chunks[0]
		return c.TSN == seqnum.V(tsn) && c.Stream == stream &&
			c.SSN == seqnum.S16(ssn) && c.PPID == ppid && bytes.Equal(c.Data, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickGarbageDoesNotPanic(t *testing.T) {
	f := func(b []byte) bool {
		decodePacket(b, false) // must not panic
		decodePacket(b, true)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRangeInsertMerge(t *testing.T) {
	a := &Assoc{cumTSN: 100}
	for _, tsn := range []uint32{105, 103, 102, 110, 104} {
		a.insertRange(seqnum.V(tsn))
	}
	// Expect [102..105] and [110..110].
	if len(a.rcvRanges) != 2 {
		t.Fatalf("ranges = %+v", a.rcvRanges)
	}
	if a.rcvRanges[0] != (tsnRange{102, 105}) || a.rcvRanges[1] != (tsnRange{110, 110}) {
		t.Fatalf("ranges = %+v", a.rcvRanges)
	}
	if !a.inRanges(104) || a.inRanges(106) || a.inRanges(101) {
		t.Fatal("inRanges wrong")
	}
}

// TestSackDecodeAllocFree decodes a SACK with gap blocks and duplicate
// TSNs, a gapless SACK and a DATA chunk in turn into one chunk, the way
// a reused packet slab does: Gaps and DupTSNs survive every reset, so
// the cycle allocates nothing.
func TestSackDecodeAllocFree(t *testing.T) {
	encode := func(c *chunk) []byte {
		w := wire.NewWriter(c.wireSize())
		c.encode(w)
		return w.B
	}
	gapped := encode(&chunk{Type: ctSack, CumTSNAck: 1000, ARwnd: 65536,
		Gaps: []gapBlock{{2, 4}, {7, 9}, {20, 20}}, DupTSNs: []seqnum.V{990, 991}})
	gapless := encode(&chunk{Type: ctSack, CumTSNAck: 1000, ARwnd: 65536})
	data := encode(&chunk{Type: ctData, Flags: flagBeginFragment | flagEndFragment,
		TSN: 1001, Stream: 3, SSN: 7, PPID: 42, Data: make([]byte, 1024)})
	var c chunk
	cycle := func() {
		for _, b := range [][]byte{gapped, gapless, data} {
			if err := decodeChunk(wire.NewReader(b), &c); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("decoding gapped SACK, gapless SACK and DATA allocates %.1f times per cycle, want 0", n)
	}
	if err := decodeChunk(wire.NewReader(gapped), &c); err != nil ||
		len(c.Gaps) != 3 || c.Gaps[1] != (gapBlock{7, 9}) || len(c.DupTSNs) != 2 {
		t.Fatalf("gapped SACK decoded as gaps %v dups %v (err %v)", c.Gaps, c.DupTSNs, err)
	}
	if err := decodeChunk(wire.NewReader(gapless), &c); err != nil || len(c.Gaps) != 0 || len(c.DupTSNs) != 0 {
		t.Fatalf("gapless SACK decoded as gaps %v dups %v (err %v)", c.Gaps, c.DupTSNs, err)
	}
}
