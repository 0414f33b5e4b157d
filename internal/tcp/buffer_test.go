package tcp

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/seqnum"
)

func TestSendBufferBasics(t *testing.T) {
	b := &sendBuffer{limit: 10}
	if n := b.write([]byte("hello")); n != 5 {
		t.Fatalf("write = %d", n)
	}
	if n := b.write([]byte("world!!")); n != 5 {
		t.Fatalf("overfill write = %d, want 5", n)
	}
	if b.space() != 0 {
		t.Fatalf("space = %d", b.space())
	}
	if got := b.slice(0, 5); !bytes.Equal(got, []byte("hello")) {
		t.Fatalf("slice = %q", got)
	}
	if got := b.slice(5, 100); !bytes.Equal(got, []byte("world")) {
		t.Fatalf("tail slice = %q", got)
	}
	b.ack(5)
	if got := b.slice(0, 5); !bytes.Equal(got, []byte("world")) {
		t.Fatalf("post-ack slice = %q", got)
	}
	b.ack(100) // over-ack is clamped
	if b.len() != 0 {
		t.Fatalf("len after full ack = %d", b.len())
	}
	if b.slice(10, 5) != nil {
		t.Fatal("out-of-range slice should be nil")
	}
}

func TestRecvBufferInOrder(t *testing.T) {
	b := &recvBuffer{limit: 100}
	b.deliver([]byte("abc"))
	b.deliver([]byte("def"))
	if b.readable() != 6 {
		t.Fatalf("readable = %d", b.readable())
	}
	out := make([]byte, 4)
	if n := b.read(out); n != 4 || string(out) != "abcd" {
		t.Fatalf("read = %d %q", n, out)
	}
	if b.window() != 100-2 {
		t.Fatalf("window = %d", b.window())
	}
}

func TestInsertOOOMergesAndExtracts(t *testing.T) {
	b := &recvBuffer{limit: 1 << 20}
	// Receive segments out of order: [10,13) [16,19) [13,16).
	b.insertOOO(10, []byte("AAA"))
	b.insertOOO(16, []byte("CCC"))
	b.insertOOO(13, []byte("BBB"))
	if b.oooLen != 9 {
		t.Fatalf("oooLen = %d", b.oooLen)
	}
	nxt := b.extract(10)
	if nxt != 19 {
		t.Fatalf("extract advanced to %d, want 19", nxt)
	}
	out := make([]byte, 16)
	n := b.read(out)
	if string(out[:n]) != "AAABBBCCC" {
		t.Fatalf("reassembled %q", out[:n])
	}
	if b.oooLen != 0 || len(b.ooo) != 0 {
		t.Fatalf("ooo queue not drained: len=%d n=%d", b.oooLen, len(b.ooo))
	}
}

func TestInsertOOOOverlapTrimmed(t *testing.T) {
	b := &recvBuffer{limit: 1 << 20}
	b.insertOOO(10, []byte("XXXX"))         // [10,14)
	n := b.insertOOO(8, []byte("yyyyyyyy")) // [8,16): only [8,10) and [14,16) are new
	if n != 4 {
		t.Fatalf("stored %d new bytes, want 4", n)
	}
	if b.oooLen != 8 {
		t.Fatalf("oooLen = %d", b.oooLen)
	}
	// Duplicate insert stores nothing.
	if n := b.insertOOO(10, []byte("zzzz")); n != 0 {
		t.Fatalf("dup stored %d", n)
	}
}

func TestSackBlockCoalescing(t *testing.T) {
	b := &recvBuffer{limit: 1 << 20}
	b.insertOOO(100, make([]byte, 10)) // [100,110)
	b.insertOOO(110, make([]byte, 10)) // adjacent: one block [100,120)
	b.insertOOO(200, make([]byte, 5))  // separate block
	blocks := b.sackBlocks(nil, 4, 200, 5)
	if len(blocks) != 2 {
		t.Fatalf("blocks = %+v", blocks)
	}
	// Most recent arrival's block first (RFC 2018).
	if blocks[0] != (sackBlock{200, 205}) {
		t.Fatalf("first block %+v, want the recent one", blocks[0])
	}
	if blocks[1] != (sackBlock{100, 120}) {
		t.Fatalf("second block %+v", blocks[1])
	}
}

func TestSackBlockLimit(t *testing.T) {
	b := &recvBuffer{limit: 1 << 20}
	for i := 0; i < 10; i++ {
		b.insertOOO(seqnum.V(i*100), make([]byte, 10))
	}
	if got := len(b.sackBlocks(nil, 4, 0, 0)); got != 4 {
		t.Fatalf("block count = %d, want 4 (the BSD option-space limit)", got)
	}
	if got := len(b.sackBlocks(nil, 64, 0, 0)); got != 10 {
		t.Fatalf("unlimited block count = %d", got)
	}
}

// Property: inserting the byte stream in any segmented order and then
// extracting yields the original bytes.
func TestQuickReassembly(t *testing.T) {
	f := func(seed int64, sz uint16) bool {
		n := int(sz)%4096 + 1
		data := make([]byte, n)
		rng := rand.New(rand.NewSource(seed))
		rng.Read(data)
		// Split into random segments and shuffle.
		type seg struct {
			off int
			b   []byte
		}
		var segs []seg
		for off := 0; off < n; {
			l := rng.Intn(200) + 1
			if off+l > n {
				l = n - off
			}
			segs = append(segs, seg{off, data[off : off+l]})
			off += l
		}
		rng.Shuffle(len(segs), func(i, j int) { segs[i], segs[j] = segs[j], segs[i] })
		b := &recvBuffer{limit: 1 << 20}
		base := seqnum.V(rng.Uint32())
		for _, s := range segs {
			b.insertOOO(base.Add(uint32(s.off)), s.b)
		}
		// Also re-insert a few duplicates.
		for i := 0; i < 3 && i < len(segs); i++ {
			s := segs[i]
			b.insertOOO(base.Add(uint32(s.off)), s.b)
		}
		if b.extract(base) != base.Add(uint32(n)) {
			return false
		}
		out := make([]byte, n)
		if b.read(out) != n {
			return false
		}
		return bytes.Equal(out, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestSegmentRoundTrip(t *testing.T) {
	in := &segment{
		SrcPort: 1, DstPort: 2,
		Seq: 1000, Ack: 2000,
		Flags: flagACK, Wnd: 65535, MSS: 1460,
		Sacks: []sackBlock{{3000, 4000}, {5000, 6000}},
		Data:  []byte("data bytes"),
	}
	var out segment
	if err := out.decode(in.encode()); err != nil {
		t.Fatal(err)
	}
	if out.Seq != in.Seq || out.Ack != in.Ack || out.Wnd != in.Wnd ||
		len(out.Sacks) != 2 || out.Sacks[1] != in.Sacks[1] ||
		!bytes.Equal(out.Data, in.Data) {
		t.Fatalf("round trip mismatch: %+v", out)
	}
	if in.segLen() != uint32(len(in.Data)) {
		t.Fatalf("segLen = %d", in.segLen())
	}
	syn := &segment{Flags: flagSYN}
	if syn.segLen() != 1 {
		t.Fatal("SYN should occupy one sequence number")
	}
}

func TestQuickSegmentGarbage(t *testing.T) {
	f := func(b []byte) bool {
		new(segment).decode(b) // must not panic
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
