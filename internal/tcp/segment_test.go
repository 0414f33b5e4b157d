package tcp

import "testing"

// TestSackDecodeAllocFree decodes a segment with SACK blocks, a pure ACK
// without them and a data segment in turn into one segment struct, the
// way the stack reuses its receive segment: the SACK array survives the
// segments that carry no blocks, so the cycle allocates nothing.
func TestSackDecodeAllocFree(t *testing.T) {
	gapped := (&segment{Flags: flagACK, Ack: 1000, Wnd: 65535,
		Sacks: []sackBlock{{2000, 3000}, {4000, 5000}, {6000, 7000}}}).encode()
	gapless := (&segment{Flags: flagACK, Ack: 1000, Wnd: 65535}).encode()
	data := (&segment{Flags: flagACK, Seq: 1, Ack: 1000, Wnd: 65535, Data: make([]byte, 1460)}).encode()
	var seg segment
	cycle := func() {
		for _, b := range [][]byte{gapped, gapless, data} {
			if err := seg.decode(b); err != nil {
				t.Fatal(err)
			}
		}
	}
	cycle()
	if n := testing.AllocsPerRun(100, cycle); n != 0 {
		t.Fatalf("decoding gapped, gapless and data segments allocates %.1f times per cycle, want 0", n)
	}
	if err := seg.decode(gapped); err != nil || len(seg.Sacks) != 3 || seg.Sacks[2] != (sackBlock{6000, 7000}) {
		t.Fatalf("gapped segment decoded as %v (err %v)", seg.Sacks, err)
	}
	if err := seg.decode(gapless); err != nil || len(seg.Sacks) != 0 {
		t.Fatalf("gapless segment decoded with SACK blocks %v (err %v)", seg.Sacks, err)
	}
}
