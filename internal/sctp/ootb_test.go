package sctp

import (
	"testing"

	"repro/internal/netsim"
)

// TestOutOfTheBlueReplies checks the answers to packets that reach no
// association (RFC 4960 §8.4), both when no socket is bound to the
// destination port (Stack.respondOOTB) and when a socket is bound but
// holds no association with the sender.
func TestOutOfTheBlueReplies(t *testing.T) {
	const (
		tag     = 0xbeef
		initTag = 0x1234
	)
	cases := []struct {
		name     string
		in       []*chunk
		want     uint8 // reply chunk type; 0 means no reply
		wantTag  uint32
		wantTBit bool
	}{
		{"init", []*chunk{{Type: ctInit, InitiateTag: initTag, ARwnd: 4096, OutStreams: 1, InStreams: 1, InitialTSN: 1}},
			ctAbort, initTag, false},
		{"data", []*chunk{{Type: ctData, Flags: flagBeginFragment | flagEndFragment, TSN: 7, Data: []byte("x")}},
			ctAbort, tag, true},
		{"idata", []*chunk{{Type: ctIData, Flags: flagBeginFragment | flagEndFragment, TSN: 7, Data: []byte("x")}},
			ctAbort, tag, true},
		{"shutdown-ack", []*chunk{{Type: ctShutdownAck}}, ctShutdownComplete, tag, true},
		{"shutdown-complete", []*chunk{{Type: ctShutdownComplete}}, 0, 0, false},
		{"abort", []*chunk{{Type: ctAbort, Reason: "gone"}}, 0, 0, false},
		// Rule 2: a packet that carries an ABORT is not answered, even
		// when it also carries DATA.
		{"data+abort", []*chunk{
			{Type: ctData, Flags: flagBeginFragment | flagEndFragment, TSN: 7, Data: []byte("x")},
			{Type: ctAbort, Reason: "gone"},
		}, 0, 0, false},
	}
	for _, bound := range []bool{false, true} {
		for _, tc := range cases {
			if bound && tc.in[0].Type == ctInit {
				continue // a listening socket accepts an INIT: not out of the blue
			}
			name := tc.name
			if bound {
				name += "/socket"
			}
			t.Run(name, func(t *testing.T) {
				k, sa, sb, net := pair(1, lan(), Config{HBDisable: true})
				if bound {
					if _, err := sb.Socket(7000); err != nil {
						t.Fatal(err)
					}
				}
				var replies []*packet
				net.Trace = func(ev string, p *netsim.Packet) {
					if ev != "recv" || p.Dst != netsim.MakeAddr(0, 1) {
						return
					}
					var pk packet
					if err := pk.decode(append([]byte(nil), p.Payload...), true); err != nil {
						t.Errorf("reply does not decode: %v", err)
						return
					}
					replies = append(replies, &pk)
				}
				sa.send(netsim.MakeAddr(0, 1), netsim.MakeAddr(0, 2), &packet{
					SrcPort: 5000, DstPort: 7000, VerificationTag: tag, Chunks: tc.in,
				})
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
				if tc.want == 0 {
					if len(replies) != 0 {
						t.Fatalf("got %d replies, want none", len(replies))
					}
					return
				}
				if len(replies) != 1 || len(replies[0].Chunks) != 1 {
					t.Fatalf("got %d replies, want one single-chunk packet", len(replies))
				}
				r, c := replies[0], replies[0].Chunks[0]
				if c.Type != tc.want || r.VerificationTag != tc.wantTag || (c.Flags&abortTBit != 0) != tc.wantTBit {
					t.Fatalf("reply type %d tag %#x T=%v; want type %d tag %#x T=%v",
						c.Type, r.VerificationTag, c.Flags&abortTBit != 0, tc.want, tc.wantTag, tc.wantTBit)
				}
				if r.SrcPort != 7000 || r.DstPort != 5000 {
					t.Fatalf("reply ports %d→%d, want 7000→5000", r.SrcPort, r.DstPort)
				}
			})
		}
	}
}
