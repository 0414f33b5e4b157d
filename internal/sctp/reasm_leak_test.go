package sctp

import (
	"runtime/debug"
	"testing"

	"repro/internal/seqnum"
	"repro/internal/testenv"
	"repro/internal/wire"
)

// TestReasmRecyclesDroppedCopies pins the deliverOrdered drop paths in
// both chunk modes: a message whose SSN or MID is stale (already
// delivered) or a duplicate of a parked early arrival carries a pooled
// buffer that no one will ever see again, so deliverOrdered must
// recycle it instead of leaking it, and the parked copy must keep its
// payload. GC is disabled for the test so the pool round-trip is
// observable by buffer identity: a recycled buffer comes back out of
// GetBuf.
func TestReasmRecyclesDroppedCopies(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	for _, mid := range []bool{false, true} {
		name := "data"
		if mid {
			name = "idata"
		}
		t.Run(name, func(t *testing.T) {
			var got []*Message
			r := reasm{stack: new(Stack), to: sinkFunc(func(m *Message) { got = append(got, m) })}
			r.init(1, mid)

			mk := func(seq uint32, fill byte) *Message {
				d := wire.GetBuf(64)
				for i := range d {
					d[i] = fill
				}
				m := &Message{Stream: 0, Data: d}
				if mid {
					m.MID = seq
				} else {
					m.SSN = uint16(seq)
				}
				return m
			}

			// expectRecycled drains the 64 B pool class looking for b;
			// buffers parked there by earlier tests may come out first.
			expectRecycled := func(what string, b []byte) {
				t.Helper()
				for i := 0; i < 8; i++ {
					if r := wire.GetBuf(64); &r[0] == &b[0] {
						return
					}
				}
				t.Fatalf("%s was not returned to the buffer pool", what)
			}

			r.deliverOrdered(mk(0, 'a'))

			// A fabricated replay of the already-delivered message 0.
			stale := mk(0, 'b')
			staleData := stale.Data
			r.deliverOrdered(stale)
			expectRecycled("stale copy", staleData)

			// Message 2 arrives early and parks; a second copy is a
			// duplicate whose buffer must be dropped while the parked
			// one keeps ownership.
			r.deliverOrdered(mk(2, 'c'))
			dup := mk(2, 'd')
			dupData := dup.Data
			r.deliverOrdered(dup)
			expectRecycled("duplicate of a parked arrival", dupData)

			// Message 1 flushes the parked message 2; the parked copy's
			// payload must be intact (the duplicate's recycled buffer
			// never replaced it).
			r.deliverOrdered(mk(1, 'e'))
			if len(got) != 3 || r.seqOf(got[0]) != 0 || r.seqOf(got[1]) != 1 || r.seqOf(got[2]) != 2 {
				t.Fatalf("delivery order wrong: %d messages", len(got))
			}
			if got[2].Data[0] != 'c' {
				t.Fatalf("parked message payload corrupted: %q", got[2].Data[0])
			}
			for _, m := range got {
				wire.PutBuf(m.Data)
			}
		})
	}
}

// TestReasmOrderWraps pins per-stream order across the wrap of the
// sequence space: 16 bits for DATA's SSN, 32 bits for I-DATA's MID. The
// message just below the wrap is stale once it has been delivered, and
// one just past it parks until the wrap arrives.
func TestReasmOrderWraps(t *testing.T) {
	for _, tc := range []struct {
		name string
		mid  bool
		top  uint32
	}{{"data", false, 0xffff}, {"idata", true, 0xffffffff}} {
		t.Run(tc.name, func(t *testing.T) {
			var got []uint32
			r := reasm{stack: new(Stack)}
			r.to = sinkFunc(func(m *Message) { got = append(got, r.seqOf(m)) })
			r.init(1, tc.mid)
			r.expected[0] = tc.top
			feed := func(seq uint32) {
				c := &chunk{Flags: flagBeginFragment | flagEndFragment, Data: []byte{1}}
				if tc.mid {
					c.Type, c.MID = ctIData, seqnum.MID(seq)
				} else {
					c.Type, c.SSN = ctData, seqnum.S16(seq)
				}
				r.feed(c)
			}
			feed(tc.top)
			feed(1)          // early: parks
			feed(tc.top)     // stale after the wrap
			feed(tc.top - 1) // stale
			feed(0)          // flushes 0 and 1
			want := []uint32{tc.top, 0, 1}
			if len(got) != len(want) {
				t.Fatalf("delivered %v, want %v", got, want)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("delivered %v, want %v", got, want)
				}
			}
		})
	}
}
