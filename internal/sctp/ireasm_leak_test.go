package sctp

import (
	"runtime/debug"
	"testing"

	"repro/internal/testenv"
	"repro/internal/wire"
)

// TestIReasmRecyclesDroppedCopies pins the deliverOrdered drop paths: a
// message whose MID is stale (already delivered) or a duplicate of a
// parked early arrival carries a pooled buffer that no one will ever
// see again, so deliverOrdered must recycle it instead of leaking it.
// GC is disabled for the test so the pool round-trip is observable by
// buffer identity: a recycled buffer comes back out of GetBuf.
func TestIReasmRecyclesDroppedCopies(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))

	var ir ireasm
	ir.init(1)
	var got []*Message
	deliver := func(m *Message) { got = append(got, m) }

	mk := func(mid uint32, fill byte) *Message {
		d := wire.GetBuf(64)
		for i := range d {
			d[i] = fill
		}
		return &Message{Stream: 0, MID: mid, Data: d}
	}

	// expectRecycled drains the 64 B pool class looking for b; buffers
	// parked there by earlier tests may come out first.
	expectRecycled := func(what string, b []byte) {
		t.Helper()
		for i := 0; i < 8; i++ {
			if r := wire.GetBuf(64); &r[0] == &b[0] {
				return
			}
		}
		t.Fatalf("%s was not returned to the buffer pool", what)
	}

	ir.deliverOrdered(mk(0, 'a'), deliver)

	// A fabricated replay of the already-delivered MID 0.
	stale := mk(0, 'b')
	ir.deliverOrdered(stale, deliver)
	expectRecycled("stale-MID copy", stale.Data)

	// MID 2 arrives early and parks; a second copy is a duplicate whose
	// buffer must be dropped while the parked one keeps ownership.
	parked := mk(2, 'c')
	ir.deliverOrdered(parked, deliver)
	dup := mk(2, 'd')
	ir.deliverOrdered(dup, deliver)
	expectRecycled("duplicate of a parked arrival", dup.Data)

	// MID 1 flushes the parked MID 2; the parked copy's payload must be
	// intact (the duplicate's recycled buffer never replaced it).
	ir.deliverOrdered(mk(1, 'e'), deliver)
	if len(got) != 3 || got[0].MID != 0 || got[1].MID != 1 || got[2].MID != 2 {
		t.Fatalf("delivery order wrong: %d messages", len(got))
	}
	if got[2].Data[0] != 'c' {
		t.Fatalf("parked message payload corrupted: %q", got[2].Data[0])
	}
	for _, m := range got {
		wire.PutBuf(m.Data)
	}
}
