package sctp

import (
	"testing"

	"repro/internal/seqnum"
)

// schedRand is a tiny deterministic xorshift PRNG for the property
// tests (no math/rand: the simlint determinism rules apply to test
// code in this package too, and a fixed seed keeps failures
// reproducible by construction).
type schedRand uint64

func (r *schedRand) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = schedRand(x)
	return x
}

func (r *schedRand) intn(n int) int { return int(r.next() % uint64(n)) }

// mkChunk builds a minimal schedulable chunk for stream st with the
// given FSN and size.
func mkChunk(st uint16, fsn uint32, size int) *outChunk {
	return &outChunk{
		c:    chunk{Type: ctIData, Stream: st, FSN: seqnum.FSN(fsn)},
		size: size,
	}
}

// popAll drains the scheduler via pop(), returning the service order.
func popAll(s *sched) []*outChunk {
	var out []*outChunk
	for s.pending() > 0 {
		oc := s.pop()
		if oc == nil {
			break
		}
		out = append(out, oc)
	}
	return out
}

// TestSchedFIFOOrder: the default policy must reproduce global arrival
// order exactly — the property that keeps I-DATA-with-FIFO bitwise
// compatible with legacy wire ordering.
func TestSchedFIFOOrder(t *testing.T) {
	s := newSched(SchedFIFO, 4)
	r := schedRand(1)
	var want []*outChunk
	for i := 0; i < 200; i++ {
		oc := mkChunk(uint16(r.intn(4)), uint32(i), 100)
		want = append(want, oc)
		s.push(oc.c.Stream, oc)
	}
	got := popAll(s)
	if len(got) != len(want) {
		t.Fatalf("popped %d of %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("position %d: wrong chunk (stream %d, want stream %d)",
				i, got[i].c.Stream, want[i].c.Stream)
		}
	}
}

// TestSchedPerStreamFSNOrder: under every policy, one stream's chunks
// must leave in push (FSN) order — interleaving happens only across
// streams, never within one. Random pushes and pops are interleaved
// so queues grow and drain repeatedly.
func TestSchedPerStreamFSNOrder(t *testing.T) {
	for _, pol := range []SchedPolicy{SchedFIFO, SchedPriority} {
		t.Run(pol.String(), func(t *testing.T) {
			const streams = 5
			s := newSched(pol, streams)
			s.setPriority(1, 2)
			s.setPriority(3, 1)
			r := schedRand(7 + schedRand(pol))
			var nextFSN [streams]uint32
			var lastPopped [streams]int64
			for i := range lastPopped {
				lastPopped[i] = -1
			}
			for round := 0; round < 2000; round++ {
				if r.intn(2) == 0 {
					st := uint16(r.intn(streams))
					s.push(st, mkChunk(st, nextFSN[st], 50+r.intn(1400)))
					nextFSN[st]++
				} else if s.pending() > 0 {
					oc := s.pop()
					st := oc.c.Stream
					if int64(uint32(oc.c.FSN)) != lastPopped[st]+1 {
						t.Fatalf("stream %d popped FSN %d after %d",
							st, oc.c.FSN, lastPopped[st])
					}
					lastPopped[st]++
				}
			}
		})
	}
}

// TestSchedRRNoStarvation: with K streams of one class backlogged
// unevenly, the round robin among equals may make a stream wait at most
// K-1 pops between its turns — no stream starves while it has work,
// also as the shorter queues drain and drop out of the rotation.
func TestSchedRRNoStarvation(t *testing.T) {
	const streams = 6
	s := newSched(SchedPriority, streams)
	r := schedRand(11)
	var fsn [streams]uint32
	// Uneven backlogs: stream 0 has 10× the chunks of stream 5.
	for st := 0; st < streams; st++ {
		n := 10 * (streams - st)
		for i := 0; i < n; i++ {
			s.push(uint16(st), mkChunk(uint16(st), fsn[st], 100+r.intn(1000)))
			fsn[st]++
		}
	}
	remaining := make([]int, streams)
	for st := 0; st < streams; st++ {
		remaining[st] = 10 * (streams - st)
	}
	sincePop := make([]int, streams)
	for s.pending() > 0 {
		oc := s.pop()
		st := int(oc.c.Stream)
		remaining[st]--
		sincePop[st] = 0
		for other := 0; other < streams; other++ {
			if other == st || remaining[other] == 0 {
				continue
			}
			sincePop[other]++
			if sincePop[other] > streams-1 {
				t.Fatalf("stream %d starved: %d pops since its last turn",
					other, sincePop[other])
			}
		}
	}
}

// TestSchedPriorityStrict: a pop must never serve a class while a
// more urgent class has a runnable chunk. Driven through pop() (not
// peek), where selection and removal are atomic, so the invariant is
// exact.
func TestSchedPriorityStrict(t *testing.T) {
	const streams = 6
	s := newSched(SchedPriority, streams)
	classOf := [streams]uint8{0, 1, 2, 0, 1, 2}
	for st, cl := range classOf {
		s.setPriority(uint16(st), cl)
	}
	r := schedRand(13)
	var fsn [streams]uint32
	pendingByClass := map[uint8]int{}
	for round := 0; round < 3000; round++ {
		if r.intn(3) > 0 {
			st := uint16(r.intn(streams))
			s.push(st, mkChunk(st, fsn[st], 100))
			fsn[st]++
			pendingByClass[classOf[st]]++
		} else if s.pending() > 0 {
			oc := s.pop()
			cl := classOf[oc.c.Stream]
			for better := uint8(0); better < cl; better++ {
				if pendingByClass[better] > 0 {
					t.Fatalf("served class %d while class %d had %d chunks pending",
						cl, better, pendingByClass[better])
				}
			}
			pendingByClass[cl]--
		}
	}
}

// TestSchedPriorityIntraClassRR: streams of equal class are served
// round-robin, so one high-priority stream cannot starve another.
func TestSchedPriorityIntraClassRR(t *testing.T) {
	s := newSched(SchedPriority, 3)
	for st := uint16(0); st < 3; st++ {
		s.setPriority(st, 1)
		for i := uint32(0); i < 50; i++ {
			s.push(st, mkChunk(st, i, 100))
		}
	}
	since := [3]int{}
	left := [3]int{50, 50, 50}
	for s.pending() > 0 {
		oc := s.pop()
		st := int(oc.c.Stream)
		left[st]--
		since[st] = 0
		for o := 0; o < 3; o++ {
			if o == st || left[o] == 0 {
				continue
			}
			since[o]++
			if since[o] > 2 {
				t.Fatalf("equal-class stream %d waited %d pops", o, since[o])
			}
		}
	}
}

// TestSchedPeekReserves: peek must reserve the selection so sizing a
// packet and then popping commits the same chunk, even when something
// more urgent arrives in between (the documented one-chunk bounded
// inversion).
func TestSchedPeekReserves(t *testing.T) {
	s := newSched(SchedPriority, 2)
	s.setPriority(0, 2)
	s.setPriority(1, 0)
	low := mkChunk(0, 0, 100)
	s.push(0, low)
	if got := s.peek(); got != low {
		t.Fatalf("peek returned %p, want the only chunk", got)
	}
	urgent := mkChunk(1, 0, 100)
	s.push(1, urgent)
	if got := s.pop(); got != low {
		t.Fatalf("pop after peek returned stream %d, want reserved stream 0", got.c.Stream)
	}
	if got := s.pop(); got != urgent {
		t.Fatalf("second pop returned stream %d, want stream 1", got.c.Stream)
	}
	if s.pending() != 0 {
		t.Fatalf("pending = %d after draining", s.pending())
	}
}

// TestSchedDrainReturnsEverything: drain must hand back exactly the
// queued chunks — including a peek-reserved one — and reset state.
func TestSchedDrainReturnsEverything(t *testing.T) {
	for _, pol := range []SchedPolicy{SchedFIFO, SchedPriority} {
		s := newSched(pol, 3)
		pushed := map[*outChunk]bool{}
		r := schedRand(17)
		for i := 0; i < 40; i++ {
			st := uint16(r.intn(3))
			oc := mkChunk(st, uint32(i), 100)
			pushed[oc] = true
			s.push(st, oc)
		}
		s.peek() // reserve one
		drained := 0
		s.drain(func(oc *outChunk) {
			if !pushed[oc] {
				t.Fatalf("%v: drained a chunk that was never pushed", pol)
			}
			delete(pushed, oc)
			drained++
		})
		if len(pushed) != 0 {
			t.Fatalf("%v: %d chunks lost in drain", pol, len(pushed))
		}
		if s.pending() != 0 {
			t.Fatalf("%v: pending = %d after drain", pol, s.pending())
		}
		if s.pop() != nil {
			t.Fatalf("%v: pop returned a chunk after drain", pol)
		}
	}
}
