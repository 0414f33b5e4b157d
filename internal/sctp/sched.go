package sctp

// SchedPolicy selects the sender-side stream scheduler used when RFC
// 8260 I-DATA interleaving is negotiated. Legacy DATA associations
// always transmit in FIFO order (fragments of one message occupy
// consecutive TSNs, so nothing can be interleaved anyway).
type SchedPolicy int

const (
	// SchedFIFO transmits chunks in global arrival order — the legacy
	// behavior, kept as the default so interleaving alone never changes
	// wire ordering.
	SchedFIFO SchedPolicy = iota
	// SchedPriority always serves the runnable stream with the lowest
	// class value (0 is highest priority), round-robining among equals.
	SchedPriority
)

func (p SchedPolicy) String() string {
	switch p {
	case SchedFIFO:
		return "fifo"
	case SchedPriority:
		return "prio"
	default:
		return "sched?"
	}
}

// streamQ is one stream's send queue plus its scheduling parameters.
type streamQ struct {
	q    []*outChunk
	prio uint8 // SchedPriority class; 0 is most urgent
}

func (sq *streamQ) empty() bool { return len(sq.q) == 0 }

func (sq *streamQ) popFront() *outChunk {
	oc := sq.q[0]
	sq.q[0] = nil
	sq.q = sq.q[1:]
	if len(sq.q) == 0 {
		sq.q = nil // release the drained backing array
	}
	return oc
}

// sched is the pluggable sender-side stream scheduler for I-DATA mode.
// Chunks of one stream always leave in push (FSN) order; across streams
// the policy decides. peek reserves the next chunk without handing it
// out, so the sender can size packets before committing; the reserved
// chunk is returned by the next pop even if a more urgent chunk arrives
// in between (one-chunk bounded inversion, matching a real stack that
// has already framed the chunk).
type sched struct {
	policy  SchedPolicy
	streams []streamQ
	active  []*streamQ  // non-empty streams in service order
	fifo    []*outChunk // SchedFIFO global arrival order
	sel     *outChunk   // chunk reserved by peek, not yet popped
	npend   int         // chunks pushed and not yet popped (incl. sel)
}

func newSched(policy SchedPolicy, streams int) *sched {
	return &sched{policy: policy, streams: make([]streamQ, streams)}
}

// pending returns the number of chunks queued for first transmission.
func (s *sched) pending() int { return s.npend }

func (s *sched) setPriority(stream uint16, prio uint8) { s.streams[stream].prio = prio }

func (s *sched) push(stream uint16, oc *outChunk) {
	s.npend++
	if s.policy == SchedFIFO {
		s.fifo = append(s.fifo, oc)
		return
	}
	sq := &s.streams[stream]
	if sq.empty() {
		s.active = append(s.active, sq)
	}
	sq.q = append(sq.q, oc)
}

// peek returns the chunk the next pop will hand out, reserving it.
func (s *sched) peek() *outChunk {
	if s.sel == nil && s.npend > 0 {
		s.sel = s.selectNext()
	}
	return s.sel
}

// pop removes and returns the next chunk per policy, or nil when empty.
func (s *sched) pop() *outChunk {
	oc := s.peek()
	if oc != nil {
		s.sel = nil
		s.npend--
	}
	return oc
}

// selectNext dequeues one chunk according to the policy. Callers
// guarantee at least one chunk is queued.
func (s *sched) selectNext() *outChunk {
	if s.policy == SchedFIFO {
		oc := s.fifo[0]
		s.fifo[0] = nil
		s.fifo = s.fifo[1:]
		if len(s.fifo) == 0 {
			s.fifo = nil
		}
		return oc
	}
	// SchedPriority: pop one chunk from the first most urgent active
	// stream and rotate that stream to the tail (dropping it when
	// drained), so equal classes share chunk by chunk in round robin.
	best := 0
	for i, sq := range s.active {
		if sq.prio < s.active[best].prio {
			best = i
		}
	}
	sq := s.active[best]
	oc := sq.popFront()
	s.active = append(s.active[:best], s.active[best+1:]...)
	if !sq.empty() {
		s.active = append(s.active, sq)
	}
	return oc
}

// drain hands every queued chunk (including a peek-reserved one) to f
// and empties the scheduler; used at association teardown and restart.
func (s *sched) drain(f func(*outChunk)) {
	if s == nil {
		return
	}
	if s.sel != nil {
		f(s.sel)
		s.sel = nil
	}
	for _, oc := range s.fifo {
		f(oc)
	}
	s.fifo = nil
	for i := range s.streams {
		sq := &s.streams[i]
		for _, oc := range sq.q {
			f(oc)
		}
		sq.q = nil
	}
	s.active = s.active[:0]
	s.npend = 0
}
