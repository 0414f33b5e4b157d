package rpi

import (
	"errors"

	"repro/internal/fifo"
	"repro/internal/freelist"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file is the byte-stream half of the shared engine: the outbound
// queue with partial-write resumption and the envelope-framing read
// state machine that byte-oriented transports (the TCP module) need
// and message-oriented ones do not.

// outMsg is one queued outbound message: encoded envelope plus the body
// copy it holds a reference on, with partial-write state.
type outMsg struct {
	env  [EnvelopeSize]byte
	body *Kept
	off  int // bytes written across env+body
}

func (m *outMsg) total() int { return EnvelopeSize + len(m.body.data()) }

// OutQueue is a per-connection outbound queue for byte-stream
// transports: one message at a time with partial-write resumption,
// exactly as LAM's nonblocking TCP writer works.
type OutQueue struct {
	wq   fifo.Queue[*outMsg]
	cur  *outMsg
	free freelist.List[outMsg] // finished entries, reused by Push
}

// Push appends one message to the queue, which holds a reference on
// body until the message is written or discarded.
func (q *OutQueue) Push(env Envelope, body *Kept) {
	msg := q.free.Get()
	if msg == nil {
		msg = new(outMsg)
	}
	env.EncodeTo(&msg.env)
	body.retain()
	msg.body = body
	q.wq.Push(msg)
}

// Pending reports whether the queue holds unfinished work.
func (q *OutQueue) Pending() bool { return q.cur != nil || q.wq.Len() > 0 }

// Flush writes queued messages until the transport would block,
// returning the number of bytes moved into it. A terminal write error
// drops the in-progress message after invoking onError — MPI treats
// communication failure as fatal (paper §3.5).
func (q *OutQueue) Flush(tryWrite func([]byte) (int, error), onError func(error)) int {
	wrote := 0
	for {
		if q.cur == nil {
			if q.wq.Len() == 0 {
				return wrote
			}
			q.cur = q.wq.Pop()
		}
		msg := q.cur
		for msg.off < msg.total() {
			var chunk []byte
			if msg.off < EnvelopeSize {
				chunk = msg.env[msg.off:]
			} else {
				chunk = msg.body.data()[msg.off-EnvelopeSize:]
			}
			n, err := tryWrite(chunk)
			msg.off += n
			wrote += n
			if errors.Is(err, transport.ErrWouldBlock) {
				return wrote
			}
			if err != nil {
				onError(err)
				msg.off = msg.total()
			}
		}
		q.cur = nil
		q.drop(msg)
	}
}

// drop lets go of a message: its body reference, then the entry.
func (q *OutQueue) drop(msg *outMsg) {
	msg.body.release()
	*msg = outMsg{}
	q.free.Put(msg)
}

// Reset discards all queued and partially written messages. Used when
// the connection dies: unacknowledged messages are replayed from the
// session layer's retention on the replacement connection, so nothing
// here is worth keeping.
func (q *OutQueue) Reset() {
	if q.cur != nil {
		q.drop(q.cur)
		q.cur = nil
	}
	for q.wq.Len() > 0 {
		q.drop(q.wq.Pop())
	}
}

// StreamFramer is the per-connection inbound state machine for
// byte-stream transports: EnvelopeSize envelope bytes, then Length
// body bytes, repeated.
type StreamFramer struct {
	envBuf  [EnvelopeSize]byte
	envGot  int
	env     Envelope
	haveEnv bool
	body    []byte
}

// Reset abandons any partially framed message (the connection died
// mid-message), releasing the pooled body buffer.
func (f *StreamFramer) Reset() {
	if f.body != nil {
		wire.PutBuf(f.body)
	}
	*f = StreamFramer{}
}

// beginMessage latches a decoded envelope and allocates the pooled
// body buffer ownership of which passes to onMsg with the complete
// message; the RPI engine recycles it after delivery.
func (f *StreamFramer) beginMessage(env Envelope) {
	f.env = env
	f.envGot = 0
	f.haveEnv = true
	f.body = nil
	if env.Kind.HasBody() && env.Length > 0 {
		f.body = wire.GetBuf(env.Length)[:0]
	}
}

// readEnvelope advances the envelope half of the state machine. The
// fast path parses the envelope in place from the stream's contiguous
// head region — no copy, no scratch buffer; with a bip-buffer receive
// queue underneath, that is the overwhelmingly common case. Only an
// envelope straddling the region boundary (or arriving in fragments)
// is assembled byte-by-byte in envBuf. Returns true once f.haveEnv;
// false when out of bytes or on a frame error (which it reports).
func (f *StreamFramer) readEnvelope(src transport.ByteStream, progress *bool, onFrameError func()) bool {
	if f.envGot == 0 {
		if h, _ := src.Peek(); len(h) >= EnvelopeSize {
			env, derr := DecodeEnvelope(h[:EnvelopeSize])
			src.Discard(EnvelopeSize)
			*progress = true
			if derr != nil {
				onFrameError()
				return false
			}
			f.beginMessage(env)
			return true
		}
	}
	n, _ := src.TryRead(f.envBuf[f.envGot:])
	if n == 0 {
		// Would block, EOF (peer finalized), or reset.
		return false
	}
	*progress = true
	f.envGot += n
	if f.envGot < EnvelopeSize {
		return false // a short read means the stream is drained
	}
	env, derr := DecodeEnvelope(f.envBuf[:])
	if derr != nil {
		onFrameError()
		return false
	}
	f.beginMessage(env)
	return true
}

// Drain pulls every available byte through the framing state machine,
// invoking onMsg for each complete message and onFrameError for an
// undecodable envelope (which also abandons the read pass). It reports
// whether anything arrived.
func (f *StreamFramer) Drain(src transport.ByteStream,
	onMsg func(Envelope, []byte), onFrameError func()) bool {
	progress := false
	for {
		if !f.haveEnv {
			if !f.readEnvelope(src, &progress, onFrameError) {
				return progress
			}
		}
		// Body bytes, if any.
		bodyLen := 0
		if f.env.Kind.HasBody() {
			bodyLen = f.env.Length
		}
		for len(f.body) < bodyLen {
			// Read straight into the body's free capacity; no scratch
			// buffer, no second copy. The 64 KiB cap mirrors a socket
			// read size and bounds how much one call consumes.
			need := bodyLen - len(f.body)
			if need > 64<<10 {
				need = 64 << 10
			}
			n, err := src.TryRead(f.body[len(f.body) : len(f.body)+need])
			if n > 0 {
				f.body = f.body[:len(f.body)+n]
				progress = true
			}
			if errors.Is(err, transport.ErrWouldBlock) || n == 0 {
				if len(f.body) < bodyLen {
					return progress
				}
			} else if err != nil {
				return progress
			}
		}
		// Complete message.
		env, body := f.env, f.body
		f.haveEnv = false
		f.body = nil
		onMsg(env, body)
		progress = true
	}
}
