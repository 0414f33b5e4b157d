package rpi

import (
	"errors"

	"repro/internal/freelist"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file is the message-oriented half of the shared engine: the
// Option B/C outbound writer lock and the per-stream inbound chunk
// reassembler that SCTP-style transports (one-to-many and one-to-one
// alike) need, where the transport preserves message boundaries and the
// middleware chunks long messages itself (paper §3.6).

// Payload protocol identifiers distinguishing middleware frame types on
// the wire (the SCTP PPID field, which the paper notes is free for
// application use).
const (
	PPIDEnvelope = 1
	PPIDBody     = 2
)

// StreamFor is the shared TRC→stream mapping: messages with the same
// (context, tag) always share a stream; different TRCs spread across
// the pool (paper §3.2.3).
func StreamFor(streams int, context, tag int32) uint16 {
	if streams <= 1 {
		return 0
	}
	h := uint32(context)*2654435761 + uint32(tag)*40503
	return uint16(h % uint32(streams))
}

// DeriveBodyChunk picks the middleware chunk size for messages larger
// than the transport send buffer: a quarter of the send buffer clamped
// to [4 KiB, 64 KiB].
func DeriveBodyChunk(sndBuf int) int {
	c := sndBuf / 4
	if c > 64<<10 {
		c = 64 << 10
	}
	if c < 4<<10 {
		c = 4 << 10
	}
	return c
}

// MsgKey identifies one outbound (peer rank, stream) writer lock.
type MsgKey struct {
	Rank   int
	Stream uint16
}

// RecvKey identifies one inbound reassembly slot. ID is
// transport-specific: the association id for a one-to-many socket, the
// peer rank for one-to-one connections.
type RecvKey struct {
	ID     int64
	Stream uint16
}

// msgOut is one queued middleware message: its encoded envelope, the
// body copy it holds a reference on, and how far it is written.
type msgOut struct {
	env     [EnvelopeSize]byte
	body    *Kept
	off     int
	envSent bool
}

// MsgSender queues outbound middleware messages for a message-oriented
// transport with at most one in-progress message per (peer, stream) —
// the paper's Option B fix for the long message race (§3.4.2): no
// message may start on a stream while another is partially written to
// it. Under Option C, bodiless control messages jump this queue via a
// separate control queue and are distinguished on the wire by PPID.
type MsgSender struct {
	BodyChunk int
	OptionC   bool

	trySend func(key MsgKey, ppid uint32, data []byte) error
	ctrs    Counters

	inProg map[MsgKey]*msgOut
	queued map[MsgKey][]*msgOut
	ctrlQ  map[MsgKey][][EnvelopeSize]byte
	active []MsgKey              // keys with work, in arrival order (deterministic)
	free   freelist.List[msgOut] // finished entries, reused by Send
}

// NewMsgSender builds a sender that pushes transport messages through
// trySend, which must fail with a transport.ErrWouldBlock-matching
// error when the endpoint has no buffer space.
func NewMsgSender(bodyChunk int, optionC bool, ctrs Counters,
	trySend func(key MsgKey, ppid uint32, data []byte) error) *MsgSender {
	return &MsgSender{
		BodyChunk: bodyChunk,
		OptionC:   optionC,
		trySend:   trySend,
		ctrs:      ctrs,
		inProg:    make(map[MsgKey]*msgOut),
		queued:    make(map[MsgKey][]*msgOut),
		ctrlQ:     make(map[MsgKey][][EnvelopeSize]byte),
	}
}

// Send queues one middleware message on its (peer, stream) writer and
// flushes as far as the transport allows, holding a reference on body
// until it is written. Under Option C, bodiless control envelopes
// (ACKs) bypass the writer lock.
func (s *MsgSender) Send(key MsgKey, env Envelope, body *Kept) {
	if s.OptionC && body == nil && !env.Kind.HasBody() {
		s.ctrs.Add("optionc_ctrl", 1)
		var b [EnvelopeSize]byte
		env.EncodeTo(&b)
		s.ctrlQ[key] = append(s.ctrlQ[key], b)
		s.ensureActive(key)
		s.FlushKey(key)
		return
	}
	msg := s.free.Get()
	if msg == nil {
		msg = new(msgOut)
	}
	env.EncodeTo(&msg.env)
	body.retain()
	msg.body = body
	if s.inProg[key] != nil {
		// Option B: the stream is busy; wait behind it.
		s.ctrs.Add("optionb_queued", 1)
		s.queued[key] = append(s.queued[key], msg)
		return
	}
	s.inProg[key] = msg
	s.ensureActive(key)
	s.FlushKey(key)
}

// drop lets go of an entry: its body reference, then the entry itself.
func (s *MsgSender) drop(msg *msgOut) {
	msg.body.release()
	*msg = msgOut{}
	s.free.Put(msg)
}

func (s *MsgSender) ensureActive(key MsgKey) {
	for _, k := range s.active {
		if k == key {
			return
		}
	}
	s.active = append(s.active, key)
}

func (s *MsgSender) removeActive(key MsgKey) {
	for i, k := range s.active {
		if k == key {
			s.active = append(s.active[:i], s.active[i+1:]...)
			return
		}
	}
}

// FlushKey pushes pending work on one (peer, stream) as far as the
// transport allows: Option C control messages first, then the
// in-progress message, then the next queued one. It returns the number
// of transport messages accepted.
func (s *MsgSender) FlushKey(key MsgKey) int {
	sent := 0
	for {
		// Control messages jump the line (Option C); interleaving them
		// between body chunks is safe because frame types are
		// distinguished by PPID.
		for q := s.ctrlQ[key]; len(q) > 0; q = s.ctrlQ[key] {
			err := s.trySend(key, PPIDEnvelope, q[0][:])
			if errors.Is(err, transport.ErrWouldBlock) {
				return sent
			}
			if err != nil {
				s.ctrs.Add("send_errors", 1)
			}
			s.ctrlQ[key] = q[:copy(q, q[1:])]
			sent++
		}
		msg := s.inProg[key]
		if msg == nil {
			if q := s.queued[key]; len(q) > 0 {
				msg = q[0]
				n := copy(q, q[1:])
				q[n] = nil
				s.queued[key] = q[:n]
				s.inProg[key] = msg
			} else {
				s.removeActive(key)
				return sent
			}
		}
		if !msg.envSent {
			err := s.trySend(key, PPIDEnvelope, msg.env[:])
			if errors.Is(err, transport.ErrWouldBlock) {
				return sent
			}
			if err != nil {
				s.ctrs.Add("send_errors", 1)
				s.finishMsg(key, msg)
				continue
			}
			msg.envSent = true
			sent++
		}
		body := msg.body.data()
		for msg.off < len(body) {
			end := msg.off + s.BodyChunk
			if end > len(body) {
				end = len(body)
			}
			err := s.trySend(key, PPIDBody, body[msg.off:end])
			if errors.Is(err, transport.ErrWouldBlock) {
				return sent
			}
			if err != nil {
				s.ctrs.Add("send_errors", 1)
				break
			}
			msg.off = end
			sent++
		}
		s.finishMsg(key, msg)
	}
}

func (s *MsgSender) finishMsg(key MsgKey, msg *msgOut) {
	s.inProg[key] = nil
	s.drop(msg)
}

// DropPeer discards all outbound state destined for peer rank: queued
// and in-progress messages, control frames, and active keys. Used when
// the session to that peer dies — retained messages are replayed from
// the session layer on a fresh transport session, so partially written
// frames must not linger here.
func (s *MsgSender) DropPeer(rank int) {
	for key, msg := range s.inProg {
		if key.Rank == rank {
			if msg != nil {
				s.drop(msg)
			}
			delete(s.inProg, key)
		}
	}
	for key, q := range s.queued {
		if key.Rank == rank {
			for _, msg := range q {
				s.drop(msg)
			}
			delete(s.queued, key)
		}
	}
	for key := range s.ctrlQ {
		if key.Rank == rank {
			delete(s.ctrlQ, key)
		}
	}
	for i := 0; i < len(s.active); i++ {
		if s.active[i].Rank == rank {
			s.active = append(s.active[:i], s.active[i+1:]...)
			i--
		}
	}
}

// FlushActive flushes every (peer, stream) with pending work, in
// arrival order, and reports whether any transport message was
// accepted.
func (s *MsgSender) FlushActive() bool {
	progress := false
	for i := 0; i < len(s.active); i++ {
		key := s.active[i]
		before := len(s.active)
		if s.FlushKey(key) > 0 {
			progress = true
		}
		if len(s.active) < before {
			i-- // key retired
		}
	}
	return progress
}

// FeedResult classifies what one transport message produced.
type FeedResult int

// Feed outcomes.
const (
	FeedNone    FeedResult = iota // chunk absorbed or envelope stored; nothing complete
	FeedMessage                   // a complete middleware message (env, body)
	FeedHello                     // a hello envelope (env)
	FeedError                     // a framing error (counted)
)

type recvState struct {
	env  Envelope
	body []byte
}

// Reassembler rebuilds middleware messages from per-stream chunk
// trains: an envelope frame announces the message, body frames follow
// on the same (peer, stream). This is the "maintaining state per
// stream" design of paper §3.2.4, with PPID disambiguating envelope
// from body so Option C interleaving is safe. A stream with an entry in
// rstate is inside a body train.
type Reassembler struct {
	ctrs   Counters
	rstate map[RecvKey]recvState
}

// NewReassembler builds a reassembler charging frame errors to ctrs.
func NewReassembler(ctrs Counters) *Reassembler {
	return &Reassembler{ctrs: ctrs, rstate: make(map[RecvKey]recvState)}
}

// Drop discards all partial reassembly state for transport identity id
// (every stream), releasing any partially accumulated body buffers.
// Used when the session owning that identity dies: replayed messages
// arrive as fresh, complete chunk trains on the new session.
func (r *Reassembler) Drop(id int64) {
	for key, rs := range r.rstate {
		if key.ID != id {
			continue
		}
		if rs.body != nil {
			wire.PutBuf(rs.body)
		}
		delete(r.rstate, key)
	}
}

// Feed processes one transport message on (peer, stream) key and
// reports what it produced. Feed takes ownership of data: when a single
// transport message carries an entire body it is returned directly,
// without a copy, so the caller must not reuse the slice.
func (r *Reassembler) Feed(key RecvKey, ppid uint32, data []byte) (FeedResult, Envelope, []byte) {
	rs, inBody := r.rstate[key]
	if inBody && ppid != PPIDEnvelope {
		// Continuation chunk of a long middleware message on this
		// stream. Under Option B the chunks are contiguous; under
		// Option C a control envelope may be interleaved, but it
		// carries PPIDEnvelope and is routed below instead — the
		// disambiguation that fixes the paper's §3.4 race.
		if rs.body == nil && len(data) >= rs.env.Length {
			// The whole body in one message (the common case for
			// message-oriented transports): hand it through as-is.
			delete(r.rstate, key)
			return FeedMessage, rs.env, data
		}
		if rs.body == nil {
			rs.body = wire.GetBuf(rs.env.Length)[:0]
		}
		rs.body = append(rs.body, data...)
		wire.PutBuf(data) // copied out; recycle the transport's buffer
		if len(rs.body) >= rs.env.Length {
			delete(r.rstate, key)
			return FeedMessage, rs.env, rs.body
		}
		r.rstate[key] = rs
		return FeedNone, Envelope{}, nil
	}
	// An envelope: either fresh traffic on this stream or an Option C
	// control message interleaved with a body. The envelope's fields are
	// decoded by value, so the transport's buffer is recycled here on
	// every branch.
	env, err := DecodeEnvelope(data)
	wire.PutBuf(data)
	if err != nil {
		r.ctrs.Add("frame_errors", 1)
		return FeedError, Envelope{}, nil
	}
	if env.Kind == KindHello {
		return FeedHello, env, nil
	}
	if !env.Kind.HasBody() || env.Length == 0 {
		return FeedMessage, env, nil
	}
	if inBody {
		// A data envelope arriving inside another message's body train
		// violates the writer lock (Option B) / PPID protocol.
		r.ctrs.Add("frame_errors", 1)
		return FeedError, Envelope{}, nil
	}
	// body stays nil until the first continuation chunk so a
	// single-message body can be passed through without copying.
	r.rstate[key] = recvState{env: env}
	return FeedNone, Envelope{}, nil
}
