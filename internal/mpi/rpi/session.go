package rpi

import (
	"fmt"
	"time"

	"repro/internal/freelist"
	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file is the session-recovery half of the shared engine: a
// per-peer state machine that lets an RPI module survive the death of
// its transport session (TCP connection, SCTP association) with
// exactly-once, in-order message delivery across the recovery.
//
// The mechanism is the classic reliable-session design: every
// middleware message bound for a peer is stamped with a dense per-peer
// sequence number (SSeq) and retained (body copied) until the peer
// acknowledges delivery via the SAck field piggybacked on its own
// traffic. When the transport session dies, the module redials (capped
// exponential backoff, deterministic jitter from the sim RNG, bounded
// attempt budget) and the two sides exchange a
// KindReconnect/KindReconnectAck handshake carrying a new epoch and
// each side's cumulative delivered sequence; each side then replays
// exactly the retained gap above the peer's cumulative. The receiver
// dedups on SSeq (cumulative floor plus an above-floor seen set, so
// multistream out-of-order arrival is handled), which keeps delivery
// exactly-once even when the ack was lost with the session.
//
// The session fields never cross the module boundary: Send stamps
// below the Observe wrapper and Accept zeroes SSeq/SAck/SEpoch before
// the engine delivers, so the middleware and the chaos oracle see
// plain envelopes.

// SessState is a per-peer session recovery state.
type SessState int

// Session states. The steady state is SessUp; loss detection moves to
// SessSuspect (transport cleanup pending), scheduling a redial moves
// to SessReconnecting, a reconnect handshake moves to SessReplay for
// the duration of gap retransmission, and back to SessUp.
const (
	SessUp SessState = iota
	SessSuspect
	SessReconnecting
	SessReplay
)

func (s SessState) String() string {
	switch s {
	case SessUp:
		return "up"
	case SessSuspect:
		return "suspect"
	case SessReconnecting:
		return "reconnecting"
	case SessReplay:
		return "replay"
	}
	return "?"
}

// Session recovery tuning. The backoff base/cap are deliberately
// aggressive for a LAN: the first redial is immediate (the transport
// itself fails fast on a dead endpoint), later ones back off
// exponentially to the cap.
const (
	redialBackoffBase = 100 * time.Millisecond
	redialBackoffCap  = 2 * time.Second
	defaultRedials    = 8
)

// SessionConfig tunes the recovery layer.
type SessionConfig struct {
	// RedialBudget bounds redial attempts per loss episode: 0 means
	// the default (8), negative means no redials are allowed (the
	// first loss is terminal).
	RedialBudget int

	// DropReplayEvery, when N > 0, silently drops the Nth replayed
	// message (once). It exists only to mutation-test the recovery
	// oracle: the dropped message must trip the exactly-once /
	// completeness invariants.
	DropReplayEvery int
}

func (c SessionConfig) budget() int {
	switch {
	case c.RedialBudget == 0:
		return defaultRedials
	case c.RedialBudget < 0:
		return 0
	}
	return c.RedialBudget
}

// Retained is one unacknowledged outbound message held for possible
// replay. Env is the stamped envelope (SSeq assigned); SEpoch and SAck
// are refreshed when the entry is replayed. Body is nil for a bodiless
// message.
type Retained struct {
	Env  Envelope
	Body *Kept
}

// Kept is the session layer's copy of one outbound message body, in a
// wire-pool buffer. The retention list holds one reference until the
// peer acknowledges the message; each transmit queue entry writing the
// body (MsgSender, OutQueue) holds another until the body is written out
// or the entry is dropped. The last reference returns the buffer to the
// pool and the Kept to its Sessions' free list. A nil *Kept is an empty
// body.
type Kept struct {
	b    []byte
	refs int32
	ss   *Sessions
}

// data returns the body.
func (k *Kept) data() []byte {
	if k == nil {
		return nil
	}
	return k.b
}

func (k *Kept) retain() {
	if k != nil {
		k.refs++
	}
}

func (k *Kept) release() {
	if k == nil {
		return
	}
	k.refs--
	if k.refs > 0 {
		return
	}
	wire.PutBuf(k.b)
	ss := k.ss
	*k = Kept{ss: ss}
	ss.freeKept.Put(k)
}

// Session is the recovery state for one peer.
type Session struct {
	Peer  int
	State SessState
	Epoch uint32

	nextSeq uint64 // next SSeq to assign (1-based)
	retain  []Retained

	recvCum  uint64          // highest in-order delivered SSeq from the peer
	recvSeen map[uint64]bool // delivered SSeqs above the floor; nil until one arrives out of order

	attempts     int
	backoff      time.Duration
	nextAttempt  time.Duration // virtual time of the next allowed redial
	dialing      bool          // a redial attempt is in flight
	pendingEpoch uint32        // epoch proposed in our outstanding Reconnect
}

// Retention returns the number of retained (unacknowledged) messages.
func (s *Session) Retention() int { return len(s.retain) }

// Sessions manages per-peer recovery state for one module.
type Sessions struct {
	e    *Engine
	k    *sim.Kernel
	cfg  SessionConfig
	sess []*Session

	freeKept freelist.List[Kept] // released body copies, reused by StampOut
	replayed int                 // global replay counter for the drop mutation
}

// NewSessions builds the recovery layer for a module of the given
// world size.
func NewSessions(e *Engine, k *sim.Kernel, size int, cfg SessionConfig) *Sessions {
	ss := &Sessions{e: e, k: k, cfg: cfg, sess: make([]*Session, size)}
	for i := range ss.sess {
		ss.sess[i] = &Session{Peer: i, nextSeq: 1}
	}
	return ss
}

// Get returns the session for peer.
func (ss *Sessions) Get(peer int) *Session { return ss.sess[peer] }

// StampOut stamps one outbound middleware envelope with its session
// fields and retains a copy (body included) for possible replay. It
// returns the body copy, which is what the module transmits (the caller
// may reuse body as soon as Send returns), and whether to transmit it
// now. While the session is recovering the message is retention-only:
// it will reach the peer as part of the replay gap once the handshake
// completes.
func (ss *Sessions) StampOut(peer int, env *Envelope, body []byte) (kept *Kept, up bool) {
	s := ss.sess[peer]
	env.SSeq = s.nextSeq
	s.nextSeq++
	env.SEpoch = s.Epoch
	env.SAck = s.recvCum
	if len(body) > 0 {
		kept = ss.keep(body)
	}
	s.retain = append(s.retain, Retained{Env: *env, Body: kept})
	return kept, s.State == SessUp
}

// keep copies body into a pooled Kept holding the retention's reference.
func (ss *Sessions) keep(body []byte) *Kept {
	k := ss.freeKept.Get()
	if k == nil {
		k = &Kept{ss: ss}
	}
	k.b = wire.GetBuf(len(body))
	copy(k.b, body)
	k.refs = 1
	return k
}

// Close drops every retained message (module teardown). Bodies still
// queued for transmission stay alive until their queue lets go.
func (ss *Sessions) Close() {
	for _, s := range ss.sess {
		ss.prune(s, s.nextSeq)
	}
}

// Accept runs receiver-side session processing on one complete inbound
// middleware message: prune our retention by the peer's piggybacked
// SAck, then dedup on SSeq. It returns false when the message is a
// duplicate (already delivered before the session died) and must be
// suppressed. On true, the session fields have been zeroed so the
// middleware sees a plain envelope.
func (ss *Sessions) Accept(peer int, env *Envelope) bool {
	s := ss.sess[peer]
	ss.prune(s, env.SAck)
	if env.SSeq == 0 { // unsessioned control traffic
		env.SAck, env.SEpoch = 0, 0
		return true
	}
	seq := env.SSeq
	if seq <= s.recvCum || s.recvSeen[seq] {
		ss.e.ctrs.Add("dups_suppressed", 1)
		return false
	}
	if seq == s.recvCum+1 {
		// In order: advance the floor, then absorb any successors that
		// arrived early.
		s.recvCum++
		for len(s.recvSeen) > 0 && s.recvSeen[s.recvCum+1] {
			delete(s.recvSeen, s.recvCum+1)
			s.recvCum++
		}
	} else {
		if s.recvSeen == nil {
			s.recvSeen = make(map[uint64]bool)
		}
		s.recvSeen[seq] = true
	}
	env.SSeq, env.SAck, env.SEpoch = 0, 0, 0
	return true
}

// prune drops retained messages the peer has acknowledged delivering.
func (ss *Sessions) prune(s *Session, ack uint64) {
	i := 0
	for i < len(s.retain) && s.retain[i].Env.SSeq <= ack {
		s.retain[i].Body.release()
		i++
	}
	if i > 0 {
		n := copy(s.retain, s.retain[i:])
		clear(s.retain[n:])
		s.retain = s.retain[:n]
	}
}

// MarkLost records a session-loss signal: Up → Suspect. It returns
// true on the first signal for this episode (the caller then tears
// down per-peer transport state and decides whether to redial); false
// for stale or repeated signals.
func (ss *Sessions) MarkLost(peer int) bool {
	s := ss.sess[peer]
	if s.State != SessUp {
		return false
	}
	s.State = SessSuspect
	s.attempts = 0
	s.backoff = redialBackoffBase
	ss.e.ctrs.Add("sessions_lost", 1)
	return true
}

// ScheduleRedial moves a suspect session to Reconnecting with the
// first attempt due immediately. The engine kick makes the proactor
// loop's next tail sweep run the attempt: redial state is time-driven,
// not endpoint readiness, so it rides the Notify channel.
func (ss *Sessions) ScheduleRedial(peer int) {
	s := ss.sess[peer]
	s.State = SessReconnecting
	s.dialing = false
	s.nextAttempt = ss.k.Now()
	ss.e.Notify()
}

// RedialDue reports whether a redial attempt should start now.
func (ss *Sessions) RedialDue(peer int) bool {
	s := ss.sess[peer]
	return s.State == SessReconnecting && !s.dialing && ss.k.Now() >= s.nextAttempt
}

// BeginAttempt claims one unit of redial budget. The returned error is
// terminal (wraps transport.ErrSessionLost) when the budget is
// exhausted: the module must fail its Advance with it.
func (ss *Sessions) BeginAttempt(peer int) error {
	s := ss.sess[peer]
	if s.attempts >= ss.cfg.budget() {
		return fmt.Errorf("rpi: rank %d: session to peer %d dead (epoch %d) after %d redial attempt(s): %w",
			ss.e.Rank, peer, s.Epoch, s.attempts, transport.ErrSessionLost)
	}
	s.attempts++
	s.dialing = true
	ss.e.ctrs.Add("redials_attempted", 1)
	return nil
}

// AttemptFailed records a failed redial (or a replacement session that
// died before its handshake completed) and schedules the next attempt
// with capped exponential backoff and deterministic jitter drawn from
// the simulation RNG.
func (ss *Sessions) AttemptFailed(peer int) {
	s := ss.sess[peer]
	s.State = SessReconnecting
	s.dialing = false
	delay := s.backoff + time.Duration(ss.k.Rand().Int63n(int64(s.backoff/2)+1))
	s.backoff *= 2
	if s.backoff > redialBackoffCap {
		s.backoff = redialBackoffCap
	}
	s.nextAttempt = ss.k.Now() + delay
	ss.k.After(delay, ss.e.Notify)
}

// DialSucceeded records a transport-level redial success; the module
// then sends its KindReconnect handshake on the new session.
func (ss *Sessions) DialSucceeded(peer int) {
	s := ss.sess[peer]
	s.dialing = false
	ss.e.ctrs.Add("redials_ok", 1)
}

// ReconnectEnv builds the KindReconnect handshake envelope announcing
// a proposed new epoch and our cumulative delivered sequence.
func (ss *Sessions) ReconnectEnv(peer int) Envelope {
	s := ss.sess[peer]
	s.pendingEpoch = s.Epoch + 1
	return Envelope{
		Kind:   KindReconnect,
		Rank:   int32(ss.e.Rank),
		SEpoch: s.pendingEpoch,
		SAck:   s.recvCum,
	}
}

// OnReconnect processes a peer's KindReconnect handshake (the acceptor
// side, which may not even have noticed the loss yet): adopt the
// epoch, enter Replay, and return the ReconnectAck to send followed by
// the retained gap to replay. The caller sends the ack, replays the
// gap, and calls Resume.
func (ss *Sessions) OnReconnect(peer int, env Envelope) (ack Envelope, replay []Retained) {
	s := ss.sess[peer]
	epoch := s.Epoch + 1
	if env.SEpoch > epoch {
		epoch = env.SEpoch
	}
	if s.pendingEpoch > epoch {
		epoch = s.pendingEpoch
	}
	s.Epoch = epoch
	s.State = SessReplay
	ack = Envelope{
		Kind:   KindReconnectAck,
		Rank:   int32(ss.e.Rank),
		SEpoch: s.Epoch,
		SAck:   s.recvCum,
	}
	return ack, ss.gap(s, env.SAck)
}

// OnReconnectAck processes the peer's KindReconnectAck (the dialer
// side): adopt the final epoch and return the retained gap to replay.
// The caller replays it and calls Resume.
func (ss *Sessions) OnReconnectAck(peer int, env Envelope) (replay []Retained) {
	s := ss.sess[peer]
	if env.SEpoch > s.Epoch {
		s.Epoch = env.SEpoch
	}
	if s.pendingEpoch > s.Epoch {
		s.Epoch = s.pendingEpoch
	}
	s.State = SessReplay
	return ss.gap(s, env.SAck)
}

// gap selects the retained messages above the peer's cumulative
// delivered sequence, refreshing their session fields for the new
// epoch, and applies the drop-replay mutation if configured.
func (ss *Sessions) gap(s *Session, peerCum uint64) []Retained {
	ss.prune(s, peerCum)
	var out []Retained
	for _, r := range s.retain {
		ss.replayed++
		if ss.cfg.DropReplayEvery > 0 && ss.replayed == ss.cfg.DropReplayEvery {
			ss.e.ctrs.Add("replays_dropped", 1)
			continue
		}
		r.Env.SEpoch = s.Epoch
		r.Env.SAck = s.recvCum
		out = append(out, r)
		ss.e.ctrs.Add("msgs_replayed", 1)
	}
	return out
}

// Resume completes a recovery: Replay → Up. Middleware sends posted
// after this point transmit immediately again.
func (ss *Sessions) Resume(peer int) {
	s := ss.sess[peer]
	s.State = SessUp
	s.pendingEpoch = 0
}
