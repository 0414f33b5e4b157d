package rpi

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file is the connection-management skeleton every backend shares,
// so a backend reduces to a transport binding (the paper's §3 thesis).
// Base runs the session-recovery protocol around whatever transport
// sessions the binding keeps: the bring-up hello quota, Send (stamp,
// count, complete, transmit while the session is up), the recovery
// handshake and its replay, loss handling and the redial sweep. PeerMesh
// (peermesh.go) adds what the dial-per-peer backends share on top.

// Link is the transport binding Base drives.
type Link interface {
	// Up reports whether peer has a live transport session.
	Up(peer int) bool

	// Dial opens a replacement session to peer, blocking in process
	// context, and attaches it.
	Dial(p *sim.Proc, peer int) error

	// Queue hands one message to peer's session, holding a reference on
	// body until it is written. A message-oriented binding transmits at
	// once; a byte-stream binding buffers until Flush.
	Queue(peer int, env Envelope, body *Kept)

	// Flush writes what Queue buffered for peer as far as the transport
	// allows.
	Flush(peer int)
}

// Base is the session-recovery skeleton. A backend embeds it (directly,
// or through PeerMesh, whose Open binds it), calls Setup from its
// constructor and Bind then BringUp from Init, and inherits Send and
// Advance.
type Base struct {
	Engine
	Sess *Sessions

	cfg     SessionConfig
	barrier *Barrier
	link    Link
	nfds    int
	onEvent func(tag int, ev transport.Ready) bool
	after   func() bool

	helloFrom int    // bring-up waits for the hello of every other rank below this
	helloSeen []bool // peers confirmed during bring-up (distinct)
	hellos    int
}

// Setup initializes the skeleton at module construction time. barrier
// must be shared by all ranks in the job.
func (b *Base) Setup(rank, size int, cost CostModel, cfg SessionConfig, barrier *Barrier) {
	b.SetupEngine(rank, size, cost)
	b.cfg, b.barrier = cfg, barrier
}

// Bind attaches the skeleton to its process and binding. nfds is the
// descriptor count each poll pass is charged for. helloFrom is the
// bring-up quota rule as data: BringUp waits until every other rank
// below helloFrom has said hello — this rank for a dial-per-peer mesh,
// where only lower ranks dial in, the world size when every peer
// announces itself. onEvent handles one readiness edge; after, if
// non-nil, runs at the end of every poll pass.
func (b *Base) Bind(p *sim.Proc, link Link, nfds, helloFrom int,
	onEvent func(tag int, ev transport.Ready) bool, after func() bool) {
	b.BindProc(p)
	b.Sess = NewSessions(&b.Engine, p.Kernel(), b.Size, b.cfg)
	b.link, b.nfds, b.onEvent, b.after = link, nfds, onEvent, after
	b.helloFrom = helloFrom
	b.helloSeen = make([]bool, b.Size)
}

// IsPeer reports whether r names another rank of the world.
func (b *Base) IsPeer(r int) bool { return r >= 0 && r < b.Size && r != b.Rank }

// MarkHello records that peer is confirmed for the bring-up quota: its
// hello arrived or, if a session kill hit the bring-up, its recovery
// handshake completed — hellos are unsessioned and never replayed, so
// the handshake stands in for a lost one.
func (b *Base) MarkHello(peer int) {
	if peer < b.helloFrom && b.IsPeer(peer) && !b.helloSeen[peer] {
		b.helloSeen[peer] = true
		b.hellos++
	}
}

// BringUp runs the connection bring-up: a rendezvous so every listener
// exists before anyone connects, dial to every higher rank announcing
// ourselves with a hello (lower ranks initiate, avoiding handshake
// collision), pump until the hello quota is met, and a final rendezvous
// so no MPI traffic precedes full connectivity — the paper's §3.4.3
// MPI_Init fix. No phase parks the process dead: a session kill during
// bring-up forces a rank back into recovery, and its redial handshake
// needs every peer to keep pumping, even ranks done with their own
// setup.
func (b *Base) BringUp(p *sim.Proc, dial func(peer int, hello Envelope) error) error {
	b.barrier.Arrive(p)
	hello := Envelope{Kind: KindHello, Rank: int32(b.Rank)}
	for j := b.Rank + 1; j < b.Size; j++ {
		if err := dial(j, hello); err != nil {
			return fmt.Errorf("rpi: rank %d dial %d: %w", b.Rank, j, err)
		}
	}
	quota := b.helloFrom
	if b.Rank < quota {
		quota--
	}
	for b.hellos < quota {
		if err := b.Advance(p, true); err != nil {
			return err
		}
	}
	return b.DriveUntil(p, b.nfds, b.barrier.ArriveFunc(b.Notify), b.onEvent, b.tail)
}

// Send implements RPI. Every middleware message is stamped and a copy
// retained by the session layer; that copy is what gets queued, so it
// is the buffered-send completion point and onQueued fires here
// regardless of session state. While the session is down the message
// is retention-only and reaches the peer in the replay gap after
// recovery.
func (b *Base) Send(dest int, env Envelope, body []byte, onQueued func()) {
	kept, up := b.Sess.StampOut(dest, &env, body)
	b.CountSend(len(body))
	if onQueued != nil {
		onQueued()
	}
	if up {
		b.link.Queue(dest, env, kept)
		b.link.Flush(dest)
	}
}

// Advance implements RPI: poll passes over the binding's readiness
// sources until one makes progress (see Engine.Drive).
func (b *Base) Advance(p *sim.Proc, block bool) error {
	return b.Drive(p, block, b.nfds, b.onEvent, b.tail)
}

// Deliver dispatches one complete inbound message from peer. The
// recovery handshake is answered here; everything else passes
// receiver-side session processing (retention pruning, duplicate
// suppression) before delivery.
func (b *Base) Deliver(peer int, env Envelope, body []byte) {
	switch env.Kind {
	case KindReconnect:
		ack, gap := b.Sess.OnReconnect(peer, env)
		b.link.Queue(peer, ack, nil)
		b.replay(peer, gap)
	case KindReconnectAck:
		b.replay(peer, b.Sess.OnReconnectAck(peer, env))
	case KindHello: // identifies a session at bring-up; nothing to deliver
	default:
		if b.Sess.Accept(peer, &env) {
			b.Complete(b.Proc(), env, body)
		} else {
			wire.PutBuf(body)
		}
	}
}

// replay queues the negotiated retention gap behind whatever the
// handshake queued, flushes once, and completes the recovery. Replays
// bypass CountSend and the observer: the original send was counted.
func (b *Base) replay(peer int, gap []Retained) {
	for _, rt := range gap {
		b.link.Queue(peer, rt.Env, rt.Body)
	}
	b.link.Flush(peer)
	b.Sess.Resume(peer)
	b.MarkHello(peer)
}

// SessionLost handles the abortive death of peer's transport session,
// after the binding has torn it down: the first loss signal of an
// episode schedules a redial; a replacement session that died before
// its handshake completed charges a failed attempt.
func (b *Base) SessionLost(peer int) {
	if b.Sess.MarkLost(peer) {
		b.Sess.ScheduleRedial(peer)
	} else {
		b.Sess.AttemptFailed(peer)
	}
}

// redial runs one redial attempt: claim budget (terminal error when
// exhausted), dial blocking in process context, and open the
// KindReconnect handshake on the fresh session, which stays the peer's
// candidate until the ReconnectAck arrives.
func (b *Base) redial(p *sim.Proc, peer int) {
	if err := b.Sess.BeginAttempt(peer); err != nil {
		b.Fail(err)
		return
	}
	if err := b.link.Dial(p, peer); err != nil {
		b.Sess.AttemptFailed(peer)
		return
	}
	b.Sess.DialSucceeded(peer)
	b.link.Queue(peer, b.Sess.ReconnectEnv(peer), nil)
	b.link.Flush(peer)
}

// tail ends every poll pass: on a Notify kick, the redial attempts that
// came due (session scheduling and backoff timers kick; endpoint
// traffic never needs this sweep), then the binding's per-pass work.
func (b *Base) tail(kicked bool) bool {
	progress := false
	for r := 0; kicked && r < b.Size; r++ {
		if b.Sess.RedialDue(r) && !b.link.Up(r) {
			b.redial(b.Proc(), r)
			progress = true
		}
	}
	if b.after != nil && b.after() {
		progress = true
	}
	return progress
}
