// Package mpi implements a LAM-style MPI middleware over a pluggable
// request-progression (RPI) module: envelopes precede bodies, short
// (≤64 KiB) messages are sent eagerly, long messages use an
// envelope/ACK/body rendezvous, synchronous sends are eager plus ACK,
// and unexpected messages are buffered until a matching receive is
// posted (paper §2.2). Collectives are built on point-to-point exactly
// as in LAM's TCP module.
package mpi

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/freelist"
	"repro/internal/mpi/rpi"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Wildcards for Recv/Probe.
const (
	AnySource = -1
	AnyTag    = -1
)

// DefaultEagerLimit is LAM's short/long message threshold.
const DefaultEagerLimit = 64 << 10

// Errors surfaced by the middleware.
var (
	ErrTruncated = errors.New("mpi: message truncated (receive buffer too small)")
	ErrFinalized = errors.New("mpi: process already finalized")
)

// Status describes a completed receive.
type Status struct {
	Source int // communicator rank of the sender
	Tag    int
	Count  int // received bytes
}

// Request is a nonblocking operation handle.
type Request struct {
	pr     *Process
	isSend bool
	Done   bool
	Err    error
	status Status

	// Receive matching spec (world rank or AnySource).
	srcWorld int
	tag      int
	ctx      int32
	buf      []byte

	// Long-protocol state.
	seq      uint64
	sendKind rpi.Kind
	dest     int
	expected int

	// sentFn is sent bound once per Request struct (see onSent), kept
	// when the struct is recycled.
	sentFn func()
}

// Status returns the completion status; valid once Done.
func (r *Request) Status() Status { return r.status }

func (r *Request) complete(err error) {
	r.Done = true
	if err != nil && r.Err == nil {
		r.Err = err
	}
}

// sent completes a send whose body the module has buffered.
func (r *Request) sent() { r.complete(nil) }

// onSent returns the request's sent method as the module's onQueued
// callback, binding it on first use only.
func (r *Request) onSent() func() {
	if r.sentFn == nil {
		r.sentFn = r.sent
	}
	return r.sentFn
}

// inboxMsg is a buffered unexpected message. A non-empty body is a
// wire-pool copy that the matching receive returns to the pool once it
// has copied it out; messages never matched are left to the GC.
type inboxMsg struct {
	env  rpi.Envelope
	body []byte
}

type seqKey struct {
	rank int32
	seq  uint64
}

// Process is the per-rank middleware instance. It is owned by exactly
// one simulation process.
type Process struct {
	P          *sim.Proc
	rank, size int
	rpi        rpi.RPI
	eagerLimit int

	posted     []*Request
	freeReqs   freelist.List[Request] // completed internal requests, reused
	unexpected []inboxMsg
	sendBySeq  map[uint64]*Request
	recvBySeq  map[seqKey]*Request
	nextSeq    uint64
	nextCtx    int32
	world      *Comm
	finalized  bool
	mcast      Multicast

	// Stats counts middleware-level events.
	Stats ProcStats
}

// ProcStats counts middleware events for a process.
type ProcStats struct {
	SendsPosted      int64
	RecvsPosted      int64
	EagerSends       int64
	SyncSends        int64
	RendezvousSends  int64
	UnexpectedMsgs   int64
	UnexpectedBytes  int64
	MatchedFromQueue int64
}

// NewProcess builds the middleware instance for one rank. The caller
// must invoke Init from the owning simulation process before use.
func NewProcess(p *sim.Proc, rank, size int, module rpi.RPI, eagerLimit int) *Process {
	if eagerLimit <= 0 {
		eagerLimit = DefaultEagerLimit
	}
	pr := &Process{
		P:          p,
		rank:       rank,
		size:       size,
		rpi:        module,
		eagerLimit: eagerLimit,
		sendBySeq:  make(map[uint64]*Request),
		recvBySeq:  make(map[seqKey]*Request),
		nextCtx:    2, // 0 = world point-to-point, 1 = world collectives
	}
	module.SetDelivery(pr.deliver)
	return pr
}

// Init brings up the transport mesh and returns the world communicator.
func (pr *Process) Init() (*Comm, error) {
	if err := pr.rpi.Init(pr.P); err != nil {
		return nil, err
	}
	group := make([]int, pr.size)
	for i := range group {
		group[i] = i
	}
	pr.world = &Comm{pr: pr, ctx: 0, group: group, myrank: pr.rank}
	return pr.world, nil
}

// Finalize completes all outstanding work and shuts the transport down.
// It performs a barrier first, as MPI_Finalize implementations do, so
// no process tears down connections another is still using.
func (pr *Process) Finalize() error {
	if pr.finalized {
		return ErrFinalized
	}
	if err := pr.world.Barrier(); err != nil {
		return err
	}
	pr.finalized = true
	pr.rpi.Finalize(pr.P)
	return nil
}

// Rank returns the world rank.
func (pr *Process) Rank() int { return pr.rank }

// Size returns the world size.
func (pr *Process) Size() int { return pr.size }

// World returns the world communicator.
func (pr *Process) World() *Comm { return pr.world }

// Wtime returns elapsed virtual time in seconds, like MPI_Wtime.
func (pr *Process) Wtime() float64 { return pr.P.Now().Seconds() }

// RPI exposes the underlying progression module (for statistics).
func (pr *Process) RPI() rpi.RPI { return pr.rpi }

// --- send path -------------------------------------------------------

// newRequest returns a request from the free list, or a new one.
func (pr *Process) newRequest() *Request {
	if r := pr.freeReqs.Get(); r != nil {
		return r
	}
	return &Request{pr: pr}
}

// waitFree waits for a request that never left the package (a blocking
// call's own request) and recycles it once complete. A request cut
// short by a terminal module error may still be referenced by the
// matching tables and is left alone.
func (pr *Process) waitFree(req *Request) (Status, error) {
	st, err := pr.Wait(req)
	if req.Done {
		*req = Request{pr: pr, sentFn: req.sentFn}
		pr.freeReqs.Put(req)
	}
	return st, err
}

// isend posts a send to a world rank and returns its request.
func (pr *Process) isend(destWorld int, tag int, ctx int32, data []byte, sync bool) *Request {
	req := pr.newRequest()
	req.isSend, req.dest, req.tag, req.ctx = true, destWorld, tag, ctx
	pr.Stats.SendsPosted++
	seq := pr.nextSeq
	pr.nextSeq++
	req.seq = seq
	env := rpi.Envelope{
		Length:  len(data),
		Tag:     int32(tag),
		Context: ctx,
		Rank:    int32(pr.rank),
		Seq:     seq,
	}
	switch {
	case !sync && len(data) <= pr.eagerLimit:
		// Eager short: done when handed to the transport (buffered
		// semantics, as in LAM).
		env.Kind = rpi.KindShort
		req.sendKind = rpi.KindShort
		pr.Stats.EagerSends++
		pr.rpi.Send(destWorld, env, data, req.onSent())
	case sync && len(data) <= pr.eagerLimit:
		// Synchronous short: eager body, completion on ACK.
		env.Kind = rpi.KindSync
		req.sendKind = rpi.KindSync
		pr.Stats.SyncSends++
		pr.sendBySeq[seq] = req
		pr.rpi.Send(destWorld, env, data, nil)
	default:
		// Long: rendezvous. The envelope travels alone; the body waits
		// for the receiver's ACK.
		env.Kind = rpi.KindLongReq
		req.sendKind = rpi.KindLongReq
		req.buf = data
		pr.Stats.RendezvousSends++
		pr.sendBySeq[seq] = req
		pr.rpi.Send(destWorld, env, nil, nil)
	}
	return req
}

// --- receive path ----------------------------------------------------

// irecv posts a receive. srcWorld is a world rank or AnySource.
func (pr *Process) irecv(srcWorld int, tag int, ctx int32, buf []byte) *Request {
	req := pr.newRequest()
	req.srcWorld, req.tag, req.ctx, req.buf = srcWorld, tag, ctx, buf
	pr.Stats.RecvsPosted++
	// Check the unexpected queue first, in arrival order.
	for i := range pr.unexpected {
		m := &pr.unexpected[i]
		if pr.matches(req, m.env) {
			env := m.env
			body := m.body
			pr.unexpected = slices.Delete(pr.unexpected, i, i+1)
			pr.Stats.MatchedFromQueue++
			pr.arrived(req, env, body)
			// arrived has copied the body out (a rendezvous request
			// carries none), so the unexpected copy is dead.
			wire.PutBuf(body)
			return req
		}
	}
	pr.posted = append(pr.posted, req)
	return req
}

// matches implements MPI envelope matching: context must equal, source
// and tag honor wildcards.
func (pr *Process) matches(req *Request, env rpi.Envelope) bool {
	if env.Context != req.ctx {
		return false
	}
	if req.srcWorld != AnySource && int32(req.srcWorld) != env.Rank {
		return false
	}
	if req.tag != AnyTag && int32(req.tag) != env.Tag {
		return false
	}
	return true
}

// deliver is the RPI inbound callback: route ACKs to their requests,
// match data envelopes against posted receives, or buffer them as
// unexpected (paper §2.2.2).
func (pr *Process) deliver(env rpi.Envelope, body []byte) {
	switch env.Kind {
	case rpi.KindSyncAck:
		if req, ok := pr.sendBySeq[env.Seq]; ok {
			delete(pr.sendBySeq, env.Seq)
			req.complete(nil)
		}
	case rpi.KindLongAck:
		if req, ok := pr.sendBySeq[env.Seq]; ok {
			delete(pr.sendBySeq, env.Seq)
			bodyEnv := rpi.Envelope{
				Length:  len(req.buf),
				Tag:     int32(req.tag),
				Context: req.ctx,
				Rank:    int32(pr.rank),
				Kind:    rpi.KindLongBody,
				Seq:     req.seq,
			}
			pr.rpi.Send(req.dest, bodyEnv, req.buf, req.onSent())
		}
	case rpi.KindLongBody:
		key := seqKey{env.Rank, env.Seq}
		if req, ok := pr.recvBySeq[key]; ok {
			delete(pr.recvBySeq, key)
			pr.copyBody(req, env, body)
			req.complete(req.Err)
		}
	case rpi.KindShort, rpi.KindSync, rpi.KindLongReq:
		for i, req := range pr.posted {
			if pr.matches(req, env) {
				pr.posted = append(pr.posted[:i], pr.posted[i+1:]...)
				pr.arrived(req, env, body)
				return
			}
		}
		// Unexpected: buffer a copy (the transport may reuse body).
		var cp []byte
		if len(body) > 0 {
			cp = wire.GetBuf(len(body))
			copy(cp, body)
		}
		pr.unexpected = append(pr.unexpected, inboxMsg{env: env, body: cp})
		pr.Stats.UnexpectedMsgs++
		pr.Stats.UnexpectedBytes += int64(len(cp))
	}
}

// arrived advances a matched receive for the given envelope.
func (pr *Process) arrived(req *Request, env rpi.Envelope, body []byte) {
	switch env.Kind {
	case rpi.KindShort:
		pr.copyBody(req, env, body)
		req.complete(req.Err)
	case rpi.KindSync:
		pr.copyBody(req, env, body)
		pr.sendAck(env, rpi.KindSyncAck)
		req.complete(req.Err)
	case rpi.KindLongReq:
		// Rendezvous: remember which body completes this request and
		// tell the sender to go ahead.
		req.status = Status{Source: int(env.Rank), Tag: int(env.Tag), Count: env.Length}
		pr.recvBySeq[seqKey{env.Rank, env.Seq}] = req
		pr.sendAck(env, rpi.KindLongAck)
	default:
		panic(fmt.Sprintf("mpi: arrived with kind %v", env.Kind))
	}
}

// sendAck returns a control envelope echoing the sender's sequence
// number, preserving its tag and context so it travels the same stream.
func (pr *Process) sendAck(env rpi.Envelope, kind rpi.Kind) {
	ack := rpi.Envelope{
		Tag:     env.Tag,
		Context: env.Context,
		Rank:    int32(pr.rank),
		Kind:    kind,
		Seq:     env.Seq,
	}
	pr.rpi.Send(int(env.Rank), ack, nil, nil)
}

// copyBody moves a message body into the receive buffer, flagging
// truncation as MPI does.
func (pr *Process) copyBody(req *Request, env rpi.Envelope, body []byte) {
	n := copy(req.buf, body)
	if len(body) > len(req.buf) {
		req.Err = ErrTruncated
	}
	req.status = Status{Source: int(env.Rank), Tag: int(env.Tag), Count: n}
}

// --- progression -----------------------------------------------------

// Wait blocks until the request completes. A terminal RPI error
// (session recovery exhausted) aborts the wait: the job cannot make
// further progress and must shut down.
func (pr *Process) Wait(req *Request) (Status, error) {
	for !req.Done {
		if err := pr.rpi.Advance(pr.P, true); err != nil {
			return req.status, err
		}
	}
	return req.status, req.Err
}

// Test reports completion without blocking (it still progresses I/O
// once, like MPI_Test).
func (pr *Process) Test(req *Request) (bool, Status, error) {
	if !req.Done {
		if err := pr.rpi.Advance(pr.P, false); err != nil {
			return req.Done, req.status, err
		}
	}
	return req.Done, req.status, req.Err
}

// WaitAll blocks until every request completes, returning the first
// error encountered.
func (pr *Process) WaitAll(reqs ...*Request) error {
	var firstErr error
	for _, r := range reqs {
		if _, err := pr.Wait(r); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// WaitAny blocks until at least one request completes and returns its
// index.
func (pr *Process) WaitAny(reqs ...*Request) (int, Status, error) {
	for {
		for i, r := range reqs {
			if r.Done {
				return i, r.status, r.Err
			}
		}
		if err := pr.rpi.Advance(pr.P, true); err != nil {
			return -1, Status{}, err
		}
	}
}

// iprobe checks for a matching message without receiving it.
func (pr *Process) iprobe(srcWorld, tag int, ctx int32) (bool, Status, error) {
	if err := pr.rpi.Advance(pr.P, false); err != nil {
		return false, Status{}, err
	}
	spec := &Request{srcWorld: srcWorld, tag: tag, ctx: ctx}
	for i := range pr.unexpected {
		m := &pr.unexpected[i]
		if pr.matches(spec, m.env) {
			return true, Status{
				Source: int(m.env.Rank),
				Tag:    int(m.env.Tag),
				Count:  m.env.Length,
			}, nil
		}
	}
	return false, Status{}, nil
}

// probe blocks until a matching message is available.
func (pr *Process) probe(srcWorld, tag int, ctx int32) (Status, error) {
	for {
		ok, st, err := pr.iprobe(srcWorld, tag, ctx)
		if err != nil {
			return st, err
		}
		if ok {
			return st, nil
		}
		if err := pr.rpi.Advance(pr.P, true); err != nil {
			return Status{}, err
		}
	}
}
