// Package rmcast implements a NAK-based reliable broadcast over
// netsim's link-layer multicast, in the style of SRM and of Hudzia &
// Petiton's fault-tolerant MPI multicast: the root multicasts an
// operation's payload as sequenced chunks, receivers detect gaps and
// multicast rank-staggered NAKs (suppressed when another receiver asks
// for the same operation first), and the root answers with unicast
// repairs. Completion is a positive handshake — every receiver DONEs
// to the root, the root multicasts COMMIT — so a committed operation is
// proof that every member holds the payload.
//
// Fault handling is epoch-based, mirroring rpi session recovery: a
// member that observes transport-layer death mid-operation unicasts
// FAULT to the root, and the root aborts — as it also does when the
// per-operation repair budget or the announce-round cap is exhausted.
// ABORT bumps the group epoch; frames stamped with an older epoch are
// discarded on arrival, and the endpoint keeps a per-operation verdict
// ledger for the lifetime of the run, so retransmitted DONEs or NAKs
// for settled operations are answered with the recorded verdict instead
// of reviving state. The collective layer replays an aborted operation
// over the point-to-point tree in the bumped epoch; the ledger plus the
// epoch stamp make that replay exactly-once — stragglers from the dead
// epoch can neither deliver twice nor resurrect the multicast attempt.
//
// Endpoints are reactive: frame handling, gap repair, and the DONE
// handshake all run from the network handler and kernel timers, so an
// endpoint makes progress on an operation before its own process has
// entered it (buffering early chunks) and after its process has moved
// on (answering retransmits from the ledger).
package rmcast

import (
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Proto is the IP protocol number rmcast frames travel on.
const Proto = 200

// ChunkSize is the payload carried per DATA/REPAIR frame; with the
// frame header it stays under the default 1500-byte MTU.
const ChunkSize = 1280

// DefaultRepairBudget caps unicast repairs per operation; past it the
// root aborts and the collective degrades to the tree.
const DefaultRepairBudget = 4096

// Protocol timing. The NAK delay is rank-staggered so concurrent
// requesters spread out, and a receiver that hears another member's NAK
// for the same operation backs off a full nakBackoff before asking
// itself — classic SRM suppression, with virtual-time determinism
// instead of random timers.
const (
	nakDelay    = 150 * time.Microsecond
	nakStagger  = 25 * time.Microsecond
	nakBackoff  = 400 * time.Microsecond
	probeDelay  = 300 * time.Microsecond
	doneRetry   = 500 * time.Microsecond
	announceIvl = 500 * time.Microsecond
	healthPoll  = 100 * time.Microsecond
	maxRounds   = 40
)

// Options configures an endpoint.
type Options struct {
	// Probe receives protocol events (chaos oracle); nil disables.
	Probe *Probe
	// RepairBudget caps unicast repairs per operation
	// (DefaultRepairBudget when 0).
	RepairBudget int
	// DupAcceptEvery, when > 0, seeds a dedup-accounting bug: every Nth
	// accepted chunk reports Accept twice, which a correct chaos oracle
	// must flag. Test-only.
	DupAcceptEvery int
	// DropChunkEvery, when > 0, seeds a delivery bug: every Nth
	// accepted chunk is accounted for but its payload is never copied,
	// so the rank completes with a wrong digest. Test-only.
	DropChunkEvery int
}

// Endpoint is one rank's reliable-multicast engine.
type Endpoint struct {
	node  *netsim.Node
	k     *sim.Kernel
	group netsim.Addr
	rank  int
	addrs []netsim.Addr // world rank -> unicast address
	opts  Options
	cond  *sim.Cond

	epoch    uint32
	nextOp   uint64
	ops      map[uint64]*op
	outcomes map[uint64]verdict // settled operations, kept for the run

	lastOp  uint64
	accepts int // accepted-chunk counter driving the mutation knobs
	ctrs    map[string]int64
}

type verdict struct {
	commit bool
	epoch  uint32
}

// op is the per-operation state; it lives in Endpoint.ops from first
// contact (frame or process entry) until the owning process collects
// the verdict.
type op struct {
	id       uint64
	epoch    uint32
	root     int // -1 until learned
	isRoot   bool
	entered  bool
	buf      []byte
	total    int // chunk count; -1 until learned
	totalLen int
	have     []bool
	haveCnt  int

	decided bool
	commit  bool

	// root-side state
	done    []bool
	doneCnt int
	repairs int
	rounds  int

	// receiver-side state
	doneSent     bool
	faulted      bool
	retryArmed   bool
	nakNotBefore time.Duration
}

// New builds an endpoint for rank on node, joined to group. addrs maps
// every world rank to its unicast address (used for DONE/FAULT/repair
// traffic). The endpoint registers itself as node's handler for Proto.
func New(node *netsim.Node, group netsim.Addr, rank int, addrs []netsim.Addr, opts Options) *Endpoint {
	if opts.RepairBudget <= 0 {
		opts.RepairBudget = DefaultRepairBudget
	}
	e := &Endpoint{
		node:     node,
		k:        node.Kernel(),
		group:    group,
		rank:     rank,
		addrs:    addrs,
		opts:     opts,
		cond:     sim.NewCond(node.Kernel()),
		ops:      make(map[uint64]*op),
		outcomes: make(map[uint64]verdict),
		ctrs:     make(map[string]int64),
	}
	node.Handle(Proto, e.handle)
	return e
}

// Epoch returns the current group epoch (bumped once per abort).
func (e *Endpoint) Epoch() uint32 { return e.epoch }

// Counters returns a snapshot of the endpoint's protocol counters.
func (e *Endpoint) Counters() map[string]int64 {
	out := make(map[string]int64, len(e.ctrs))
	for k, v := range e.ctrs {
		out[k] = v
	}
	return out
}

func (e *Endpoint) size() int { return len(e.addrs) }

// Bcast runs one reliable-multicast broadcast as rank's side of the
// collective. The root multicasts data; receivers fill data in place on
// commit. health is polled between protocol events (with a non-blocking
// transport Advance inside, so session death is detected even while the
// process is parked here); when it reports trouble the member FAULTs
// (or, at the root, aborts). The return value reports whether the
// operation committed — false means the caller must replay it over the
// tree in the bumped epoch.
func (e *Endpoint) Bcast(p *sim.Proc, root int, data []byte, health func() (bool, error)) (bool, error) {
	id := e.nextOp
	e.nextOp++
	e.lastOp = id
	o := e.ops[id]
	if o == nil {
		o = e.newOp(id)
		e.ops[id] = o
	}
	o.entered = true
	if pb := e.opts.Probe; pb != nil && pb.Enter != nil {
		pb.Enter(e.rank, id, e.epoch, root)
	}
	if root == e.rank {
		o.isRoot = true
		o.root = root
		e.rootPublish(o, data)
	} else {
		if o.root < 0 {
			o.root = root
		}
		e.recvProgress(o)
	}
	for !o.decided {
		bad, err := health()
		if err != nil {
			if o.isRoot {
				e.abortOp(o)
			}
			delete(e.ops, id)
			return false, err
		}
		if bad && !o.faulted {
			o.faulted = true
			if o.isRoot {
				e.abortOp(o)
				continue
			}
			e.ctr("mc_faults", 1)
			e.sendToRank(o.root, e.encodeBare(fFault, o.epoch, o.id, o.root))
			e.armRetry(o, doneRetry)
		}
		e.cond.WaitTimeout(p, healthPoll)
	}
	committed := o.commit
	if committed && !o.isRoot {
		copy(data, o.buf[:min(len(data), o.totalLen)])
	}
	delete(e.ops, id)
	return committed, nil
}

// NoteComplete records that the collective layer finished the last
// operation (after the tree fallback when fallback is true) and reports
// the delivered payload's digest to the probe. Part of the
// mpi.Multicast contract.
func (e *Endpoint) NoteComplete(fallback bool, data []byte) {
	e.ctr("mc_ops", 1)
	if fallback {
		e.ctr("mc_fallbacks", 1)
	}
	if pb := e.opts.Probe; pb != nil && pb.Complete != nil {
		pb.Complete(e.rank, e.lastOp, e.epoch, fallback, Digest(data))
	}
}

func (e *Endpoint) newOp(id uint64) *op {
	return &op{id: id, epoch: e.epoch, root: -1, total: -1}
}

func (e *Endpoint) ctr(name string, delta int64) { e.ctrs[name] += delta }

func (e *Endpoint) sendToRank(r int, b []byte) {
	if r < 0 || r >= len(e.addrs) {
		return
	}
	e.node.Send(&netsim.Packet{Src: e.node.Addr(), Dst: e.addrs[r], Proto: Proto, Payload: b})
}

func (e *Endpoint) mcastFrame(b []byte) {
	e.node.Send(&netsim.Packet{Src: e.node.Addr(), Dst: e.group, Proto: Proto, Payload: b})
}

// --- root side -------------------------------------------------------

// rootPublish multicasts the announce and every data chunk, then starts
// the re-announce rounds that bound the operation's lifetime.
func (e *Endpoint) rootPublish(o *op, data []byte) {
	o.buf = data
	o.totalLen = len(data)
	o.total = (len(data) + ChunkSize - 1) / ChunkSize
	o.done = make([]bool, e.size())
	o.done[e.rank] = true
	o.doneCnt = 1
	if o.doneCnt == e.size() {
		e.commitOp(o)
		return
	}
	e.mcastFrame(e.encodeAnnounce(o))
	for idx := 0; idx < o.total; idx++ {
		e.mcastFrame(e.encodeChunk(fData, o, idx))
	}
	e.ctr("mc_data_sent", int64(o.total))
	e.armAnnounce(o)
}

func (e *Endpoint) armAnnounce(o *op) {
	e.k.After(announceIvl, func() {
		if e.ops[o.id] != o || o.decided {
			return
		}
		o.rounds++
		if o.rounds > maxRounds {
			// A member has been silent for the whole window: declare the
			// operation undeliverable rather than re-announce forever.
			e.abortOp(o)
			return
		}
		e.mcastFrame(e.encodeAnnounce(o))
		e.armAnnounce(o)
	})
}

func (e *Endpoint) commitOp(o *op) {
	if o.decided {
		return
	}
	e.mcastFrame(e.encodeBare(fCommit, o.epoch, o.id, o.root))
	e.decide(o, true)
}

func (e *Endpoint) abortOp(o *op) {
	if o.decided {
		return
	}
	e.mcastFrame(e.encodeBare(fAbort, o.epoch, o.id, o.root))
	e.decide(o, false)
}

// --- verdicts --------------------------------------------------------

// decide settles an operation locally and records the verdict in the
// run-lifetime ledger. An abort bumps the group epoch: the collective
// replay and all subsequent operations run in the new epoch, and
// straggler frames stamped with the dead epoch are discarded on
// arrival — the exactly-once half that frame filtering provides; the
// ledger provides the other half by keeping finished operations
// answerable without reviving them.
func (e *Endpoint) decide(o *op, commit bool) {
	if o.decided {
		return
	}
	o.decided = true
	o.commit = commit
	e.outcomes[o.id] = verdict{commit: commit, epoch: o.epoch}
	if commit {
		e.ctr("mc_commits", 1)
	} else {
		e.ctr("mc_aborts", 1)
		if o.epoch+1 > e.epoch {
			e.epoch = o.epoch + 1
		}
	}
	if pb := e.opts.Probe; pb != nil && pb.Decide != nil {
		pb.Decide(e.rank, o.id, o.epoch, commit)
	}
	e.cond.Broadcast()
}

// replyVerdict answers a retransmitted DONE/NAK/FAULT for a settled
// operation with the recorded verdict, unicast to the asker.
func (e *Endpoint) replyVerdict(f frame) {
	v, ok := e.outcomes[f.op]
	if !ok {
		return
	}
	typ := fAbort
	if v.commit {
		typ = fCommit
	}
	e.sendToRank(f.from, e.encodeBare(typ, v.epoch, f.op, e.rank))
}

// --- receiver side ---------------------------------------------------

// recvProgress advances a receiver-side operation after any state
// change: send DONE once complete, otherwise make sure the retry timer
// (probe, NAK, or DONE retransmit) is armed.
func (e *Endpoint) recvProgress(o *op) {
	if o.decided || o.isRoot {
		return
	}
	if o.total >= 0 && o.haveCnt == o.total && !o.doneSent {
		o.doneSent = true
		e.ctr("mc_done", 1)
		e.sendToRank(o.root, e.encodeBare(fDone, o.epoch, o.id, o.root))
		e.armRetry(o, doneRetry)
		return
	}
	if !o.doneSent {
		e.armRetry(o, nakDelay+time.Duration(e.rank%8)*nakStagger)
	}
}

// armRetry schedules the receiver's single retry timer, which keeps
// whichever request is pending (announce probe, NAK, DONE, FAULT)
// flowing until the operation is settled.
func (e *Endpoint) armRetry(o *op, d time.Duration) {
	if o.retryArmed {
		return
	}
	o.retryArmed = true
	e.k.After(d, func() {
		o.retryArmed = false
		e.retryFire(o)
	})
}

func (e *Endpoint) retryFire(o *op) {
	if e.ops[o.id] != o || o.decided || o.isRoot {
		return
	}
	if o.faulted {
		e.ctr("mc_faults", 1)
		e.sendToRank(o.root, e.encodeBare(fFault, o.epoch, o.id, o.root))
		e.armRetry(o, doneRetry)
		return
	}
	if o.doneSent {
		// The verdict may have been lost: re-offer DONE so the root (or
		// its ledger) answers with COMMIT/ABORT.
		e.sendToRank(o.root, e.encodeBare(fDone, o.epoch, o.id, o.root))
		e.armRetry(o, doneRetry)
		return
	}
	if o.root < 0 {
		// Nothing received and the process has not entered the op yet;
		// there is no one to ask. A frame or the process entry re-arms.
		return
	}
	if o.total < 0 {
		e.sendToRank(o.root, e.encodeProbe(o))
		e.armRetry(o, probeDelay)
		return
	}
	if now := e.k.Now(); now < o.nakNotBefore {
		e.armRetry(o, o.nakNotBefore-now)
		return
	}
	e.ctr("mc_naks", 1)
	e.mcastFrame(e.encodeNak(o, e.gaps(o)))
	e.armRetry(o, nakBackoff)
}

// gaps lists the operation's missing chunk ranges, capped at
// maxNakRanges (the rest wait for the next round).
func (e *Endpoint) gaps(o *op) []nakRange {
	var out []nakRange
	for i := 0; i < o.total && len(out) < maxNakRanges; {
		if o.have[i] {
			i++
			continue
		}
		lo := i
		for i < o.total && !o.have[i] {
			i++
		}
		out = append(out, nakRange{lo, i - 1})
	}
	return out
}

// --- frame handling --------------------------------------------------

func (e *Endpoint) handle(pkt *netsim.Packet, _ *netsim.Iface) {
	f, ok := parseFrame(pkt.Payload)
	if !ok || f.from == e.rank || f.from >= e.size() {
		return
	}
	switch f.typ {
	case fData, fRepair:
		e.onData(f)
	case fAnnounce:
		e.onAnnounce(f)
	case fNak:
		e.onNak(f)
	case fDone:
		e.onDone(f)
	case fCommit:
		e.onVerdictFrame(f, true)
	case fAbort:
		e.onVerdictFrame(f, false)
	case fFault:
		e.onFault(f)
	}
}

// recvOp returns live receiver-side state for a frame, creating it for
// first contact; nil when the frame is stale (settled op, old epoch) or
// addressed to our own root role.
func (e *Endpoint) recvOp(f frame) *op {
	if _, settled := e.outcomes[f.op]; settled {
		return nil
	}
	o := e.ops[f.op]
	if o == nil {
		o = e.newOp(f.op)
		e.ops[f.op] = o
	}
	if o.decided || o.isRoot || f.epoch < o.epoch {
		return nil
	}
	if f.epoch > o.epoch {
		o.epoch = f.epoch
	}
	if o.root < 0 {
		o.root = f.root
	}
	return o
}

// learnTotal initializes the chunk map once the operation's geometry is
// known (from the first DATA or ANNOUNCE frame).
func (e *Endpoint) learnTotal(o *op, total, totalLen int) {
	if o.total >= 0 || total < 0 || totalLen < 0 || totalLen > total*ChunkSize {
		return
	}
	o.total = total
	o.totalLen = totalLen
	o.buf = make([]byte, totalLen)
	o.have = make([]bool, total)
}

func (e *Endpoint) onData(f frame) {
	o := e.recvOp(f)
	if o == nil {
		return
	}
	e.learnTotal(o, f.total, f.totalLen)
	if o.total == f.total && f.idx >= 0 && f.idx < o.total && !o.have[f.idx] {
		lo := f.idx * ChunkSize
		hi := min(lo+ChunkSize, o.totalLen)
		if len(f.chunk) == hi-lo {
			o.have[f.idx] = true
			o.haveCnt++
			e.accepts++
			e.ctr("mc_accepts", 1)
			if e.opts.DropChunkEvery > 0 && e.accepts%e.opts.DropChunkEvery == 0 {
				// Seeded bug: the chunk is accounted for but its bytes
				// never land, so this rank commits a wrong payload.
			} else {
				copy(o.buf[lo:hi], f.chunk)
			}
			if pb := e.opts.Probe; pb != nil && pb.Accept != nil {
				pb.Accept(e.rank, o.id, f.idx, o.total)
				if e.opts.DupAcceptEvery > 0 && e.accepts%e.opts.DupAcceptEvery == 0 {
					// Seeded bug: double-count the accept, as a broken
					// dedup path would.
					pb.Accept(e.rank, o.id, f.idx, o.total)
				}
			}
		}
	}
	e.recvProgress(o)
}

func (e *Endpoint) onAnnounce(f frame) {
	o := e.recvOp(f)
	if o == nil {
		return
	}
	e.learnTotal(o, f.total, f.totalLen)
	e.recvProgress(o)
}

func (e *Endpoint) onNak(f frame) {
	o := e.ops[f.op]
	if o == nil {
		e.replyVerdict(f)
		return
	}
	if o.isRoot {
		if o.decided {
			e.replyVerdict(f)
			return
		}
		if f.epoch != o.epoch {
			return
		}
		if f.probe {
			e.sendToRank(f.from, e.encodeAnnounce(o))
			return
		}
		for _, rg := range f.ranges {
			for idx := rg.lo; idx <= rg.hi && idx < o.total; idx++ {
				o.repairs++
				if o.repairs > e.opts.RepairBudget {
					// Repair-budget exhaustion: the loss pattern is too
					// hostile for multicast; degrade to the tree.
					e.abortOp(o)
					return
				}
				e.ctr("mc_repairs", 1)
				if pb := e.opts.Probe; pb != nil && pb.Repair != nil {
					pb.Repair(e.rank, o.id, idx)
				}
				e.sendToRank(f.from, e.encodeChunk(fRepair, o, idx))
			}
		}
		return
	}
	// Another receiver asked first: suppress our own NAK for a backoff,
	// SRM style. The retry timer re-checks nakNotBefore when it fires.
	// A NAK from another epoch says nothing about the current root's
	// liveness, so it must not delay our own repair requests.
	if f.epoch != o.epoch {
		return
	}
	if !o.decided && !o.doneSent {
		o.nakNotBefore = e.k.Now() + nakBackoff
	}
}

func (e *Endpoint) onDone(f frame) {
	o := e.ops[f.op]
	if o == nil || !o.isRoot || o.decided {
		e.replyVerdict(f)
		return
	}
	if f.epoch != o.epoch || f.from >= len(o.done) || o.done[f.from] {
		return
	}
	o.done[f.from] = true
	o.doneCnt++
	if o.doneCnt == e.size() {
		e.commitOp(o)
	}
}

func (e *Endpoint) onFault(f frame) {
	o := e.ops[f.op]
	if o == nil || !o.isRoot || o.decided {
		e.replyVerdict(f)
		return
	}
	if f.epoch != o.epoch {
		return
	}
	// A member saw transport-layer death mid-operation: degrade the
	// whole operation so the collective replays on the tree, where the
	// session-recovery machinery owns the problem.
	e.abortOp(o)
}

func (e *Endpoint) onVerdictFrame(f frame, commit bool) {
	o := e.ops[f.op]
	if o == nil || o.decided || o.isRoot {
		return
	}
	if f.epoch < o.epoch {
		// Stale verdict from a deposed root (or a delayed retransmit
		// from before a failover): applying it would abort — or worse,
		// commit — an operation the current epoch's root still owns,
		// and the epoch write below would regress o.epoch.
		return
	}
	if commit && (o.total < 0 || o.haveCnt != o.total) {
		// COMMIT requires our own DONE, so an incomplete receiver can
		// only see one via reordering pathologies; ignore and keep
		// repairing rather than deliver a short payload.
		return
	}
	if o.root < 0 {
		o.root = f.root
	}
	o.epoch = f.epoch
	e.decide(o, commit)
}
