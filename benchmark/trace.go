package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpi/rpi"
	"repro/internal/netsim"
	"repro/internal/sctp"
	"repro/internal/seqnum"
	"repro/internal/sim"
	"repro/internal/tcp"
)

// The traced pass records spans at the two boundaries the benchmark can
// reach from outside the packages: program -> mpi (around each comm.*
// call; every such call is one operation and gets a fresh op id) and
// mpi -> rpi (Init / Send / Advance / Finalize, through a core.Options
// WrapRPI wrapper). Counts come from the public hooks: tcp and sctp
// probes capture the live connections and associations so that their
// Stats can be read, and the wrapper reads each module's rpi.Counters.
// Spans stay in memory and are written when the run ends.
//
// Ranks interleave on one kernel, so the wall-clock interval of a span
// that parks its rank also covers whatever other ranks did meanwhile.
// Wall self-time is therefore attributed only to spans across which no
// virtual time passed; spans that block are decomposed in virtual time.
//
// A nil *tracer is the untraced run: every method is a nil check.

type layerID uint8
type nameID uint8

const (
	layerMPI layerID = iota
	layerRPI
)

const (
	nameSend nameID = iota
	nameRecv
	nameWaitAny
	nameAllreduce
	nameBarrier
	nameInit
	nameAdvance
	nameFinalize
	nameCount
)

var layerNames = [...]string{"mpi", "rpi"}
var spanNames = [nameCount]string{"Send", "Recv", "WaitAny", "Allreduce", "Barrier", "Init", "Advance", "Finalize"}

// span is one recorded interval. Parent is 0 for a root span.
type span struct {
	ID, Parent, Op     int64
	Rank               int32
	Layer              layerID
	Name               nameID
	VirtStart, VirtEnd int64
	WallStart, WallEnd int64
}

// maxSpans bounds the in-memory trace; later spans are counted as
// dropped. The per-name aggregates below always cover every call.
const maxSpans = 1 << 18

// nameAgg aggregates every span of one (layer, name), stored or not.
type nameAgg struct {
	calls    int64
	virt     int64 // total virtual ns
	wallSelf int64 // wall ns, only over spans across which no virtual time passed
	still    int64 // how many such spans
}

// counts are the protocol and module counters sampled by rank 0 at the
// opening and closing barriers, keyed by the per-layer metric they feed
// ("sctp.pkts_sent", "rpi.poll_passes", ...); the traced metrics are
// their deltas.
type counts map[string]int64

// opCtx is a rank's open program-level span. Nesting is two deep (an
// mpi operation and the rpi calls under it), so the wall time covered
// by children is one running sum per rank.
type opCtx struct{ span, op, childWall int64 }

type tracer struct {
	epoch   time.Time
	spans   []span
	dropped int64
	nextID  int64
	nextOp  int64
	cur     []opCtx // per rank: the open program-level span
	live    bool    // inside a timed region

	byName [2][nameCount]nameAgg

	// Timed-region aggregates at the mpi -> rpi boundary.
	liveCalls   [nameCount]int64 // rpi-level calls by name
	advanceIdle int64            // Advance calls during which nothing was delivered
	advanceVirt int64            // virtual ns inside Advance
	opVirt      int64            // virtual ns inside program-level operations
	initVirt    int64            // rpi Init, max over ranks, summed over cells
	initWall    int64            // first Init entered -> last Init left, summed over cells

	mods      []*tracedRPI // this cell's modules
	assocs    []*sctp.Assoc
	assocSeen map[*sctp.Assoc]struct{}
	conns     []*tcp.Conn
	connSeen  map[*tcp.Conn]struct{}
	sctpProbe *sctp.Probe
	tcpProbe  *tcp.Probe
	open      counts
	delta     counts // timed-region deltas summed over cells
	initStart int64
	initEnd   int64
	cellInitV int64
}

func newTracer() *tracer {
	t := &tracer{
		epoch:     time.Now(),
		spans:     make([]span, 0, maxSpans),
		assocSeen: make(map[*sctp.Assoc]struct{}),
		connSeen:  make(map[*tcp.Conn]struct{}),
		delta:     make(counts),
	}
	// Probe callbacks only remember which object fired; all reading
	// happens from the benchmark's own code at the barriers.
	t.sctpProbe = &sctp.Probe{
		CumTSN: func(a *sctp.Assoc, _ seqnum.V) { t.seeAssoc(a) },
		Cwnd:   func(a *sctp.Assoc, _ netsim.Addr, _, _, _, _, _ int) { t.seeAssoc(a) },
	}
	t.tcpProbe = &tcp.Probe{
		Deliver: func(c *tcp.Conn, _ seqnum.V) { t.seeConn(c) },
		Cwnd:    func(c *tcp.Conn, _, _, _, _, _ int) { t.seeConn(c) },
	}
	return t
}

func (t *tracer) seeAssoc(a *sctp.Assoc) {
	if _, ok := t.assocSeen[a]; !ok {
		t.assocSeen[a] = struct{}{}
		t.assocs = append(t.assocs, a)
	}
}

func (t *tracer) seeConn(c *tcp.Conn) {
	if _, ok := t.connSeen[c]; !ok {
		t.connSeen[c] = struct{}{}
		t.conns = append(t.conns, c)
	}
}

// arm installs the probes and the RPI wrapper for one cell.
func (t *tracer) arm(opts core.Options) core.Options {
	if t == nil {
		return opts
	}
	procs := opts.Procs
	if procs == 0 {
		procs = 8
	}
	t.cur = make([]opCtx, procs)
	t.mods = t.mods[:0]
	t.assocs, t.conns = t.assocs[:0], t.conns[:0]
	clear(t.assocSeen)
	clear(t.connSeen)
	t.initStart, t.initEnd, t.cellInitV = 0, 0, 0
	opts.SCTPProbe, opts.TCPProbe = t.sctpProbe, t.tcpProbe
	opts.WrapRPI = func(rank int, m rpi.RPI) rpi.RPI {
		w := &tracedRPI{inner: m, t: t, rank: rank}
		t.mods = append(t.mods, w)
		return w
	}
	return opts
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// token carries a span's start across the traced call.
type token struct {
	idx        int // index into spans, -1 when the span was dropped
	virt, wall int64
	layer      layerID
	name       nameID
}

// begin opens a span. An mpi-layer span is a new operation and becomes
// the rank's open span; an rpi-layer span is a child of whatever
// operation the rank has open (none during Init and Finalize).
func (t *tracer) begin(rank int, layer layerID, name nameID, virt time.Duration) token {
	tok := token{idx: -1, virt: int64(virt), layer: layer, name: name}
	t.nextID++
	id := t.nextID
	parent := t.cur[rank]
	if layer == layerMPI {
		t.nextOp++
		parent = opCtx{op: t.nextOp}
		t.cur[rank] = opCtx{span: id, op: t.nextOp}
	}
	if len(t.spans) < cap(t.spans) {
		tok.idx = len(t.spans)
		t.spans = append(t.spans, span{ID: id, Parent: parent.span, Op: parent.op,
			Rank: int32(rank), Layer: layer, Name: name, VirtStart: int64(virt)})
	} else {
		t.dropped++
	}
	tok.wall = t.now()
	if tok.idx >= 0 {
		t.spans[tok.idx].WallStart = tok.wall
	}
	return tok
}

// end closes a span and returns its virtual and wall durations.
func (t *tracer) end(rank int, tok token, virt time.Duration) (dv, dw int64) {
	wall := t.now()
	dv, dw = int64(virt)-tok.virt, wall-tok.wall
	if tok.idx >= 0 {
		s := &t.spans[tok.idx]
		s.VirtEnd, s.WallEnd = int64(virt), wall
	}
	self := dw
	if tok.layer == layerMPI {
		self -= t.cur[rank].childWall
		t.cur[rank] = opCtx{}
	} else if t.cur[rank].span != 0 {
		t.cur[rank].childWall += dw
	}
	agg := &t.byName[tok.layer][tok.name]
	agg.calls++
	agg.virt += dv
	if dv == 0 {
		agg.still++
		agg.wallSelf += self
	}
	return dv, dw
}

// --- program -> mpi boundary ------------------------------------------

func (rc *rankCtx) beginOp(name nameID) token {
	return rc.cell.tr.begin(rc.rank, layerMPI, name, rc.pr.P.Now())
}

func (rc *rankCtx) endOp(tok token) {
	t := rc.cell.tr
	dv, _ := t.end(rc.rank, tok, rc.pr.P.Now())
	if t.live {
		t.opVirt += dv
	}
}

func (rc *rankCtx) send(dest, tag int, data []byte) error {
	if rc.cell.tr == nil {
		return rc.comm.Send(dest, tag, data)
	}
	tok := rc.beginOp(nameSend)
	err := rc.comm.Send(dest, tag, data)
	rc.endOp(tok)
	return err
}

func (rc *rankCtx) recv(src, tag int, buf []byte) (mpi.Status, error) {
	if rc.cell.tr == nil {
		return rc.comm.Recv(src, tag, buf)
	}
	tok := rc.beginOp(nameRecv)
	st, err := rc.comm.Recv(src, tag, buf)
	rc.endOp(tok)
	return st, err
}

func (rc *rankCtx) waitAny(reqs []*mpi.Request) (int, mpi.Status, error) {
	if rc.cell.tr == nil {
		return rc.comm.WaitAny(reqs...)
	}
	tok := rc.beginOp(nameWaitAny)
	i, st, err := rc.comm.WaitAny(reqs...)
	rc.endOp(tok)
	return i, st, err
}

func (rc *rankCtx) allreduce(vec []byte) error {
	if rc.cell.tr == nil {
		return rc.comm.Allreduce(vec, mpi.OpSumI64)
	}
	tok := rc.beginOp(nameAllreduce)
	err := rc.comm.Allreduce(vec, mpi.OpSumI64)
	rc.endOp(tok)
	return err
}

func (rc *rankCtx) barrier() error {
	if rc.cell.tr == nil {
		return rc.comm.Barrier()
	}
	tok := rc.beginOp(nameBarrier)
	err := rc.comm.Barrier()
	rc.endOp(tok)
	return err
}

// open passes the opening barrier and starts this rank's timed region.
func (rc *rankCtx) open() error {
	if err := rc.barrier(); err != nil {
		return err
	}
	rc.enter()
	return nil
}

// close passes the closing barrier and ends this rank's timed region.
func (rc *rankCtx) close() error {
	if err := rc.barrier(); err != nil {
		return err
	}
	rc.leave()
	return nil
}

// --- mpi -> rpi boundary ----------------------------------------------

// tracedRPI forwards every call unchanged and records a span around it.
type tracedRPI struct {
	inner     rpi.RPI
	t         *tracer
	rank      int
	p         *sim.Proc
	delivered int64
}

func (w *tracedRPI) Init(p *sim.Proc) error {
	w.p = p
	t := w.t
	tok := t.begin(w.rank, layerRPI, nameInit, p.Now())
	if t.initStart == 0 {
		t.initStart = tok.wall
	}
	err := w.inner.Init(p)
	dv, _ := t.end(w.rank, tok, p.Now())
	t.initEnd = t.now()
	if dv > t.cellInitV {
		t.cellInitV = dv
	}
	return err
}

func (w *tracedRPI) SetDelivery(d rpi.Delivery) {
	w.inner.SetDelivery(func(env rpi.Envelope, body []byte) {
		w.delivered++
		d(env, body)
	})
}

func (w *tracedRPI) Send(dest int, env rpi.Envelope, body []byte, onQueued func()) {
	tok := w.t.begin(w.rank, layerRPI, nameSend, w.p.Now())
	w.inner.Send(dest, env, body, onQueued)
	w.t.end(w.rank, tok, w.p.Now())
	if w.t.live {
		w.t.liveCalls[nameSend]++
	}
}

func (w *tracedRPI) Advance(p *sim.Proc, block bool) error {
	before := w.delivered
	tok := w.t.begin(w.rank, layerRPI, nameAdvance, p.Now())
	err := w.inner.Advance(p, block)
	dv, _ := w.t.end(w.rank, tok, p.Now())
	if w.t.live {
		w.t.liveCalls[nameAdvance]++
		w.t.advanceVirt += dv
		if w.delivered == before {
			w.t.advanceIdle++
		}
	}
	return err
}

func (w *tracedRPI) Finalize(p *sim.Proc) {
	tok := w.t.begin(w.rank, layerRPI, nameFinalize, p.Now())
	w.inner.Finalize(p)
	w.t.end(w.rank, tok, p.Now())
}

func (w *tracedRPI) Abort(p *sim.Proc)      { w.inner.Abort(p) }
func (w *tracedRPI) Counters() rpi.Counters { return w.inner.Counters() }

// --- counts at the barriers -------------------------------------------

// snapshot reads every captured connection, association and module.
func (t *tracer) snapshot() counts {
	c := make(counts)
	for _, a := range t.assocs {
		s := a.Statistics()
		c["sctp.pkts_sent"] += s.PacketsSent
		c["sctp.chunks_sent"] += s.ChunksSent
		c["sctp.sacks_sent"] += s.SacksSent
		c["sctp.retransmits"] += s.Retransmits
		c["sctp.fast_retransmits"] += s.FastRetransmits
		c["sctp.t3_expiries"] += s.T3Expiries
		c["sctp.dup_chunks"] += s.DupChunksRcvd
	}
	for _, cn := range t.conns {
		s := cn.Stats
		c["tcp.segs_sent"] += s.SegsSent
		c["tcp.acks_sent"] += s.AcksSent
		c["tcp.retransmits"] += s.Retransmits
		c["tcp.fast_retransmits"] += s.FastRetransmits
		c["tcp.rtos"] += s.RTOs
	}
	for _, m := range t.mods {
		ctrs := m.Counters()
		for _, k := range ctrs.Keys() {
			c["rpi."+k] += ctrs[k]
		}
	}
	return c
}

// enter and leave are called by rank 0 at the two barriers.
func (t *tracer) enter() {
	if t == nil {
		return
	}
	t.open = t.snapshot()
	t.initVirt += t.cellInitV
	t.initWall += t.initEnd - t.initStart
	t.live = true
}

func (t *tracer) leave() {
	if t == nil {
		return
	}
	t.live = false
	for k, v := range t.snapshot() {
		t.delta[k] += v - t.open[k]
	}
}

// --- output -------------------------------------------------------------

type spanJSON struct {
	ID        int64  `json:"id"`
	Parent    int64  `json:"parent"`
	Op        int64  `json:"op"`
	Rank      int32  `json:"rank"`
	Layer     string `json:"layer"`
	Name      string `json:"name"`
	VirtStart int64  `json:"virt_start_ns"`
	VirtEnd   int64  `json:"virt_end_ns"`
	WallStart int64  `json:"wall_start_ns"`
	WallEnd   int64  `json:"wall_end_ns"`
}

// write stores the spans as JSON Lines under dir.
func (t *tracer) write(dir, workload string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		s := &t.spans[i]
		err = enc.Encode(spanJSON{s.ID, s.Parent, s.Op, s.Rank, layerNames[s.Layer], spanNames[s.Name],
			s.VirtStart, s.VirtEnd, s.WallStart, s.WallEnd})
		if err != nil {
			break
		}
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("write %s: %w", path, err)
	}
	return path, nil
}
