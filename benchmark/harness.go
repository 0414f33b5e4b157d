package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// A repetition of a workload is one or more cells. A cell is one
// core.Cluster running one MPI program whose measured part sits between
// an opening and a closing barrier; everything before the opening
// barrier (cluster build, MPI Init mesh bring-up, buffer allocation,
// protocol warm-up) is set-up. The five 8-rank and fabric workloads are
// one cell per repetition; fig8_sweep is 28 cells run serially.

// rankCtx is the per-rank measurement state of one cell. Every slice is
// sized before the opening barrier so that nothing here allocates while
// the timed region runs.
type rankCtx struct {
	cell *cell
	pr   *mpi.Process
	comm *mpi.Comm
	rank int

	openVirt, closeVirt time.Duration
	openStats, endStats mpi.ProcStats

	lat      []int64 // virtual ns per operation, cap fixed by the workload
	ops, bad int64   // operations attempted / failed their output check
	payload  int64   // application payload bytes received and verified
}

// wallMark is what rank 0 samples on leaving a barrier.
type wallMark struct {
	t          time.Time
	mallocs    uint64
	allocBytes uint64
	net        netsim.Stats
}

// cell is the state shared by the ranks of one cluster run.
type cell struct {
	seed   int64 // payload seed
	ranks  []rankCtx
	open   wallMark
	close  wallMark
	mem    runtime.MemStats // scratch for ReadMemStats; reused, never reallocated
	net    *netsim.Network
	tr     *tracer
	pinned time.Duration // the legacy harness's own elapsed figure, for -check
}

func (c *cell) mark(m *wallMark) {
	runtime.ReadMemStats(&c.mem)
	m.mallocs, m.allocBytes = c.mem.Mallocs, c.mem.TotalAlloc
	m.net = c.net.Stats
	m.t = time.Now()
}

// enter is called by every rank on leaving the opening barrier.
func (rc *rankCtx) enter() {
	rc.openVirt = rc.pr.P.Now()
	rc.openStats = rc.pr.Stats
	if rc.rank == 0 {
		rc.cell.tr.enter()
		rc.cell.mark(&rc.cell.open)
	}
}

// leave is called by every rank on leaving the closing barrier.
func (rc *rankCtx) leave() {
	if rc.rank == 0 {
		rc.cell.mark(&rc.cell.close)
		rc.cell.tr.leave()
	}
	rc.closeVirt = rc.pr.P.Now()
	rc.endStats = rc.pr.Stats
}

// sample records one operation latency. Samples beyond the preallocated
// capacity would have to grow the slice inside the timed region, so
// they count as failed operations instead.
func (rc *rankCtx) sample(d time.Duration) {
	if len(rc.lat) == cap(rc.lat) {
		rc.bad++
		return
	}
	rc.lat = append(rc.lat, int64(d))
}

// program is one workload's per-rank MPI code. It allocates what it
// needs, calls rc.open, does the measured work and returns rc.close().
type program func(rc *rankCtx) error

// rep accumulates the measurements of one repetition over its cells.
type rep struct {
	setupWall      time.Duration // NewCluster start → rank 0 leaves the opening barrier
	newClusterWall time.Duration
	wall           time.Duration // timed region, rank 0's wall clock
	mallocs        uint64
	allocBytes     uint64
	virt           time.Duration // timed region, max over ranks
	initVirt       time.Duration // virtual time at which rank 0 left the opening barrier
	net            netsim.Stats  // timed-region deltas
	procStats      mpi.ProcStats // timed-region deltas summed over ranks
	payload        int64
	lat            []int64
	attempted      int64
	failed         int64
	pins           []time.Duration
	failures       []string // first few failure descriptions
}

// msgs is the benchmark's message count: receives posted in the timed
// region, summed over ranks.
func (r *rep) msgs() int64 { return r.procStats.RecvsPosted }

func (r *rep) failf(format string, args ...any) {
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// runCell builds one cluster, runs prog on it and folds the
// measurements into r. payloadSeed generates the message bodies and
// latCap is the per-rank latency capacity.
func runCell(r *rep, opts core.Options, payloadSeed int64, prog program, latCap int, tr *tracer) {
	opts = tr.arm(opts)
	c := &cell{seed: payloadSeed, tr: tr}
	start := time.Now()
	cl, err := core.NewCluster(opts)
	r.newClusterWall += time.Since(start)
	if err != nil {
		r.attempted++
		r.failf("NewCluster: %v", err)
		return
	}
	c.net = cl.Net
	c.ranks = make([]rankCtx, cl.Opts.Procs)
	for i := range c.ranks {
		c.ranks[i] = rankCtx{cell: c, rank: i, lat: make([]int64, 0, latCap)}
	}
	cl.Start(func(pr *mpi.Process, comm *mpi.Comm) error {
		rc := &c.ranks[comm.Rank()]
		rc.pr, rc.comm = pr, comm
		return prog(rc)
	})
	report, _ := cl.Wait()

	// One operation for the run itself: it must end without a rank or
	// simulation error and must hand every pooled packet back.
	r.attempted++
	if err := report.FirstError(); err != nil {
		r.failf("run: %v", err)
		return
	}
	if n := netsim.LivePooledPackets(); n != 0 {
		r.failf("%d pooled packets still live after the run", n)
	}
	r.setupWall += c.open.t.Sub(start)
	r.wall += c.close.t.Sub(c.open.t)
	r.mallocs += c.close.mallocs - c.open.mallocs
	r.allocBytes += c.close.allocBytes - c.open.allocBytes
	addNetDelta(&r.net, c.close.net, c.open.net)
	r.initVirt += c.ranks[0].openVirt
	r.pins = append(r.pins, c.pinned)
	var virt time.Duration
	for i := range c.ranks {
		rc := &c.ranks[i]
		if d := rc.closeVirt - rc.openVirt; d > virt {
			virt = d
		}
		addProcDelta(&r.procStats, rc.endStats, rc.openStats)
		r.payload += rc.payload
		r.lat = append(r.lat, rc.lat...)
		r.attempted += rc.ops
		r.failed += rc.bad
	}
	if r.failed > 0 && len(r.failures) == 0 {
		r.failures = append(r.failures, "payload or reduction mismatch")
	}
	r.virt += virt
}

func addNetDelta(dst *netsim.Stats, end, start netsim.Stats) {
	dst.PacketsSent += end.PacketsSent - start.PacketsSent
	dst.BytesSent += end.BytesSent - start.BytesSent
	dst.PacketsLost += end.PacketsLost - start.PacketsLost
	dst.PacketsQueued += end.PacketsQueued - start.PacketsQueued
}

func addProcDelta(dst *mpi.ProcStats, end, start mpi.ProcStats) {
	dst.SendsPosted += end.SendsPosted - start.SendsPosted
	dst.RecvsPosted += end.RecvsPosted - start.RecvsPosted
	dst.EagerSends += end.EagerSends - start.EagerSends
	dst.RendezvousSends += end.RendezvousSends - start.RendezvousSends
	dst.UnexpectedMsgs += end.UnexpectedMsgs - start.UnexpectedMsgs
	dst.MatchedFromQueue += end.MatchedFromQueue - start.MatchedFromQueue
}

// --- payload patterns -------------------------------------------------

// Every message body is a 24-byte header naming its (seed, source, tag,
// iteration) followed by a seeded byte pattern chosen by source and by
// iteration parity. The receiver checks the header field by field and
// the rest with one bytes.Equal against the same pattern, so a full
// 30 KiB body is verified at memcmp speed and nothing is allocated.
// Alternating the pattern with the iteration's parity means a receive
// buffer that was only partly overwritten still differs from what is
// expected, because it holds the previous iteration's pattern.

const headerSize = 24

// patterns holds the two body patterns of one source rank.
type patterns [2][]byte

func newPatterns(seed int64, src, size int) *patterns {
	var p patterns
	for parity := range p {
		b := make([]byte, size)
		x := splitmix(uint64(seed)<<20 ^ uint64(src)<<1 ^ uint64(parity))
		i := 0
		for ; i+8 <= size; i += 8 {
			x = splitmix(x)
			binary.LittleEndian.PutUint64(b[i:], x)
		}
		for ; i < size; i++ {
			x = splitmix(x)
			b[i] = byte(x)
		}
		p[parity] = b
	}
	return &p
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// stamp writes the message for (src, tag, iter) into buf, which must
// have the patterns' size. Bodies shorter than a header carry only the
// low bytes of the iteration.
func (p *patterns) stamp(buf []byte, seed int64, src, tag, iter int) {
	copy(buf, p[iter&1])
	if len(buf) < headerSize {
		for i := range buf {
			buf[i] = byte(iter >> (8 * i))
		}
		return
	}
	binary.LittleEndian.PutUint64(buf[0:], uint64(seed))
	binary.LittleEndian.PutUint32(buf[8:], uint32(src))
	binary.LittleEndian.PutUint32(buf[12:], uint32(tag))
	binary.LittleEndian.PutUint64(buf[16:], uint64(iter))
}

// restamp rewrites only the header of a buffer that already holds the
// right parity's pattern — the per-send cost when consecutive sends
// alternate between two prepared buffers.
func restamp(buf []byte, iter int) {
	if len(buf) < headerSize {
		for i := range buf {
			buf[i] = byte(iter >> (8 * i))
		}
		return
	}
	binary.LittleEndian.PutUint64(buf[16:], uint64(iter))
}

// verify reports whether buf is exactly the message for (src, tag, iter).
func (p *patterns) verify(buf []byte, seed int64, src, tag, iter int) bool {
	want := p[iter&1]
	if len(buf) != len(want) {
		return false
	}
	if len(buf) < headerSize {
		for i := range buf {
			if buf[i] != byte(iter>>(8*i)) {
				return false
			}
		}
		return true
	}
	return binary.LittleEndian.Uint64(buf[0:]) == uint64(seed) &&
		binary.LittleEndian.Uint32(buf[8:]) == uint32(src) &&
		binary.LittleEndian.Uint32(buf[12:]) == uint32(tag) &&
		binary.LittleEndian.Uint64(buf[16:]) == uint64(iter) &&
		bytes.Equal(buf[headerSize:], want[headerSize:])
}

// check counts one verified receive of n payload bytes.
func (rc *rankCtx) check(ok bool, n int) {
	rc.ops++
	if ok {
		rc.payload += int64(n)
	} else {
		rc.bad++
	}
}
