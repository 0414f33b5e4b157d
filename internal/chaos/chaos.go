package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/mpi"
	"repro/internal/mpi/rmcast"
	"repro/internal/mpi/rpi"
	"repro/internal/netsim"
	"repro/internal/netsim/topo"
	"repro/internal/sctp"
)

// EmptySchedule as a Spec.Prefix drops every event: the workload runs
// with no faults at all (the shrinker's base case). A Prefix of 0 — the
// zero value — keeps the whole schedule.
const EmptySchedule = -1

// Spec describes one chaos run. The pair (Seed, Events, Prefix) is the
// complete repro handle for a generated schedule: RandomSchedule is
// deterministic, so re-running the same Spec reproduces the run bit for
// bit, including the packet trace hash.
type Spec struct {
	Transport core.Transport
	Seed      int64 // schedule *and* simulation seed
	Events    int   // generated schedule length (default 5)
	Prefix    int   // >0: keep only the first Prefix events; 0: all; <0: none

	// Schedule, when non-nil, overrides generation (Prefix still
	// applies). Tests use this to pin a specific fault sequence.
	Schedule Schedule

	Procs     int  // world size (default 4)
	Multihome bool // three interfaces per node, heartbeats on
	LossRate  float64

	// Topology, when non-empty ("fattree"), replaces the full-mesh
	// testbed with a generated multi-hop fabric sized to Procs, so
	// faults land on a network with shared switch ports and real
	// queueing. Mutually exclusive with Multihome.
	Topology string

	Rounds    int // ring-exchange rounds (default 10)
	MsgSize   int // short-protocol payload (default 4 KiB)
	LongEvery int // every LongEvery-th round sends LongSize (default 4)
	LongSize  int // rendezvous payload (default 96 KiB, above the eager limit)

	// Collective, when non-empty ("bcast" or "allreduce"), switches the
	// run to the collective workload: a short ring exchange each round
	// keeps the neighbour sessions warm (so AssocKill stays detectable),
	// then a rotating-root collective of MsgSize bytes runs under the
	// algorithm family named by Alg. The rmcast protocol oracles arm on
	// every run but only see traffic here.
	Collective string
	// Alg names the collective algorithm family: "tree", "naive", or
	// "multicast" (the default when Collective is set).
	Alg string

	// Horizon stretches the generated schedule's event window (default
	// 10 ms). Large collective runs need it: at 256 ranks the startup and
	// first ring phase alone span tens of milliseconds of virtual time,
	// so a default-horizon kill corpus never reaches a broadcast window.
	Horizon time.Duration

	Deadline time.Duration // virtual-time abort (default 10 min; <0 = none)

	// SCTP, when non-nil, overrides the stack config (failover tests
	// tighten heartbeat and RTO timing).
	SCTP *sctp.Config

	// NoIData opts an SCTP run out of RFC 8260 interleaving. By default
	// the chaos corpus runs SCTP transports with I-DATA and the priority
	// scheduler enabled, so every seed exercises the interleaved
	// reassembly path and the per-MID oracles; TCP runs ignore this.
	NoIData bool

	// Session-recovery knobs.
	AllowKill    bool          // generated schedules are AssocKill-only (recovery corpus)
	RedialBudget int           // redials per loss episode: 0 = default (8), <0 = none
	LinkDelay    time.Duration // one-way link delay override (stretch virtual time)

	// Mutation knobs — deliberate bugs the oracle must catch.
	DisableChecksum bool // keep CRC32c verify off even under Corrupt events
	DupDeliverEvery int  // deliver every Nth short message twice (0 = off)
	DropReplayEvery int  // silently drop the Nth replayed message job-wide (0 = off)
	MCDupEvery      int  // double-count every Nth accepted multicast chunk (0 = off)
	MCDropEvery     int  // account every Nth multicast chunk without copying it (0 = off)
}

func (s Spec) withDefaults() Spec {
	if s.Events == 0 {
		s.Events = 5
	}
	if s.Procs == 0 {
		s.Procs = 4
	}
	if s.Rounds == 0 {
		s.Rounds = 30
	}
	if s.MsgSize == 0 {
		s.MsgSize = 4 << 10
	}
	if s.LongEvery == 0 {
		s.LongEvery = 4
	}
	if s.LongSize == 0 {
		s.LongSize = 96 << 10
	}
	if s.Deadline == 0 {
		s.Deadline = 10 * time.Minute
	} else if s.Deadline < 0 {
		s.Deadline = 0
	}
	if s.Collective != "" && s.Alg == "" {
		s.Alg = "multicast"
	}
	return s
}

func (s Spec) ifaces() int {
	if s.Multihome {
		return 3
	}
	return 1
}

// sctpConfig resolves the SCTP stack config of a run: the override,
// plus I-DATA with the priority scheduler unless NoIData, plus CRC32c
// verification whenever sched corrupts packets. Corruption on the wire
// requires the receiver to verify, exactly the paper's trade-off (it
// ran with verification off on a clean LAN); the DisableChecksum
// mutation keeps it off to prove the oracle notices corrupted payloads
// sneaking through.
func (s Spec) sctpConfig(sched Schedule) *sctp.Config {
	var cfg sctp.Config
	if s.SCTP != nil {
		cfg = *s.SCTP
	}
	if sched.HasCorrupt() && !s.DisableChecksum {
		cfg.ChecksumVerify = true
	}
	if s.Transport != core.TCP && !s.NoIData {
		cfg.IData = true
		if cfg.Scheduler == sctp.SchedFIFO {
			cfg.Scheduler = sctp.SchedPriority
		}
	}
	return &cfg
}

// schedule resolves the effective fault schedule, applying Prefix.
func (s Spec) schedule() Schedule {
	sched := s.Schedule
	if sched == nil {
		sched = RandomSchedule(s.Seed, GenConfig{
			Events:       s.Events,
			Horizon:      s.Horizon,
			Procs:        s.Procs,
			Ifaces:       s.ifaces(),
			AllowCorrupt: s.Transport != core.TCP,
			AllowKill:    s.AllowKill,
		})
	}
	switch {
	case s.Prefix < 0:
		sched = sched[:0]
	case s.Prefix > 0 && s.Prefix < len(sched):
		sched = sched[:s.Prefix]
	}
	return sched
}

// transportFlag is the -rpi value naming the transport in the repro
// command line.
func transportFlag(t core.Transport) string {
	switch t {
	case core.TCP:
		return "tcp"
	case core.SCTPOneToOne:
		return "sctp1to1"
	default:
		return "sctp"
	}
}

// Result is one chaos run's outcome.
type Result struct {
	Spec     Spec
	Schedule Schedule // the resolved, prefix-trimmed schedule that ran

	Violations []string // invariant violations, detection order
	Completed  bool     // every rank finished cleanly before the deadline
	TraceHash  string   // SHA-256 of the packet trace (determinism witness)
	LeakDelta  int64    // pooled packets still live at quiescence

	Sends      int64
	Deliveries int64
	Failovers  int64
	IDataFrags int64 // accepted I-DATA chunks the oracle checked

	// Session-recovery aggregates, summed over every rank's counters.
	SessionsLost   int64
	Redials        int64
	RedialsOK      int64
	Replayed       int64
	DupsSuppressed int64

	// Reliable-multicast aggregates (distinct operations, oracle view).
	McastOps       int64
	McastFallbacks int64
	McastRepairs   int64

	Report *core.Report
}

// Failed reports whether the run violated any invariant.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// Repro returns the one-line command reproducing this run.
func (r *Result) Repro() string {
	s := r.Spec
	cmd := fmt.Sprintf("go run ./cmd/chaos -rpi %s -seed %d -events %d -prefix %d -procs %d",
		transportFlag(s.Transport), s.Seed, s.Events, s.Prefix, s.Procs)
	if s.Multihome {
		cmd += " -multihome"
	}
	if s.Topology != "" {
		cmd += fmt.Sprintf(" -topo %s", s.Topology)
	}
	if s.Collective != "" {
		cmd += fmt.Sprintf(" -collective %s -alg %s", s.Collective, s.Alg)
	}
	if s.Rounds != 0 && s.Rounds != 30 {
		cmd += fmt.Sprintf(" -rounds %d", s.Rounds)
	}
	if s.MsgSize != 0 && s.MsgSize != 4<<10 {
		cmd += fmt.Sprintf(" -msgsize %d", s.MsgSize)
	}
	if s.Horizon != 0 {
		cmd += fmt.Sprintf(" -horizon %s", s.Horizon)
	}
	if s.AllowKill {
		cmd += " -kill"
	}
	if s.NoIData {
		cmd += " -noidata"
	}
	if s.RedialBudget != 0 {
		cmd += fmt.Sprintf(" -budget %d", s.RedialBudget)
	}
	if s.DupDeliverEvery > 0 {
		cmd += fmt.Sprintf(" -dup %d", s.DupDeliverEvery)
	}
	if s.DropReplayEvery > 0 {
		cmd += fmt.Sprintf(" -dropreplay %d", s.DropReplayEvery)
	}
	if s.MCDupEvery > 0 {
		cmd += fmt.Sprintf(" -mcdup %d", s.MCDupEvery)
	}
	if s.MCDropEvery > 0 {
		cmd += fmt.Sprintf(" -mcdrop %d", s.MCDropEvery)
	}
	if s.DisableChecksum {
		cmd += " -nochecksum"
	}
	return cmd
}

// String renders a failure report: violations, the schedule that ran,
// and the repro command.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s seed=%d: ", transportFlag(r.Spec.Transport), r.Spec.Seed)
	if !r.Failed() {
		fmt.Fprintf(&b, "ok (%d sends, %d deliveries, trace %s)",
			r.Sends, r.Deliveries, r.TraceHash[:12])
		if r.SessionsLost > 0 {
			fmt.Fprintf(&b, " recovery: lost=%d redials=%d/%d replayed=%d dups=%d",
				r.SessionsLost, r.RedialsOK, r.Redials, r.Replayed, r.DupsSuppressed)
		}
		if r.McastOps > 0 {
			fmt.Fprintf(&b, " mcast: ops=%d fallbacks=%d repairs=%d",
				r.McastOps, r.McastFallbacks, r.McastRepairs)
		}
		return b.String()
	}
	fmt.Fprintf(&b, "%d violation(s)\n", len(r.Violations))
	for _, v := range r.Violations {
		fmt.Fprintf(&b, "  %s\n", v)
	}
	if len(r.Schedule) > 0 {
		fmt.Fprintf(&b, "schedule:\n%s", r.Schedule)
	} else {
		fmt.Fprintf(&b, "schedule: (empty)\n")
	}
	fmt.Fprintf(&b, "repro: %s", r.Repro())
	return b.String()
}

// Run executes one chaos run: build the cluster, wire the oracle into
// the RPI boundary and both protocol stacks, arm the fault schedule,
// run the ring workload on every rank, and return the verdict. The
// same Spec always produces the same Result, byte for byte.
func Run(spec Spec) *Result {
	spec = spec.withDefaults()
	sched := spec.schedule()

	opts := core.Options{
		Procs:           spec.Procs,
		Transport:       spec.Transport,
		Seed:            spec.Seed,
		LossRate:        spec.LossRate,
		IfacesPerNode:   spec.ifaces(),
		Cost:            &rpi.CostModel{},
		Deadline:        spec.Deadline,
		RedialBudget:    spec.RedialBudget,
		DropReplayEvery: spec.DropReplayEvery,
		MCDupEvery:      spec.MCDupEvery,
		MCDropEvery:     spec.MCDropEvery,
		SCTPConfig:      spec.sctpConfig(sched),
	}
	if spec.LinkDelay > 0 {
		lp := netsim.DefaultLinkParams()
		lp.Delay = spec.LinkDelay
		opts.Link = &lp
	}
	if spec.Topology != "" {
		kind, err := topo.ParseKind(spec.Topology)
		if err != nil {
			res := &Result{Spec: spec, Schedule: sched}
			res.Violations = append(res.Violations, fmt.Sprintf("setup: %v", err))
			return res
		}
		opts.Topo = &topo.Config{Kind: kind}
	}

	var clock func() time.Duration
	oracle := NewOracle(func() time.Duration { return clock() })
	if spec.Transport == core.TCP {
		opts.TCPProbe = oracle.TCPProbe()
	} else {
		opts.SCTPProbe = oracle.SCTPProbe()
	}
	opts.RMCProbe = oracle.RMCProbe()
	opts.WrapRPI = func(rank int, m rpi.RPI) rpi.RPI {
		if spec.DupDeliverEvery > 0 {
			m = &dupDeliverRPI{RPI: m, every: spec.DupDeliverEvery}
		}
		return rpi.Observe(m, oracle.Observer(rank))
	}

	res := &Result{Spec: spec, Schedule: sched}
	leakBase := netsim.LivePooledPackets()

	c, err := core.NewCluster(opts)
	if err != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("setup: %v", err))
		return res
	}
	clock = c.Kernel.Now

	h := sha256.New()
	c.Net.Trace = func(ev string, pkt *netsim.Packet) {
		fmt.Fprintf(h, "%d|%s|%d|%d|%d|%d\n",
			c.Kernel.Now(), ev, pkt.Src, pkt.Dst, pkt.Proto, len(pkt.Payload))
	}

	base := netsim.DefaultLinkParams()
	sched.install(&applyCtx{c: c, baseLoss: spec.LossRate, baseBW: base.Bandwidth})

	work := workload
	if spec.Collective != "" {
		work = collectiveWorkload
	}
	done := make([]bool, spec.Procs)
	c.Start(func(pr *mpi.Process, comm *mpi.Comm) error {
		if err := work(spec, comm); err != nil {
			return err
		}
		done[comm.Rank()] = true
		return nil
	})
	rep, _ := c.Wait()
	res.Report = rep
	res.TraceHash = hex.EncodeToString(h.Sum(nil))

	completed := rep.SimErr == nil
	for rank := 0; rank < spec.Procs; rank++ {
		if rep.RankErrs[rank] != nil || !done[rank] {
			completed = false
		}
	}
	res.Completed = completed

	for _, cs := range rep.RPIStats {
		res.SessionsLost += cs["sessions_lost"]
		res.Redials += cs["redials_attempted"]
		res.RedialsOK += cs["redials_ok"]
		res.Replayed += cs["msgs_replayed"]
		res.DupsSuppressed += cs["dups_suppressed"]
	}

	// Progress oracle: a clean run finishes every rank. Deadlocks and
	// deadline aborts are invariant violations — the shaping faults all
	// heal, and killed sessions are the recovery layer's to repair, so
	// the stacks have no excuse not to finish.
	if rep.SimErr != nil {
		res.Violations = append(res.Violations, fmt.Sprintf("progress: %v", rep.SimErr))
	}
	for rank := 0; rank < spec.Procs; rank++ {
		if err := rep.RankErrs[rank]; err != nil {
			res.Violations = append(res.Violations, fmt.Sprintf("workload: rank %d: %v", rank, err))
		} else if !done[rank] {
			res.Violations = append(res.Violations,
				fmt.Sprintf("progress: rank %d did not finish by the %v deadline", rank, spec.Deadline))
		}
	}

	oracle.Finish(completed)
	res.Violations = append(res.Violations, oracle.Violations()...)
	res.Sends = oracle.Sends
	res.Deliveries = oracle.Deliveries
	res.Failovers = oracle.Failovers
	res.IDataFrags = oracle.IDataFrags
	res.McastOps = oracle.McastOps
	res.McastFallbacks = oracle.McastFallbacks
	res.McastRepairs = oracle.McastRepairs

	// Pool-leak oracle: at quiescence of a clean run every pooled packet
	// payload must be back in the pool.
	if completed {
		res.LeakDelta = netsim.LivePooledPackets() - leakBase
		if res.LeakDelta != 0 {
			res.Violations = append(res.Violations,
				fmt.Sprintf("leak: %+d pooled packets still live at shutdown", res.LeakDelta))
		}
	}
	return res
}

// pattern fills a deterministic payload for (rank, round).
func pattern(rank, round, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(rank*31 + round*7 + i)
	}
	return b
}

// workload is the per-rank program: ring exchanges mixing the short and
// long (rendezvous) protocols across three tags, a synchronous-send
// pass, a barrier, and a broadcast. It self-checks every payload, so a
// run can fail at the MPI surface even before the oracle weighs in.
func workload(spec Spec, comm *mpi.Comm) error {
	rank, size := comm.Rank(), comm.Size()
	right := (rank + 1) % size
	left := (rank + size - 1) % size

	for r := 0; r < spec.Rounds; r++ {
		n := spec.MsgSize
		if r%spec.LongEvery == spec.LongEvery-1 {
			n = spec.LongSize
		}
		tag := r % 3
		msg := pattern(rank, r, n)
		buf := make([]byte, n)
		st, err := comm.SendRecv(right, tag, msg, left, tag, buf)
		if err != nil {
			return fmt.Errorf("round %d: %w", r, err)
		}
		if st.Count != n {
			return fmt.Errorf("round %d: got %d bytes, want %d", r, st.Count, n)
		}
		want := pattern(left, r, n)
		for i := range buf {
			if buf[i] != want[i] {
				return fmt.Errorf("round %d: payload mismatch at byte %d: got %#x, want %#x",
					r, i, buf[i], want[i])
			}
		}
	}

	// Synchronous-send pass: even ranks Ssend right, odd ranks receive.
	if rank%2 == 0 && rank+1 < size {
		if err := comm.Ssend(rank+1, 7, pattern(rank, 99, 256)); err != nil {
			return fmt.Errorf("ssend: %w", err)
		}
	} else if rank%2 == 1 {
		buf := make([]byte, 256)
		if _, err := comm.Recv(rank-1, 7, buf); err != nil {
			return fmt.Errorf("ssend recv: %w", err)
		}
	}

	if err := comm.Barrier(); err != nil {
		return fmt.Errorf("barrier: %w", err)
	}

	bc := make([]byte, 1024)
	if rank == 0 {
		copy(bc, pattern(0, 123, 1024))
	}
	if err := comm.Bcast(0, bc); err != nil {
		return fmt.Errorf("bcast: %w", err)
	}
	want := pattern(0, 123, 1024)
	for i := range bc {
		if bc[i] != want[i] {
			return fmt.Errorf("bcast: payload mismatch at byte %d", i)
		}
	}
	return nil
}

// parseAlg resolves a Spec.Alg name to the mpi algorithm family.
func parseAlg(name string) (mpi.Alg, error) {
	switch name {
	case "", "multicast":
		return mpi.AlgMulticast, nil
	case "tree":
		return mpi.AlgTree, nil
	case "naive":
		return mpi.AlgNaive, nil
	}
	return mpi.AlgTree, fmt.Errorf("unknown algorithm family %q (want tree, naive, multicast)", name)
}

// collectivePattern gives (rank, round) a deterministic int64 vector
// with rank-distinguishing values, so a wrong fallback replay or a
// dropped chunk shows up as a digest mismatch.
func collectivePattern(rank, round, words int) []int64 {
	v := make([]int64, words)
	for i := range v {
		v[i] = int64(rank+1)*1_000_003 + int64(round)*257 + int64(i)*7
	}
	return v
}

// collectiveWorkload is the collective-corpus program: each round runs
// a short ring exchange (keeping every neighbour session warm so an
// AssocKill lands on traffic the RPI layer is watching) followed by a
// rotating-root collective under the configured algorithm family. All
// payloads are self-checked, so a wrong fallback replay fails at the
// MPI surface even before the rmcast oracle weighs in.
func collectiveWorkload(spec Spec, comm *mpi.Comm) error {
	alg, err := parseAlg(spec.Alg)
	if err != nil {
		return err
	}
	comm.SetAlg(alg)
	rank, size := comm.Rank(), comm.Size()
	right := (rank + 1) % size
	left := (rank + size - 1) % size
	words := spec.MsgSize / 8
	if words == 0 {
		words = 1
	}
	for r := 0; r < spec.Rounds; r++ {
		msg := pattern(rank, r, 256)
		buf := make([]byte, 256)
		if _, err := comm.SendRecv(right, r%3, msg, left, r%3, buf); err != nil {
			return fmt.Errorf("round %d ring: %w", r, err)
		}
		want := pattern(left, r, 256)
		for i := range buf {
			if buf[i] != want[i] {
				return fmt.Errorf("round %d ring: payload mismatch at byte %d", r, i)
			}
		}
		root := r % size
		switch spec.Collective {
		case "bcast":
			data := make([]byte, 8*words)
			if rank == root {
				copy(data, mpi.I64Bytes(collectivePattern(root, r, words)))
			}
			if err := comm.Bcast(root, data); err != nil {
				return fmt.Errorf("round %d bcast: %w", r, err)
			}
			wantB := mpi.I64Bytes(collectivePattern(root, r, words))
			if rmcast.Digest(data) != rmcast.Digest(wantB) {
				return fmt.Errorf("round %d bcast: payload mismatch at rank %d", r, rank)
			}
		case "allreduce":
			data := mpi.I64Bytes(collectivePattern(rank, r, words))
			if err := comm.Allreduce(data, mpi.OpSumI64); err != nil {
				return fmt.Errorf("round %d allreduce: %w", r, err)
			}
			sum := make([]int64, words)
			for rr := 0; rr < size; rr++ {
				for i, v := range collectivePattern(rr, r, words) {
					sum[i] += v
				}
			}
			if rmcast.Digest(data) != rmcast.Digest(mpi.I64Bytes(sum)) {
				return fmt.Errorf("round %d allreduce: result mismatch at rank %d", r, rank)
			}
		default:
			return fmt.Errorf("unknown collective %q (want bcast or allreduce)", spec.Collective)
		}
	}
	return comm.Barrier()
}

// dupDeliverRPI is a deliberate bug for mutation-testing the oracle: it
// delivers every Nth short message twice. The wrapper sits below the
// observer, so the oracle sees the duplicate exactly as the middleware
// would.
type dupDeliverRPI struct {
	rpi.RPI
	every int
	n     int
}

func (w *dupDeliverRPI) SetDelivery(d rpi.Delivery) {
	w.RPI.SetDelivery(func(env rpi.Envelope, body []byte) {
		d(env, body)
		if env.Kind == rpi.KindShort {
			w.n++
			if w.n%w.every == 0 {
				d(env, body)
			}
		}
	})
}
