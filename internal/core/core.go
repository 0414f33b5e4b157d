// Package core is the public facade of the reproduction: it builds the
// simulated cluster (the paper's eight FreeBSD nodes behind a gigabit
// switch with Dummynet loss), attaches the chosen transport and RPI
// module to every node, and runs an MPI program function on each rank.
//
// Minimal use:
//
//	report, err := core.Run(core.Options{Procs: 8, Transport: core.SCTP},
//	    func(pr *mpi.Process, comm *mpi.Comm) error {
//	        if comm.Rank() == 0 { return comm.Send(1, 0, []byte("hi")) }
//	        ...
//	    })
package core

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/mpi"
	"repro/internal/mpi/rmcast"
	"repro/internal/mpi/rpi"
	"repro/internal/mpi/sctp1to1rpi"
	"repro/internal/mpi/sctprpi"
	"repro/internal/mpi/tcprpi"
	"repro/internal/netsim"
	"repro/internal/netsim/topo"
	"repro/internal/sctp"
	"repro/internal/sim"
	"repro/internal/tcp"
	"repro/internal/transport"
	"repro/internal/wire"
)

// Transport selects the RPI module under test.
type Transport int

// Transports.
const (
	TCP              Transport = iota // LAM-TCP analogue
	SCTP                              // the paper's multistream SCTP module
	SCTPSingleStream                  // SCTP reduced to one stream (Figure 12 ablation)
	SCTPOneToOne                      // one-to-one socket style: one association per peer (§2.1 ablation)
)

func (t Transport) String() string {
	switch t {
	case TCP:
		return "LAM_TCP"
	case SCTP:
		return "LAM_SCTP"
	case SCTPSingleStream:
		return "LAM_SCTP_1stream"
	case SCTPOneToOne:
		return "LAM_SCTP_1to1"
	}
	return "?"
}

// transportNames maps the command-line names to transports; the RPI
// registry below maps each transport to its module builder.
var transportNames = map[string]Transport{
	"tcp":      TCP,
	"sctp":     SCTP,
	"sctp1":    SCTPSingleStream,
	"sctp1to1": SCTPOneToOne,
}

// ParseTransport resolves a command-line transport name.
func ParseTransport(name string) (Transport, error) {
	if t, ok := transportNames[name]; ok {
		return t, nil
	}
	return 0, fmt.Errorf("core: unknown transport %q (have %v)", name, TransportNames())
}

// TransportNames returns the selectable transport names, sorted.
func TransportNames() []string {
	names := make([]string, 0, len(transportNames))
	for n := range transportNames {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// PaperBufSize is the socket buffer size used in all the paper's
// experiments (220 KiB for both transports).
const PaperBufSize = 220 << 10

// Options configures a run.
type Options struct {
	Procs     int       // world size (default 8, the paper's cluster)
	Transport Transport // which RPI to use
	Seed      int64     // simulation seed (default 1)

	LossRate float64            // Dummynet-style Bernoulli loss on every link
	Link     *netsim.LinkParams // link-parameter override (default: 1 Gb/s LAN)

	// Topo, when non-nil, replaces the full-mesh testbed with a
	// generated multi-hop topology (fat-tree or leaf-spine) sized to
	// Procs: packets traverse switch ports with per-hop serialization
	// and queueing, so N-to-1 incast contention is expressible. Mutually
	// exclusive with IfacesPerNode > 1 (no multihoming on fabrics). A
	// Link override styles both host and fabric ports unless the config
	// sets them explicitly.
	Topo *topo.Config

	EagerLimit int // short/long threshold (default 64 KiB)
	Streams    int // SCTP stream pool (default 10)

	// IfacesPerNode > 1 gives every node one interface per subnet, the
	// paper's three-NIC multihomed setup. Heartbeats are enabled only
	// when multihomed.
	IfacesPerNode int

	// Cost overrides the transport-specific CPU cost model; nil uses
	// the calibrated defaults (see DefaultTCPCost / DefaultSCTPCost),
	// and &rpi.CostModel{} turns CPU cost modeling off (pure protocol
	// dynamics; useful in unit tests).
	Cost *rpi.CostModel

	// SCTPOptionC enables the paper's §3.4.3 Option C in the SCTP RPI:
	// control envelopes interleave with long-message bodies instead of
	// queueing behind them (Option B, the default and what the paper
	// shipped).
	SCTPOptionC bool

	// TCPConfig / SCTPConfig, when non-nil, replace the default stack
	// configuration: they are the one route by which a run turns
	// protocol mechanisms on and off (SACK, CRC32c verification, I-DATA
	// and its stream scheduler, CMT on a multihomed run). Zero buffer
	// sizes become PaperBufSize and zero SCTP Streams become Streams;
	// single-homed SCTP runs never heartbeat. Without TCPConfig, TCP
	// runs the LAM setting NoDelay. See tcpConfig and sctpConfig.
	TCPConfig  *tcp.Config
	SCTPConfig *sctp.Config

	// TCPProbe / SCTPProbe install protocol-event callbacks on every
	// stack built for this run (invariant-oracle hook points; see
	// tcp.Probe and sctp.Probe). Applied on top of any TCPConfig /
	// SCTPConfig override.
	TCPProbe  *tcp.Probe
	SCTPProbe *sctp.Probe

	// WrapRPI, when non-nil, wraps each rank's RPI module after it is
	// built — the hook the chaos harness uses to interpose its MPI-level
	// delivery oracle (see rpi.Observe).
	WrapRPI func(rank int, m rpi.RPI) rpi.RPI

	// RedialBudget bounds session-recovery redial attempts per loss
	// episode: 0 means the default (8), negative disables recovery (the
	// first session loss is terminal). See rpi.SessionConfig.
	RedialBudget int

	// DropReplayEvery, when N > 0, silently drops the Nth replayed
	// message across the whole job — a mutation knob that must trip the
	// chaos harness's exactly-once oracle. See rpi.SessionConfig.
	DropReplayEvery int

	// RMCProbe installs protocol-event callbacks on every rank's
	// reliable-multicast endpoint (the chaos harness's multicast
	// oracle hook; see rmcast.Probe).
	RMCProbe *rmcast.Probe

	// MCDupEvery / MCDropEvery seed the rmcast mutation knobs (double-
	// accounted and never-copied chunks) that the chaos multicast
	// oracles must flag. Test-only; see rmcast.Options.
	MCDupEvery  int
	MCDropEvery int

	// Deadline aborts the simulation after this much virtual time
	// (0 = none). Used defensively by long benchmark sweeps.
	Deadline time.Duration
}

func (o Options) withDefaults() Options {
	if o.Procs == 0 {
		o.Procs = 8
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.EagerLimit == 0 {
		o.EagerLimit = mpi.DefaultEagerLimit
	}
	if o.Streams == 0 {
		o.Streams = 10
	}
	if o.IfacesPerNode == 0 {
		o.IfacesPerNode = 1
	}
	return o
}

// DefaultTCPCost is the calibrated CPU cost model for the TCP module:
// a mature kernel path with NIC checksum offload (low per-message
// cost), but byte-stream framing and extra copies in the middleware
// (higher per-byte cost) plus a select() whose cost grows with the
// descriptor count (paper §3.3).
func DefaultTCPCost() rpi.CostModel {
	return rpi.CostModel{
		SendPerMsg: 1 * time.Microsecond,
		RecvPerMsg: 1 * time.Microsecond,
		SendPerKB:  520 * time.Nanosecond,
		RecvPerKB:  520 * time.Nanosecond,
		PollBase:   1 * time.Microsecond,
		PollPerFD:  200 * time.Nanosecond,
	}
}

// DefaultSCTPCost is the calibrated model for the 2005-era SCTP stack:
// higher per-message processing (immature stack, chunk bookkeeping —
// the reason TCP wins the no-loss ping-pong below ~22 KiB in Figure 8)
// but cheaper per byte (message framing avoids the middleware scan and
// a copy) and a single descriptor to poll.
func DefaultSCTPCost() rpi.CostModel {
	return rpi.CostModel{
		SendPerMsg: 8500 * time.Nanosecond,
		RecvPerMsg: 8500 * time.Nanosecond,
		SendPerKB:  180 * time.Nanosecond,
		RecvPerKB:  180 * time.Nanosecond,
		PollBase:   1 * time.Microsecond,
		PollPerFD:  0,
	}
}

// DefaultSCTP1to1Cost is the model for the one-to-one socket style:
// the same 2005-era SCTP stack costs as DefaultSCTPCost, but with the
// TCP module's select() descriptor scan back, because each peer owns a
// descriptor again (paper §2.1 / §3.3).
func DefaultSCTP1to1Cost() rpi.CostModel {
	return rpi.CostModel{
		SendPerMsg: 8500 * time.Nanosecond,
		RecvPerMsg: 8500 * time.Nanosecond,
		SendPerKB:  180 * time.Nanosecond,
		RecvPerKB:  180 * time.Nanosecond,
		PollBase:   1 * time.Microsecond,
		PollPerFD:  200 * time.Nanosecond,
	}
}

// meshEnv bundles the per-cluster context every module builder needs.
type meshEnv struct {
	addrs     []netsim.Addr
	addrLists [][]netsim.Addr
	barrier   *rpi.Barrier
}

// moduleBuilder constructs one rank's RPI module on its node.
type moduleBuilder func(opts Options, nd *netsim.Node, rank int, env *meshEnv) rpi.RPI

// builders is the RPI registry: adding a transport means adding a name
// in transportNames and a builder here.
var builders = map[Transport]moduleBuilder{
	TCP:              buildTCP,
	SCTP:             buildSCTP,
	SCTPSingleStream: buildSCTP,
	SCTPOneToOne:     buildSCTP1to1,
}

// cost resolves the effective cost model given the transport default.
func (o Options) cost(def rpi.CostModel) rpi.CostModel {
	if o.Cost != nil {
		return *o.Cost
	}
	return def
}

// tcpConfig resolves the effective TCP stack configuration: the
// override or the LAM default (Nagle off), at the paper's buffer size.
func (o Options) tcpConfig() tcp.Config {
	cfg := tcp.Config{NoDelay: true}
	if o.TCPConfig != nil {
		cfg = *o.TCPConfig
	}
	if cfg.SndBuf == 0 {
		cfg.SndBuf = PaperBufSize
	}
	if cfg.RcvBuf == 0 {
		cfg.RcvBuf = PaperBufSize
	}
	if o.TCPProbe != nil {
		cfg.Probe = o.TCPProbe
	}
	return cfg
}

// sctpConfig resolves the effective SCTP stack configuration: the
// override at the paper's buffer size and the run's stream pool (one
// stream for SCTPSingleStream), with heartbeats only when multihomed.
func (o Options) sctpConfig() sctp.Config {
	var cfg sctp.Config
	if o.SCTPConfig != nil {
		cfg = *o.SCTPConfig
	}
	if cfg.SndBuf == 0 {
		cfg.SndBuf = PaperBufSize
	}
	if cfg.RcvBuf == 0 {
		cfg.RcvBuf = PaperBufSize
	}
	if cfg.Streams == 0 {
		cfg.Streams = o.Streams
	}
	if o.Transport == SCTPSingleStream {
		cfg.Streams = 1
	}
	cfg.HBDisable = cfg.HBDisable || o.IfacesPerNode < 2
	if o.SCTPProbe != nil {
		cfg.Probe = o.SCTPProbe
	}
	return cfg
}

// session resolves the session-recovery configuration of every module.
func (o Options) session() rpi.SessionConfig {
	return rpi.SessionConfig{RedialBudget: o.RedialBudget, DropReplayEvery: o.DropReplayEvery}
}

func buildTCP(opts Options, nd *netsim.Node, rank int, env *meshEnv) rpi.RPI {
	return tcprpi.New(tcp.NewStack(nd, opts.tcpConfig()), rank, env.addrs, env.barrier, tcprpi.Options{
		Cost:    opts.cost(DefaultTCPCost()),
		Session: opts.session(),
	})
}

func buildSCTP(opts Options, nd *netsim.Node, rank int, env *meshEnv) rpi.RPI {
	return sctprpi.New(sctp.NewStack(nd, opts.sctpConfig()), rank, env.addrLists, env.barrier, sctprpi.Options{
		Cost:    opts.cost(DefaultSCTPCost()),
		OptionC: opts.SCTPOptionC,
		Session: opts.session(),
	})
}

func buildSCTP1to1(opts Options, nd *netsim.Node, rank int, env *meshEnv) rpi.RPI {
	return sctp1to1rpi.New(sctp.NewStack(nd, opts.sctpConfig()), rank, env.addrLists, env.barrier, sctp1to1rpi.Options{
		Cost:    opts.cost(DefaultSCTP1to1Cost()),
		OptionC: opts.SCTPOptionC,
		Session: opts.session(),
	})
}

// Report summarizes a completed run.
type Report struct {
	Elapsed   time.Duration // total virtual time, including setup/teardown
	NetStats  netsim.Stats
	RPIStats  []rpi.Counters // per rank; deterministic iteration via Keys()
	RankErrs  []error
	SimErr    error // deadlock or run error
	Transport Transport
}

// FirstError returns the first per-rank or simulation error.
func (r *Report) FirstError() error {
	if r.SimErr != nil {
		return r.SimErr
	}
	for _, e := range r.RankErrs {
		if e != nil {
			return e
		}
	}
	return nil
}

// Program is the per-rank MPI program body.
type Program func(pr *mpi.Process, comm *mpi.Comm) error

// Cluster is a built simulated testbed with transports attached but no
// program started yet. It exposes the kernel and network so callers can
// inject faults (loss changes, interface failures) while a program
// runs — the knobs the paper turns with Dummynet and pulled cables.
type Cluster struct {
	Opts    Options
	Kernel  *sim.Kernel
	Net     *netsim.Network
	Nodes   []*netsim.Node
	Mcast   []*rmcast.Endpoint // per-rank reliable-multicast endpoints
	modules []rpi.RPI
	report  *Report
	started bool
}

// NewCluster builds the testbed for opts.
func NewCluster(opts Options) (*Cluster, error) {
	opts = opts.withDefaults()
	k := sim.New(opts.Seed)
	lp := netsim.DefaultLinkParams()
	if opts.Link != nil {
		lp = *opts.Link
	}
	lp.LossRate = opts.LossRate
	var net *netsim.Network
	var nodes []*netsim.Node
	if opts.Topo != nil {
		if opts.IfacesPerNode > 1 {
			return nil, fmt.Errorf("core: Topo is mutually exclusive with IfacesPerNode > 1")
		}
		cfg := *opts.Topo
		if opts.Link != nil && cfg.HostLink == nil {
			cfg.HostLink = &lp
		}
		if opts.Link != nil && cfg.FabricLink == nil {
			cfg.FabricLink = &lp
		}
		tn, err := topo.Build(k, opts.Procs, cfg)
		if err != nil {
			return nil, err
		}
		net, nodes = tn.Network, tn.Hosts
		if opts.LossRate > 0 {
			net.SetLoss(opts.LossRate)
		}
	} else {
		net, nodes = netsim.Cluster(k, opts.Procs, opts.IfacesPerNode, lp)
	}

	barrier := rpi.NewBarrier(k, opts.Procs)
	report := &Report{
		RPIStats:  make([]rpi.Counters, opts.Procs),
		RankErrs:  make([]error, opts.Procs),
		Transport: opts.Transport,
	}

	addrs := make([]netsim.Addr, opts.Procs)
	addrLists := make([][]netsim.Addr, opts.Procs)
	for i, nd := range nodes {
		addrs[i] = nd.Addr()
		addrLists[i] = nd.Addrs()
	}

	build, ok := builders[opts.Transport]
	if !ok {
		return nil, fmt.Errorf("core: unknown transport %d", opts.Transport)
	}
	modules := make([]rpi.RPI, opts.Procs)
	for i, nd := range nodes {
		modules[i] = build(opts, nd, i, &meshEnv{addrs: addrs, addrLists: addrLists, barrier: barrier})
		if opts.WrapRPI != nil {
			modules[i] = opts.WrapRPI(i, modules[i])
		}
	}

	// Every rank joins one world-spanning multicast group and gets a
	// reliable-multicast endpoint; communicators opt in per run with
	// SetAlg(AlgMulticast), so building the endpoints unconditionally
	// costs nothing on tree/naive runs.
	group := netsim.MakeGroupAddr(1)
	mcast := make([]*rmcast.Endpoint, opts.Procs)
	for _, nd := range nodes {
		net.JoinGroup(group, nd.Addr())
	}
	for i, nd := range nodes {
		mcast[i] = rmcast.New(nd, group, i, addrs, rmcast.Options{
			Probe:          opts.RMCProbe,
			DupAcceptEvery: opts.MCDupEvery,
			DropChunkEvery: opts.MCDropEvery,
		})
	}

	return &Cluster{
		Opts:    opts,
		Kernel:  k,
		Net:     net,
		Nodes:   nodes,
		Mcast:   mcast,
		modules: modules,
		report:  report,
	}, nil
}

// Start spawns fn on every rank. It may be called once.
func (c *Cluster) Start(fn Program) {
	if c.started {
		panic("core: Cluster.Start called twice")
	}
	c.started = true
	for i := 0; i < c.Opts.Procs; i++ {
		rank := i
		c.Kernel.Spawn(fmt.Sprintf("rank%d", rank), func(p *sim.Proc) {
			pr := mpi.NewProcess(p, rank, c.Opts.Procs, c.modules[rank], c.Opts.EagerLimit)
			pr.SetMulticast(c.Mcast[rank])
			comm, err := pr.Init()
			if err != nil {
				c.report.RankErrs[rank] = err
				c.modules[rank].Abort(p)
				c.report.RPIStats[rank] = c.modules[rank].Counters()
				return
			}
			err = fn(pr, comm)
			if err != nil {
				c.report.RankErrs[rank] = err
			}
			if errors.Is(err, transport.ErrSessionLost) {
				// Terminal transport failure: an orderly Finalize is
				// impossible (its barrier would hang on the dead peer).
				// Abort releases every socket, so peers talking to this
				// rank fail fast, exhaust their own redial budgets, and
				// cascade to a clean job-wide shutdown instead of a
				// simulation deadlock.
				c.modules[rank].Abort(p)
			} else if ferr := pr.Finalize(); ferr != nil {
				if c.report.RankErrs[rank] == nil {
					c.report.RankErrs[rank] = ferr
				}
				if errors.Is(ferr, transport.ErrSessionLost) {
					c.modules[rank].Abort(p)
				}
			}
			c.report.RPIStats[rank] = c.modules[rank].Counters()
		})
	}
}

// KillSession destroys rank's transport session to peer from kernel
// context, as if the connection or association died on the wire — the
// chaos harness's AssocKill fault. It walks WrapRPI wrappers via
// Unwrap and reports whether the module supports session kills.
func (c *Cluster) KillSession(rank, peer int) bool {
	m := c.modules[rank]
	for {
		if k, ok := m.(interface{ KillSession(peer int) }); ok {
			k.KillSession(peer)
			return true
		}
		u, ok := m.(interface{ Unwrap() rpi.RPI })
		if !ok {
			return false
		}
		m = u.Unwrap()
	}
}

// Wait runs the simulation to quiescence and returns the report. The
// buffers the run handed back to the shared wire pool are then set aside
// for the next run (wire.Retain).
func (c *Cluster) Wait() (*Report, error) {
	if c.Opts.Deadline > 0 {
		c.report.SimErr = c.Kernel.RunFor(c.Opts.Deadline)
	} else {
		c.report.SimErr = c.Kernel.Run()
	}
	wire.Retain()
	c.report.Elapsed = c.Kernel.Now()
	c.report.NetStats = c.Net.Stats
	return c.report, c.report.FirstError()
}

// Run executes fn on every rank of a freshly built cluster and returns
// the report. The error return is the first failure (if any).
func Run(opts Options, fn Program) (*Report, error) {
	c, err := NewCluster(opts)
	if err != nil {
		return nil, err
	}
	c.Start(fn)
	return c.Wait()
}
