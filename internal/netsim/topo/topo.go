// Package topo generates multi-hop data-centre topologies — k-ary
// fat-trees — on top of netsim's Router/Port machinery. Switches are
// not netsim nodes: a route is the ordered list of directed egress
// ports a packet serializes through, so only hosts carry protocol
// stacks and the fabric stays cheap at 1024 hosts.
//
// Path selection is deterministic ECMP: the uplink at each stage is an
// arithmetic hash of (src, dst), so a flow always takes the same path
// and a run is exactly reproducible — no RNG draws are consumed by
// routing.
package topo

import (
	"fmt"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// Kind selects the generated topology family.
type Kind int

// Topology families.
const (
	// FatTree is the classic k-ary fat-tree: k pods of k/2 edge and
	// k/2 aggregation switches, (k/2)^2 cores, k^3/4 hosts, full
	// bisection bandwidth.
	FatTree Kind = iota
)

// ParseKind resolves a command-line topology name ("fattree").
func ParseKind(name string) (Kind, error) {
	if name == "fattree" {
		return FatTree, nil
	}
	return 0, fmt.Errorf("topo: unknown topology %q (have fattree)", name)
}

// Config describes a generated topology. Zero structural fields are
// auto-sized from the host count passed to Build, so callers can say
// just {Kind: FatTree} and scale with the job.
type Config struct {
	Kind Kind

	// K is the fat-tree switch radix (even). 0 auto-sizes to the
	// smallest radix whose k^3/4 host capacity fits the job.
	K int

	// HostLink styles host NIC and switch-to-host ports; FabricLink
	// styles switch-to-switch ports. Nil uses netsim defaults with a
	// 5 µs per-hop delay (a 6-hop fat-tree worst case stays LAN-scale).
	HostLink, FabricLink *netsim.LinkParams
}

// Net is a built topology: the network with its router installed, the
// host nodes in rank order, and structural counts for reporting.
type Net struct {
	Network  *netsim.Network
	Hosts    []*netsim.Node
	Kind     Kind
	Switches int
	Ports    int
	MaxHops  int
}

// defaultLink is the per-hop port style: same 1 Gb/s rate and queue
// bound as the mesh testbed, but a shorter per-hop propagation delay so
// multi-hop paths stay LAN-scale end to end.
func defaultLink() netsim.LinkParams {
	lp := netsim.DefaultLinkParams()
	lp.Delay = 5 * time.Microsecond
	return lp
}

// Build constructs the topology for `hosts` hosts on a fresh network.
func Build(k *sim.Kernel, hosts int, cfg Config) (*Net, error) {
	if hosts < 1 {
		return nil, fmt.Errorf("topo: need at least 1 host, got %d", hosts)
	}
	hostLP := defaultLink()
	if cfg.HostLink != nil {
		hostLP = *cfg.HostLink
	}
	fabricLP := defaultLink()
	if cfg.FabricLink != nil {
		fabricLP = *cfg.FabricLink
	}
	if cfg.Kind != FatTree {
		return nil, fmt.Errorf("topo: unknown kind %d", int(cfg.Kind))
	}
	return buildFatTree(k, hosts, cfg.K, hostLP, fabricLP)
}

// newHosts creates the host nodes with contiguous rank-ordered
// addresses 10.0.0.1+ (16-bit host field) and a NIC-up port each.
func newHosts(net *netsim.Network, hosts int, hostLP netsim.LinkParams) ([]*netsim.Node, []*netsim.Port) {
	nodes := make([]*netsim.Node, hosts)
	up := make([]*netsim.Port, hosts)
	for h := 0; h < hosts; h++ {
		nd := net.NewNode(fmt.Sprintf("h%d", h))
		nd.AddInterface(netsim.MakeAddr(0, h+1))
		nodes[h] = nd
		up[h] = net.NewPort(hostLP)
	}
	return nodes, up
}

// hostIndex maps an address back to the dense host index, or -1.
func hostIndex(a netsim.Addr, n int) int {
	h := int(a) - int(netsim.MakeAddr(0, 1))
	if h < 0 || h >= n {
		return -1
	}
	return h
}

// pathHash mixes (src, dst, stage) into a deterministic uplink choice.
func pathHash(src, dst, stage int) int {
	x := uint64(src)*0x9e3779b97f4a7c15 ^ uint64(dst)*0xc2b2ae3d27d4eb4f ^ uint64(stage)*0x165667b19e3779f9
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return int(x >> 1) // keep it non-negative
}
