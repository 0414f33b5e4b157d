// Package netsim simulates an IP network: nodes with (possibly several)
// interfaces, connected by point-to-point pipes with propagation delay,
// serialization at a configured bandwidth, drop-tail queueing, and
// Bernoulli packet loss. The loss model is the Dummynet configuration
// the paper used on its FreeBSD cluster.
//
// The topology is a full mesh of unidirectional pipes created lazily per
// (source interface, destination interface) pair; a LinkParams override
// may be installed per pair, per subnet, or globally. Multihoming is
// modeled by giving a node one interface per subnet.
package netsim

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/freelist"
	"repro/internal/sim"
	"repro/internal/wire"
)

// Protocol numbers used by the stacks in this repository.
const (
	ProtoTCP  = 6
	ProtoSCTP = 132
)

// IPHeaderSize is the overhead charged per packet on the wire.
const IPHeaderSize = 20

// Addr is an IPv4-style address.
type Addr uint32

// MakeAddr builds the address 10.subnet.host/16: the host occupies the
// low 16 bits so generated topologies can address up to 65535 hosts
// per subnet. Hosts below 256 produce exactly the historical
// 10.subnet.0.host addresses.
func MakeAddr(subnet, host int) Addr {
	return Addr(10<<24 | uint32(subnet&0xff)<<16 | uint32(host&0xffff))
}

// Subnet returns the subnet component of an address built by MakeAddr.
func (a Addr) Subnet() int { return int(a >> 16 & 0xff) }

// MakeGroupAddr builds a link-layer multicast group address in the
// 224.0.0.0/8 block, disjoint from every MakeAddr unicast address.
func MakeGroupAddr(group int) Addr {
	return Addr(0xe0<<24 | uint32(group&0xffffff))
}

// IsMulticast reports whether the address is a multicast group address.
func (a Addr) IsMulticast() bool { return a>>24 == 0xe0 }

// String renders the address in dotted-quad form.
func (a Addr) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", a>>24&0xff, a>>16&0xff, a>>8&0xff, a&0xff)
}

// Packet is an IP datagram in flight.
//
// Packets are pooled per network. Node.NewPacket takes one from the
// network's free list around a payload obtained from wire.GetBuf; the
// packet carries a reference count. Ownership transfers to the network
// at Node.Send; the network releases the packet on every drop path and
// after delivering it to the protocol handler, and the last release
// returns the payload to the wire pool and the struct to the free list.
// A handler that keeps a sub-slice of the payload alive past its return
// (e.g. SCTP reassembly fragments) must Retain the packet and Release it
// when done; otherwise it must not touch the packet after returning,
// because the struct is reused for a later packet.
//
// NewPooledPacket and plain literals build packets outside any network
// (tools and tests). Node.Send moves such a packet into a struct of the
// network's own before it travels, and a literal's payload is never
// recycled.
type Packet struct {
	Src, Dst Addr
	Proto    uint8
	Payload  []byte

	refs   int32    // references held; 0 once released (or never pooled)
	pooled bool     // Payload belongs to the wire pool
	net    *Network // the network whose free list this struct returns to
	parent *Packet  // for a copy made in flight: the packet whose payload it shares

	// Where the packet goes next. arriveFn is arrive, bound once when the
	// network allocates the struct, so scheduling an arrival allocates
	// nothing.
	arriveFn func()
	dst      *Iface   // receiving interface
	path     []*Port  // routed hops; hop indexes the one being crossed
	hop      int      // (or, on a subtree, the stage it is crossing)
	mcast    bool     // a multicast copy
	subtree  *subtree // routed multicast: the members behind this copy
}

// subtree is the set of multicast members a routed copy carries on
// behalf of, with their routes.
type subtree struct {
	dsts  []*Iface
	paths [][]*Port
}

// livePooled counts pooled packets whose payload has not yet been
// returned to the pool, across every network in the process. At
// simulation quiescence the count must return to its starting value;
// the chaos harness uses the delta as its packet-leak oracle.
var livePooled int64

// LivePooledPackets returns the number of pooled packets currently
// holding a payload. Meaningful as a leak check only when a single
// simulation is running in the process.
//
//simlint:allow nopreempt process-global leak counter shared by kernels running concurrently in parallel sweeps; it is observability only and never feeds back into virtual-time behavior
func LivePooledPackets() int64 { return atomic.LoadInt64(&livePooled) }

// countPooled moves the leak counter by delta.
func countPooled(delta int64) {
	//simlint:allow nopreempt leak counter is shared across concurrently sweeping kernels; the value never influences simulation decisions
	atomic.AddInt64(&livePooled, delta)
}

// NewPooledPacket wraps a payload obtained from wire.GetBuf in a packet
// that belongs to no network, for code that builds packets outside one.
// Simulated hosts use Node.NewPacket, which draws from the network's
// free list instead of allocating.
func NewPooledPacket(src, dst Addr, proto uint8, payload []byte) *Packet {
	countPooled(1)
	return &Packet{Src: src, Dst: dst, Proto: proto, Payload: payload, refs: 1, pooled: true}
}

// Retain adds a reference to a pooled packet.
func (p *Packet) Retain() {
	if p.refs > 0 {
		p.refs++
	}
}

// Release drops one reference. The last one returns the payload to the
// wire pool and the struct to its network's free list (a copy releases
// the packet it shares the payload with instead).
func (p *Packet) Release() {
	if p.refs == 0 {
		return
	}
	p.refs--
	if p.refs > 0 {
		return
	}
	if p.pooled {
		wire.PutBuf(p.Payload)
		countPooled(-1)
	}
	n, parent := p.net, p.parent
	*p = Packet{net: n, arriveFn: p.arriveFn}
	if n != nil {
		n.free.Put(p)
	}
	if parent != nil {
		parent.Release()
	}
}

// WireSize returns the on-the-wire size of the packet including the IP
// header.
func (p *Packet) WireSize() int { return len(p.Payload) + IPHeaderSize }

// alloc takes a packet struct from the free list.
func (n *Network) alloc() *Packet {
	p := n.free.Get()
	if p == nil {
		p = &Packet{net: n}
		p.arriveFn = p.arrive
	}
	return p
}

// adopt moves a packet built outside the network into one of its own
// structs, which is what travels; the caller gave the original up at
// Send.
func (n *Network) adopt(pkt *Packet) *Packet {
	q := n.alloc()
	q.Src, q.Dst, q.Proto, q.Payload = pkt.Src, pkt.Dst, pkt.Proto, pkt.Payload
	q.pooled = pkt.pooled && pkt.refs > 0
	q.refs = 1
	pkt.refs, pkt.Payload = 0, nil
	return q
}

// copyOf returns a second packet sharing pkt's payload and destination,
// for a copy that travels on its own from here: a duplicate, or one
// branch of a multicast fan-out. The copy holds a reference on the
// packet that owns the payload.
func (n *Network) copyOf(pkt *Packet) *Packet {
	owner := pkt
	if pkt.parent != nil {
		owner = pkt.parent
	}
	owner.refs++
	c := n.alloc()
	c.Src, c.Dst, c.Proto, c.Payload = pkt.Src, pkt.Dst, pkt.Proto, pkt.Payload
	c.dst, c.path, c.hop, c.mcast, c.subtree = pkt.dst, pkt.path, pkt.hop, pkt.mcast, pkt.subtree
	c.refs = 1
	c.parent = owner
	return c
}

// LinkParams describes one direction of a link. All fields may be
// changed at runtime through UpdateLinkParams; because a packet's
// arrival time is fixed at send time, parameter changes only affect
// packets sent afterwards and can never reorder traffic already in
// flight.
type LinkParams struct {
	Delay       time.Duration // one-way propagation delay
	Bandwidth   int64         // bits per second; 0 means infinite
	LossRate    float64       // Bernoulli drop probability in [0,1)
	DupRate     float64       // Bernoulli duplication probability (Dummynet supports this too)
	CorruptRate float64       // Bernoulli bit-corruption probability: one random payload bit flips
	Jitter      time.Duration // uniform extra delay in [0, Jitter); causes reordering
	QueueBytes  int           // drop-tail queue bound; 0 means unbounded
	MTU         int           // maximum packet payload size; 0 means 1500
	Down        bool          // administratively down: drop everything (fault injection)
}

// DefaultLinkParams matches the paper's testbed: 1 Gb/s Ethernet through
// a layer-two switch, LAN-scale latency, no loss.
func DefaultLinkParams() LinkParams {
	return LinkParams{
		Delay:      50 * time.Microsecond,
		Bandwidth:  1e9,
		LossRate:   0,
		QueueBytes: 256 << 10,
		MTU:        1500,
	}
}

func (lp LinkParams) mtu() int {
	if lp.MTU <= 0 {
		return 1500
	}
	return lp.MTU
}

// Stats counts network-wide events.
type Stats struct {
	PacketsSent      int64
	PacketsLost      int64 // Bernoulli loss
	PacketsDuped     int64 // Bernoulli duplication
	PacketsCorrupted int64 // Bernoulli bit corruption (packet still delivered)
	PacketsQueued    int64 // dropped by drop-tail queue
	PacketsDown      int64 // dropped because an interface was down
	PacketsBlocked   int64 // dropped because the pipe was administratively down
	PacketsNoRoute   int64
	BytesSent        int64
	PacketsMcast     int64 // multicast packets entering the network (one per Send)
	McastDeliveries  int64 // multicast copies handed to receivers
}

// Network is the simulated internetwork.
type Network struct {
	K       *sim.Kernel
	def     LinkParams
	nodes   []*Node
	routes  map[Addr]*Iface
	pipes   map[pipeKey]*Pipe
	perPair map[pipeKey]LinkParams
	ports   []*Port
	free    freelist.List[Packet] // released packet structs, reused by alloc
	router  Router
	groups  map[Addr][]*Iface
	Stats   Stats
	Trace   func(ev string, pkt *Packet)
}

type pipeKey struct{ src, dst Addr }

// NewNetwork returns an empty network scheduled on k.
func NewNetwork(k *sim.Kernel) *Network {
	return &Network{
		K:       k,
		def:     DefaultLinkParams(),
		routes:  make(map[Addr]*Iface),
		pipes:   make(map[pipeKey]*Pipe),
		perPair: make(map[pipeKey]LinkParams),
	}
}

// SetDefaultLinkParams replaces the parameters used for pipes without a
// per-pair override. Existing pipes created from the defaults are
// updated in place.
func (n *Network) SetDefaultLinkParams(lp LinkParams) {
	n.def = lp
	for key, p := range n.pipes {
		if _, over := n.perPair[key]; !over {
			p.params = lp
		}
	}
}

// DefaultLinkParamsValue returns the current defaults.
func (n *Network) DefaultLinkParamsValue() LinkParams { return n.def }

// SetLoss sets the Bernoulli loss rate on every pipe, existing and
// future, mirroring a cluster-wide Dummynet plr setting.
func (n *Network) SetLoss(rate float64) {
	n.def.LossRate = rate
	for key := range n.perPair {
		lp := n.perPair[key]
		lp.LossRate = rate
		n.perPair[key] = lp
	}
	for _, p := range n.pipes {
		p.params.LossRate = rate
	}
	for _, p := range n.ports {
		p.params.LossRate = rate
	}
}

// SetLinkParamsBetween installs a per-pair override for packets from src
// to dst (one direction).
func (n *Network) SetLinkParamsBetween(src, dst Addr, lp LinkParams) {
	key := pipeKey{src, dst}
	n.perPair[key] = lp
	if p, ok := n.pipes[key]; ok {
		p.params = lp
	}
}

// UpdateLinkParams applies mutate to the defaults, every per-pair
// override, and every live pipe — the runtime fault-injection knob the
// chaos scheduler turns mid-run (Dummynet `pipe config` on a running
// experiment). Packets already in flight keep their scheduled arrival
// times.
func (n *Network) UpdateLinkParams(mutate func(lp *LinkParams)) {
	mutate(&n.def)
	for key := range n.perPair {
		lp := n.perPair[key]
		mutate(&lp)
		n.perPair[key] = lp
	}
	for _, p := range n.pipes {
		mutate(&p.params)
	}
	for _, p := range n.ports {
		mutate(&p.params)
	}
}

// UpdateLinkParamsBetween applies mutate to the one-directional pipe
// from src to dst, materializing a per-pair override from the current
// effective parameters when none exists yet.
func (n *Network) UpdateLinkParamsBetween(src, dst Addr, mutate func(lp *LinkParams)) {
	key := pipeKey{src, dst}
	lp, ok := n.perPair[key]
	if !ok {
		if p, live := n.pipes[key]; live {
			lp = p.params
		} else {
			lp = n.def
		}
	}
	mutate(&lp)
	n.perPair[key] = lp
	if p, live := n.pipes[key]; live {
		p.params = lp
	}
}

// NewNode adds a node named name.
func (n *Network) NewNode(name string) *Node {
	node := &Node{net: n, name: name, protos: make(map[uint8]Handler)}
	n.nodes = append(n.nodes, node)
	return node
}

// Nodes returns all nodes in creation order.
func (n *Network) Nodes() []*Node { return n.nodes }

// Lookup returns the interface owning addr, or nil.
func (n *Network) Lookup(addr Addr) *Iface { return n.routes[addr] }

// SetIfaceDown marks the interface with the given address down (or up).
// Packets to or from a down interface are silently dropped, as with an
// unplugged cable.
func (n *Network) SetIfaceDown(addr Addr, down bool) {
	if ifc := n.routes[addr]; ifc != nil {
		ifc.down = down
	}
}

// SetSubnetDown marks every interface on the subnet down (or up),
// simulating the failure of one of the independent networks in the
// paper's multihoming setup.
func (n *Network) SetSubnetDown(subnet int, down bool) {
	for addr, ifc := range n.routes {
		if addr.Subnet() == subnet {
			ifc.down = down
		}
	}
}

// JoinGroup subscribes the interface owning member to the multicast
// group. Membership order is join order, which fixes the fan-out (and
// therefore RNG draw) order for deterministic replay. Joining twice is
// a no-op.
func (n *Network) JoinGroup(group, member Addr) {
	if !group.IsMulticast() {
		panic("netsim: JoinGroup on non-multicast address " + group.String())
	}
	ifc := n.routes[member]
	if ifc == nil {
		panic("netsim: JoinGroup for unknown member " + member.String())
	}
	if n.groups == nil {
		n.groups = make(map[Addr][]*Iface)
	}
	for _, m := range n.groups[group] {
		if m == ifc {
			return
		}
	}
	n.groups[group] = append(n.groups[group], ifc)
}

// LeaveGroup removes the interface owning member from the group,
// preserving the join order of the remaining members.
func (n *Network) LeaveGroup(group, member Addr) {
	ifc := n.routes[member]
	ms := n.groups[group]
	for i, m := range ms {
		if m == ifc {
			n.groups[group] = append(ms[:i:i], ms[i+1:]...)
			return
		}
	}
}

// GroupMembers returns the member addresses of a group in join order.
func (n *Network) GroupMembers(group Addr) []Addr {
	ms := n.groups[group]
	out := make([]Addr, len(ms))
	for i, m := range ms {
		out[i] = m.addr
	}
	return out
}

func (n *Network) pipe(src, dst Addr) *Pipe {
	key := pipeKey{src, dst}
	if p, ok := n.pipes[key]; ok {
		return p
	}
	lp, ok := n.perPair[key]
	if !ok {
		lp = n.def
	}
	p := &Pipe{params: lp}
	n.pipes[key] = p
	return p
}

func (n *Network) trace(ev string, pkt *Packet) {
	if n.Trace != nil {
		n.Trace(ev, pkt)
	}
}

// send routes a packet from the source interface to its destination.
func (n *Network) send(src *Iface, pkt *Packet) {
	if pkt.Dst.IsMulticast() {
		n.sendMulticast(src, pkt)
		return
	}
	n.Stats.PacketsSent++
	n.Stats.BytesSent += int64(pkt.WireSize())
	n.trace("send", pkt)
	if n.router != nil {
		if path := n.router.Route(pkt.Src, pkt.Dst); path == nil {
			n.Stats.PacketsNoRoute++
			pkt.Release()
			return
		} else if len(path) > 0 {
			n.sendRouted(src, pkt, path)
			return
		}
		// Empty path: the router defers to the direct pipe below.
	}
	dst := n.routes[pkt.Dst]
	if dst == nil {
		n.Stats.PacketsNoRoute++
		pkt.Release()
		return
	}
	if src.down || dst.down {
		n.Stats.PacketsDown++
		n.trace("drop-down", pkt)
		pkt.Release()
		return
	}
	pkt.dst = dst
	n.traverse(n.pipe(pkt.Src, pkt.Dst), pkt)
}

// traverse charges one crossing of a pipe or port to pkt and schedules
// pkt.arrive at the arrival time of every copy that survives it. It is
// the one place a packet meets a link, for mesh pipes, routed hops and
// multicast branches alike. The draw sequence is fixed: admin-down (no
// draw, so blocking one pair leaves every other link's RNG stream
// untouched), queue backlog, loss, duplication, corruption, then jitter
// per copy; each draw is taken only on links configured with a nonzero
// rate. The caller hands over one packet reference.
func (n *Network) traverse(p *Pipe, pkt *Packet) {
	if p.params.Down {
		n.Stats.PacketsBlocked++
		p.BlockedDrops++
		n.trace("drop-blocked", pkt)
		pkt.Release()
		return
	}
	now := n.K.Now()
	txTime := time.Duration(0)
	if p.params.Bandwidth > 0 {
		txTime = time.Duration(int64(pkt.WireSize()) * 8 * int64(time.Second) / p.params.Bandwidth)
	}
	start := now
	if p.busyUntil > start {
		start = p.busyUntil
	}
	// Only a busy pipe has a backlog. On an idle one busyUntil-now is
	// negative, and past ~9 s at 1 Gb/s its product with the bandwidth
	// overflows int64 into a spurious positive backlog.
	if p.params.QueueBytes > 0 && p.params.Bandwidth > 0 && p.busyUntil > now {
		backlogBytes := int64(p.busyUntil-now) * p.params.Bandwidth / (8 * int64(time.Second))
		if backlogBytes > int64(p.params.QueueBytes) {
			n.Stats.PacketsQueued++
			p.QueueDrops++
			n.trace("drop-queue", pkt)
			pkt.Release()
			return
		}
	}
	p.busyUntil = start + txTime
	if p.params.LossRate > 0 && n.K.Rand().Float64() < p.params.LossRate {
		n.Stats.PacketsLost++
		p.LossDrops++
		n.trace("drop-loss", pkt)
		pkt.Release()
		return
	}
	var dup *Packet
	if p.params.DupRate > 0 && n.K.Rand().Float64() < p.params.DupRate {
		n.Stats.PacketsDuped++
		dup = n.copyOf(pkt)
	}
	if p.params.CorruptRate > 0 && len(pkt.Payload) > 0 &&
		n.K.Rand().Float64() < p.params.CorruptRate {
		// Flip one random payload bit in place (a duplicate shares the
		// payload and is corrupted too, like a bad switch port).
		bit := n.K.Rand().Int63n(int64(len(pkt.Payload)) * 8)
		pkt.Payload[bit/8] ^= 1 << uint(bit%8)
		n.Stats.PacketsCorrupted++
		p.CorruptHits++
		n.trace("corrupt", pkt)
	}
	n.schedule(p, pkt, now)
	if dup != nil {
		n.schedule(p, dup, now)
	}
}

// schedule books one copy's arrival at the far end of p, drawing its
// jitter.
func (n *Network) schedule(p *Pipe, pkt *Packet, now time.Duration) {
	arrive := p.busyUntil - now + p.params.Delay
	if p.params.Jitter > 0 {
		arrive += time.Duration(n.K.Rand().Int63n(int64(p.params.Jitter)))
	}
	n.K.After(arrive, pkt.arriveFn)
}

// arrive runs when a packet emerges from the link it was crossing: it
// delivers it, or starts its next hop or multicast stage.
func (p *Packet) arrive() {
	n := p.net
	switch {
	case p.subtree != nil:
		n.mcastArrive(p, p.subtree.dsts, p.subtree.paths, p.hop)
	case p.hop+1 < len(p.path):
		p.hop++
		n.traverse(&p.path[p.hop].Pipe, p)
	default:
		n.deliver(p, p.dst)
	}
}

// deliver hands a packet to the receiving interface, consuming one
// reference.
func (n *Network) deliver(pkt *Packet, dst *Iface) {
	if dst.down {
		n.Stats.PacketsDown++
		pkt.Release()
		return
	}
	if pkt.mcast {
		n.Stats.McastDeliveries++
		n.trace("mrecv", pkt)
	} else {
		n.trace("recv", pkt)
	}
	dst.node.deliver(pkt, dst)
	pkt.Release()
}

// Pipe is one direction of a link between two interfaces.
type Pipe struct {
	params       LinkParams
	busyUntil    time.Duration
	LossDrops    int64
	QueueDrops   int64
	BlockedDrops int64
	CorruptHits  int64
}

// Params returns the pipe's current link parameters.
func (p *Pipe) Params() LinkParams { return p.params }

// SetParams replaces the pipe's link parameters. Topology tests use it
// to inject faults on one specific port without disturbing the rest of
// the fabric.
func (p *Pipe) SetParams(lp LinkParams) { p.params = lp }

// Port is one directed hop in a generated multi-hop topology: a switch
// egress (or host NIC) with its own serialization rate, propagation
// delay, and drop-tail queue, shared by every flow routed through it.
// Contention — the incast pathology — emerges from the shared busyUntil
// the same way it does on a mesh pipe.
type Port struct {
	Pipe
	name string
}

// Name returns the port's topology-assigned name (for diagnostics).
func (p *Port) Name() string { return p.name }

// NewPort registers a directed port with the given parameters. Ports
// participate in UpdateLinkParams and SetLoss like pipes do, so the
// chaos scheduler's link mutations reach generated topologies.
func (n *Network) NewPort(name string, lp LinkParams) *Port {
	p := &Port{Pipe: Pipe{params: lp}, name: name}
	n.ports = append(n.ports, p)
	return p
}

// Router supplies the hop sequence for a packet in a generated
// topology. Returning nil means "no route" (the packet is dropped and
// counted); returning an empty path falls back to the direct per-pair
// pipe, which keeps self-sends and loopback traffic on the mesh path.
type Router interface {
	Route(src, dst Addr) []*Port
}

// SetRouter installs a multi-hop router. With no router (the default)
// the network is the original full mesh of lazy per-pair pipes, and
// the send path is byte-for-byte the historical one.
func (n *Network) SetRouter(r Router) { n.router = r }

// RouterValue returns the installed router, or nil on a mesh network.
func (n *Network) RouterValue() Router { return n.router }

// sendRouted is the multi-hop twin of send: the packet crosses each
// port in order, store-and-forward, paying serialization + queueing +
// propagation per hop and taking loss/duplication/corruption draws only
// on hops configured with nonzero rates. Per-pair admin blocks
// (partition injection) still apply end to end, checked before any RNG
// draw.
func (n *Network) sendRouted(src *Iface, pkt *Packet, path []*Port) {
	dst := n.routes[pkt.Dst]
	if dst == nil {
		n.Stats.PacketsNoRoute++
		pkt.Release()
		return
	}
	if src.down || dst.down {
		n.Stats.PacketsDown++
		n.trace("drop-down", pkt)
		pkt.Release()
		return
	}
	if lp, ok := n.perPair[pipeKey{pkt.Src, pkt.Dst}]; ok && lp.Down {
		n.Stats.PacketsBlocked++
		n.trace("drop-blocked", pkt)
		pkt.Release()
		return
	}
	pkt.dst, pkt.path, pkt.hop = dst, path, 0
	n.traverse(&path[0].Pipe, pkt)
}

// sendMulticast fans a group-addressed packet out to every member of
// the group except those on the sending node. On a mesh network each
// member is reached over its own (src, member) pipe — independent
// serialization, queue, and loss draws per receiver, like sender-side
// replication at the NIC. On a routed topology the per-member unicast
// routes are merged by shared port prefix so shared hops are traversed
// (charged, and drawn) once on behalf of everyone behind them, with
// fan-out happening where the routes diverge — link-layer multicast in
// the switches. All delivered copies alias one payload, like the
// duplication path, so handlers must copy anything they keep.
func (n *Network) sendMulticast(src *Iface, pkt *Packet) {
	n.Stats.PacketsSent++
	n.Stats.PacketsMcast++
	n.Stats.BytesSent += int64(pkt.WireSize())
	n.trace("msend", pkt)
	if src.down {
		n.Stats.PacketsDown++
		n.trace("drop-down", pkt)
		pkt.Release()
		return
	}
	members := n.groups[pkt.Dst]
	if len(members) == 0 {
		n.Stats.PacketsNoRoute++
		pkt.Release()
		return
	}
	if n.router != nil {
		n.mcastRouted(src, pkt, members)
		return
	}
	for _, m := range members {
		if m.node != src.node {
			n.mcastDirect(pkt, m)
		}
	}
	pkt.Release()
}

// mcastDirect sends one multicast copy to member m over its own pipe.
func (n *Network) mcastDirect(pkt *Packet, m *Iface) {
	c := n.copyOf(pkt)
	c.dst, c.mcast = m, true
	n.traverse(n.pipe(pkt.Src, m.addr), c)
}

// mcastRouted resolves each member's unicast route and starts the
// prefix-merged hop walk. Members the router cannot reach are counted
// as no-route, and an empty route defers to the direct pipe exactly as
// the unicast path does.
func (n *Network) mcastRouted(src *Iface, pkt *Packet, members []*Iface) {
	var dsts []*Iface
	var paths [][]*Port
	for _, m := range members {
		if m.node == src.node {
			continue
		}
		path := n.router.Route(pkt.Src, m.addr)
		if path == nil {
			n.Stats.PacketsNoRoute++
			continue
		}
		if len(path) == 0 {
			n.mcastDirect(pkt, m)
			continue
		}
		dsts = append(dsts, m)
		paths = append(paths, path)
	}
	if len(dsts) > 0 {
		pkt.Retain()
		n.mcastHop(pkt, dsts, paths, 0)
	}
	pkt.Release()
}

// mcastHop advances one store-and-forward stage of a routed multicast
// subtree. Members are partitioned by their egress port at this stage
// in first-seen (join) order, so replay is deterministic; each distinct
// port is traversed once — one serialization slot, one loss draw — on
// behalf of every member behind it. The final hop of each route is the
// receiver's host-facing port, which no other member shares, so
// last-hop loss and queue draws are independent per receiver. The
// caller hands over one packet reference per call.
func (n *Network) mcastHop(pkt *Packet, dsts []*Iface, paths [][]*Port, stage int) {
	type subgroup struct {
		port *Port
		idx  []int
	}
	var groups []subgroup
	for i := range paths {
		p := paths[i][stage]
		found := false
		for g := range groups {
			if groups[g].port == p {
				groups[g].idx = append(groups[g].idx, i)
				found = true
				break
			}
		}
		if !found {
			groups = append(groups, subgroup{port: p, idx: []int{i}})
		}
	}
	for _, g := range groups {
		sub := &subtree{dsts: make([]*Iface, len(g.idx)), paths: make([][]*Port, len(g.idx))}
		for j, i := range g.idx {
			sub.dsts[j], sub.paths[j] = dsts[i], paths[i]
		}
		c := n.copyOf(pkt)
		c.mcast, c.hop, c.subtree = true, stage, sub
		n.traverse(&g.port.Pipe, c)
	}
	pkt.Release()
}

// mcastArrive handles a multicast copy emerging from a port: members
// whose route ends at this stage are delivered, the rest continue to
// the next stage as one subtree.
func (n *Network) mcastArrive(pkt *Packet, dsts []*Iface, paths [][]*Port, stage int) {
	var contDsts []*Iface
	var contPaths [][]*Port
	for i := range paths {
		if stage == len(paths[i])-1 {
			pkt.Retain()
			n.deliver(pkt, dsts[i])
		} else {
			contDsts = append(contDsts, dsts[i])
			contPaths = append(contPaths, paths[i])
		}
	}
	if len(contDsts) > 0 {
		pkt.Retain()
		n.mcastHop(pkt, contDsts, contPaths, stage+1)
	}
	pkt.Release()
}

// Handler receives packets demultiplexed to a protocol on a node.
type Handler func(pkt *Packet, ifc *Iface)

// Node is a host with one or more interfaces.
type Node struct {
	net    *Network
	name   string
	ifaces []*Iface
	protos map[uint8]Handler
}

// Name returns the node name.
func (nd *Node) Name() string { return nd.name }

// Network returns the owning network.
func (nd *Node) Network() *Network { return nd.net }

// Kernel returns the simulation kernel.
func (nd *Node) Kernel() *sim.Kernel { return nd.net.K }

// AddInterface attaches an interface with the given address.
func (nd *Node) AddInterface(addr Addr) *Iface {
	if nd.net.routes[addr] != nil {
		panic("netsim: duplicate address " + addr.String())
	}
	ifc := &Iface{node: nd, addr: addr}
	nd.ifaces = append(nd.ifaces, ifc)
	nd.net.routes[addr] = ifc
	return ifc
}

// Interfaces returns the node's interfaces in creation order.
func (nd *Node) Interfaces() []*Iface { return nd.ifaces }

// Addrs returns the addresses of all the node's interfaces.
func (nd *Node) Addrs() []Addr {
	out := make([]Addr, len(nd.ifaces))
	for i, ifc := range nd.ifaces {
		out[i] = ifc.addr
	}
	return out
}

// Addr returns the node's primary (first) address.
func (nd *Node) Addr() Addr { return nd.ifaces[0].addr }

// Handle registers the handler for an IP protocol number.
func (nd *Node) Handle(proto uint8, h Handler) { nd.protos[proto] = h }

// Owns reports whether addr belongs to one of the node's interfaces.
func (nd *Node) Owns(addr Addr) bool {
	for _, ifc := range nd.ifaces {
		if ifc.addr == addr {
			return true
		}
	}
	return false
}

// MTU returns the payload MTU for packets sent from src to dst: the
// minimum along the routed path in a generated topology, the per-pair
// pipe's otherwise.
func (nd *Node) MTU(src, dst Addr) int {
	if nd.net.router != nil {
		if path := nd.net.router.Route(src, dst); len(path) > 0 {
			m := path[0].params.mtu()
			for _, p := range path[1:] {
				if pm := p.params.mtu(); pm < m {
					m = pm
				}
			}
			return m
		}
	}
	return nd.net.pipe(src, dst).params.mtu()
}

// NewPacket wraps a payload obtained from wire.GetBuf in a pooled packet
// from the network's free list. The caller owns the one reference until
// it hands the packet to Send.
func (nd *Node) NewPacket(src, dst Addr, proto uint8, payload []byte) *Packet {
	countPooled(1)
	p := nd.net.alloc()
	p.Src, p.Dst, p.Proto, p.Payload = src, dst, proto, payload
	p.refs, p.pooled = 1, true
	return p
}

// Send transmits a packet whose Src must be one of the node's interface
// addresses. It takes over the caller's reference.
func (nd *Node) Send(pkt *Packet) {
	for _, ifc := range nd.ifaces {
		if ifc.addr == pkt.Src {
			if pkt.net != nd.net {
				pkt = nd.net.adopt(pkt)
			}
			nd.net.send(ifc, pkt)
			return
		}
	}
	panic(fmt.Sprintf("netsim: node %s sending from foreign address %s", nd.name, pkt.Src))
}

func (nd *Node) deliver(pkt *Packet, ifc *Iface) {
	if h := nd.protos[pkt.Proto]; h != nil {
		h(pkt, ifc)
	}
}

// Iface is a network interface bound to one address.
type Iface struct {
	node *Node
	addr Addr
	down bool
}

// Addr returns the interface address.
func (i *Iface) Addr() Addr { return i.addr }

// Node returns the owning node.
func (i *Iface) Node() *Node { return i.node }

// Down reports whether the interface is administratively down.
func (i *Iface) Down() bool { return i.down }

// Cluster builds the paper's testbed: n nodes, each with ifacesPerNode
// interfaces on distinct subnets (three in the paper), full-mesh
// connectivity with the given default link parameters.
func Cluster(k *sim.Kernel, n, ifacesPerNode int, lp LinkParams) (*Network, []*Node) {
	net := NewNetwork(k)
	net.SetDefaultLinkParams(lp)
	nodes := make([]*Node, n)
	for i := 0; i < n; i++ {
		nd := net.NewNode(fmt.Sprintf("n%d", i))
		for s := 0; s < ifacesPerNode; s++ {
			nd.AddInterface(MakeAddr(s, i+1))
		}
		nodes[i] = nd
	}
	return net, nodes
}
