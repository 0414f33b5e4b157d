package topo

import (
	"fmt"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// fatTree routes over the classic k-ary fat-tree (Al-Fahad-style): host
// h sits under edge switch h/(k/2) of pod h/((k/2)^2). Aggregation
// switch a of every pod uplinks to cores [a*k/2, (a+1)*k/2), so a core
// determines the aggregation switch it reaches in every pod — the
// standard two-level ECMP: choosing (agg, core) at the source edge
// fixes the whole path.
type fatTree struct {
	k     int
	hosts int

	// Directed egress ports, indexed by the switch the packet leaves.
	hostUp   []*netsim.Port   // host NIC -> edge
	hostDown []*netsim.Port   // edge -> host
	edgeUp   [][]*netsim.Port // [pod*k/2+edge][agg] edge -> aggregation
	aggDown  [][]*netsim.Port // [pod*k/2+agg][edge] aggregation -> edge
	aggUp    [][]*netsim.Port // [pod*k/2+agg][j] aggregation -> core a*k/2+j
	coreDown [][]*netsim.Port // [core][pod] core -> aggregation core/(k/2) of pod

	// routes[hs*hosts+hd] is the route from host hs to host hd, computed
	// on first use and shared by every later packet of the pair; the
	// table itself is allocated on the first Route. Routes are cut from
	// a chunked arena so a pair costs no allocation of its own.
	routes [][]*netsim.Port
	arena  []*netsim.Port
}

func buildFatTree(k *sim.Kernel, hosts, radix int, hostLP, fabricLP netsim.LinkParams) (*Net, error) {
	if radix == 0 {
		for radix = 4; radix*radix*radix/4 < hosts; radix += 2 {
		}
	}
	if radix < 2 || radix%2 != 0 {
		return nil, fmt.Errorf("topo: fat-tree radix must be even and >= 2, got %d", radix)
	}
	capacity := radix * radix * radix / 4
	if hosts > capacity {
		return nil, fmt.Errorf("topo: %d hosts exceed k=%d fat-tree capacity %d", hosts, radix, capacity)
	}
	net := netsim.NewNetwork(k)
	half := radix / 2
	nodes, hostUp := newHosts(net, hosts, hostLP)

	ft := &fatTree{k: radix, hosts: hosts, hostUp: hostUp}
	ft.hostDown = make([]*netsim.Port, hosts)
	for h := 0; h < hosts; h++ {
		ft.hostDown[h] = net.NewPort(hostLP)
	}
	nEdge := radix * half // == nAgg
	ft.edgeUp = make([][]*netsim.Port, nEdge)
	ft.aggDown = make([][]*netsim.Port, nEdge)
	ft.aggUp = make([][]*netsim.Port, nEdge)
	for i := 0; i < nEdge; i++ {
		ft.edgeUp[i] = make([]*netsim.Port, half)
		ft.aggDown[i] = make([]*netsim.Port, half)
		ft.aggUp[i] = make([]*netsim.Port, half)
		for j := 0; j < half; j++ {
			ft.edgeUp[i][j] = net.NewPort(fabricLP)
			ft.aggDown[i][j] = net.NewPort(fabricLP)
			ft.aggUp[i][j] = net.NewPort(fabricLP)
		}
	}
	nCore := half * half
	ft.coreDown = make([][]*netsim.Port, nCore)
	for c := 0; c < nCore; c++ {
		ft.coreDown[c] = make([]*netsim.Port, radix)
		for pod := 0; pod < radix; pod++ {
			ft.coreDown[c][pod] = net.NewPort(fabricLP)
		}
	}
	net.SetRouter(ft)
	ports := 2*hosts + nEdge*3*half + nCore*radix
	return &Net{
		Network:  net,
		Hosts:    nodes,
		Kind:     FatTree,
		Switches: 2*nEdge + nCore,
		Ports:    ports,
		MaxHops:  6,
	}, nil
}

// path carves an n-hop slice out of the arena.
func (ft *fatTree) path(n int) []*netsim.Port {
	if len(ft.arena) < n {
		ft.arena = make([]*netsim.Port, 4096)
	}
	p := ft.arena[:n:n]
	ft.arena = ft.arena[n:]
	return p
}

// Route returns the pair's cached route, computing it on first use: a
// fat-tree route depends only on (source host, destination host).
func (ft *fatTree) Route(src, dst netsim.Addr) []*netsim.Port {
	hs := hostIndex(src, ft.hosts)
	hd := hostIndex(dst, ft.hosts)
	if hs < 0 || hd < 0 {
		return nil
	}
	if hs == hd {
		// Loopback: defer to the direct pipe, like the mesh.
		return []*netsim.Port{}
	}
	if ft.routes == nil {
		ft.routes = make([][]*netsim.Port, ft.hosts*ft.hosts)
	}
	r := &ft.routes[hs*ft.hosts+hd]
	if *r == nil {
		*r = ft.route(hs, hd)
	}
	return *r
}

// route computes the hop sequence from host hs to host hd (hs != hd).
func (ft *fatTree) route(hs, hd int) []*netsim.Port {
	half := ft.k / 2
	es, ed := hs/half, hd/half // global edge indices
	if es == ed {
		p := ft.path(2)
		p[0] = ft.hostUp[hs]
		p[1] = ft.hostDown[hd]
		return p
	}
	ps, pd := es/half, ed/half // pods
	a := pathHash(hs, hd, 0) % half
	if ps == pd {
		p := ft.path(4)
		p[0] = ft.hostUp[hs]
		p[1] = ft.edgeUp[es][a]
		p[2] = ft.aggDown[ps*half+a][ed%half]
		p[3] = ft.hostDown[hd]
		return p
	}
	j := pathHash(hs, hd, 1) % half
	core := a*half + j
	p := ft.path(6)
	p[0] = ft.hostUp[hs]
	p[1] = ft.edgeUp[es][a]
	p[2] = ft.aggUp[ps*half+a][j]
	p[3] = ft.coreDown[core][pd]
	p[4] = ft.aggDown[pd*half+a][ed%half]
	p[5] = ft.hostDown[hd]
	return p
}
