package topo

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// buildMcastFabric joins every host of a freshly built fabric into one
// multicast group and installs per-host delivery counters.
func buildMcastFabric(t *testing.T, seed int64, hosts int, cfg Config) (*sim.Kernel, *Net, netsim.Addr, []int) {
	t.Helper()
	k := sim.New(seed)
	n, err := Build(k, hosts, cfg)
	if err != nil {
		t.Fatal(err)
	}
	group := netsim.MakeGroupAddr(3)
	got := make([]int, hosts)
	for h, host := range n.Hosts {
		n.Network.JoinGroup(group, host.Addr())
		idx := h
		host.Handle(99, func(pkt *netsim.Packet, ifc *netsim.Iface) { got[idx]++ })
	}
	return k, n, group, got
}

// TestFatTreeMulticastFanOut pins the routed multicast path through a
// fat-tree: one wire send reaches every other member exactly once, and
// the fabric replicates at switch stages rather than at the source (the
// delivery count exceeds the send count while PacketsSent stays 1).
func TestFatTreeMulticastFanOut(t *testing.T) {
	k, n, group, got := buildMcastFabric(t, 1, 16, Config{Kind: FatTree, K: 4})
	src := n.Hosts[0]
	k.After(0, func() {
		src.Send(&netsim.Packet{Src: src.Addr(), Dst: group, Proto: 99, Payload: []byte("mc")})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 {
		t.Fatalf("sender self-delivered %d copies", got[0])
	}
	for h := 1; h < len(got); h++ {
		if got[h] != 1 {
			t.Fatalf("host %d got %d copies, want 1", h, got[h])
		}
	}
	st := n.Network.Stats
	if st.PacketsSent != 1 || st.PacketsMcast != 1 {
		t.Fatalf("sent/mcast = %d/%d, want 1/1 (hops are not sends)", st.PacketsSent, st.PacketsMcast)
	}
	if st.McastDeliveries != 15 {
		t.Fatalf("deliveries = %d, want 15", st.McastDeliveries)
	}
}

// TestFatTreeMulticastSharedHopDraw is the routed dual of the mesh
// per-receiver-draw test in netsim: all 15 receiver paths leave host 0
// through the same up-port, so LossRate 1.0 burns the packet in ONE
// draw at that shared first hop — not one loss per receiver the way the
// mesh fallback does.
func TestFatTreeMulticastSharedHopDraw(t *testing.T) {
	k, n, group, got := buildMcastFabric(t, 1, 16, Config{Kind: FatTree, K: 4})
	n.Network.SetLoss(1.0)
	src := n.Hosts[0]
	k.After(0, func() {
		src.Send(&netsim.Packet{Src: src.Addr(), Dst: group, Proto: 99, Payload: []byte("mc")})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for h, g := range got {
		if g != 0 {
			t.Fatalf("host %d got %d copies through LossRate 1.0", h, g)
		}
	}
	if n.Network.Stats.PacketsLost != 1 {
		t.Fatalf("losses = %d, want 1 (single draw at the shared first hop)",
			n.Network.Stats.PacketsLost)
	}
}

// TestFatTreeMulticastSubtreeLoss drops the replicated copy on one
// host's last-hop port and checks the blast radius: only the host
// behind that port misses the packet.
func TestFatTreeMulticastSubtreeLoss(t *testing.T) {
	k, n, group, got := buildMcastFabric(t, 1, 16, Config{Kind: FatTree, K: 4})
	// The last hop toward host 5 is its edge switch's down-port; kill it.
	r := n.Network.RouterValue()
	path := r.Route(n.Hosts[0].Addr(), n.Hosts[5].Addr())
	if len(path) == 0 {
		t.Fatal("expected a routed path to host 5")
	}
	lossy := path[len(path)-1].Params()
	lossy.LossRate = 1.0
	path[len(path)-1].SetParams(lossy)
	src := n.Hosts[0]
	k.After(0, func() {
		src.Send(&netsim.Packet{Src: src.Addr(), Dst: group, Proto: 99, Payload: []byte("mc")})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for h := 1; h < len(got); h++ {
		want := 1
		if h == 5 {
			want = 0
		}
		if got[h] != want {
			t.Fatalf("host %d got %d copies, want %d", h, got[h], want)
		}
	}
	if n.Network.Stats.PacketsLost != 1 {
		t.Fatalf("losses = %d, want 1 (only host 5's last hop)", n.Network.Stats.PacketsLost)
	}
}
