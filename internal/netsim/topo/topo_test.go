package topo

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/testenv"
	"repro/internal/wire"
)

func TestFatTreeStructure(t *testing.T) {
	k := sim.New(1)
	n, err := Build(k, 16, Config{Kind: FatTree})
	if err != nil {
		t.Fatal(err)
	}
	// 16 hosts auto-size to radix 4: 4 pods x (2 edge + 2 agg) + 4 cores.
	if n.Switches != 20 {
		t.Fatalf("k=4 fat-tree has %d switches, want 20", n.Switches)
	}
	if len(n.Hosts) != 16 {
		t.Fatalf("hosts = %d, want 16", len(n.Hosts))
	}
	if n.MaxHops != 6 {
		t.Fatalf("max hops = %d, want 6", n.MaxHops)
	}
	// 1024 hosts need radix 16 (16^3/4 = 1024).
	big, err := Build(sim.New(1), 1024, Config{Kind: FatTree})
	if err != nil {
		t.Fatal(err)
	}
	if len(big.Hosts) != 1024 {
		t.Fatalf("hosts = %d, want 1024", len(big.Hosts))
	}
	if big.Switches != 2*16*8+64 {
		t.Fatalf("k=16 fat-tree has %d switches, want %d", big.Switches, 2*16*8+64)
	}
	if _, err := Build(sim.New(1), 17, Config{Kind: FatTree, K: 4}); err == nil {
		t.Fatal("17 hosts on a k=4 tree must fail")
	}
	if _, err := Build(sim.New(1), 8, Config{Kind: FatTree, K: 3}); err == nil {
		t.Fatal("odd radix must fail")
	}
}

func TestFatTreeRouteShape(t *testing.T) {
	k := sim.New(1)
	n, err := Build(k, 16, Config{Kind: FatTree, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	ft := func(h int) netsim.Addr { return n.Hosts[h].Addr() }
	r := routerOf(t, n)
	cases := []struct {
		src, dst, hops int
	}{
		{0, 1, 2},  // same edge
		{0, 2, 4},  // same pod, different edge
		{0, 4, 6},  // different pod
		{3, 15, 6}, // far corner
	}
	for _, c := range cases {
		p := r.Route(ft(c.src), ft(c.dst))
		if len(p) != c.hops {
			t.Fatalf("route %d->%d has %d hops, want %d", c.src, c.dst, len(p), c.hops)
		}
		// Deterministic ECMP: the same flow always takes the same path,
		// and the route is computed once and shared.
		q := r.Route(ft(c.src), ft(c.dst))
		if len(q) != len(p) || &q[0] != &p[0] {
			t.Fatalf("route %d->%d was rebuilt: a second Route must return the same backing array", c.src, c.dst)
		}
	}
	if p := r.Route(ft(5), ft(5)); p == nil || len(p) != 0 {
		t.Fatal("self route must defer to the direct pipe (empty non-nil path)")
	}
	if p := r.Route(netsim.MakeAddr(3, 9), ft(0)); p != nil {
		t.Fatal("foreign source must have no route")
	}
}

func routerOf(t *testing.T, n *Net) netsim.Router {
	t.Helper()
	return n.Network.RouterValue()
}

// A pooled packet sent across pods allocates nothing in steady state:
// its route is the pair's cached one, and the struct, payload and hop
// events are pooled as on the mesh.
func TestFatTreeSendAllocFree(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	k := sim.New(1)
	n, err := Build(k, 16, Config{Kind: FatTree, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := n.Hosts[0], n.Hosts[12]
	got := 0
	dst.Handle(netsim.ProtoTCP, func(*netsim.Packet, *netsim.Iface) { got++ })
	// Bursts of 100 stay inside the host port's 256 KiB queue.
	bursts := func(count int) {
		for b := 0; b < count; b++ {
			for i := 0; i < 100; i++ {
				src.Send(src.NewPacket(src.Addr(), dst.Addr(), netsim.ProtoTCP, wire.GetBuf(1000)))
			}
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		}
	}
	bursts(10)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	bursts(100)
	runtime.ReadMemStats(&after)
	if d := after.TotalAlloc - before.TotalAlloc; d != 0 {
		t.Errorf("10000 cross-pod sends allocated %d bytes, want 0", d)
	}
	if got != 11000 || netsim.LivePooledPackets() != 0 {
		t.Errorf("delivered %d of 11000 packets, %d still live", got, netsim.LivePooledPackets())
	}
}

// TestFatTreeDelivery sends one packet across pods and checks
// store-and-forward arithmetic: each hop charges serialization plus
// propagation.
func TestFatTreeDelivery(t *testing.T) {
	k := sim.New(1)
	n, err := Build(k, 16, Config{Kind: FatTree, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	src, dst := n.Hosts[0], n.Hosts[12]
	var got []byte
	var at time.Duration
	dst.Handle(netsim.ProtoTCP, func(pkt *netsim.Packet, ifc *netsim.Iface) {
		got = append([]byte(nil), pkt.Payload...)
		at = k.Now()
	})
	payload := make([]byte, 1000)
	payload[0] = 0xAB
	k.After(0, func() {
		src.Send(&netsim.Packet{Src: src.Addr(), Dst: dst.Addr(), Proto: netsim.ProtoTCP, Payload: payload})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got == nil || got[0] != 0xAB {
		t.Fatal("packet not delivered")
	}
	// 6 hops x (tx + 5 µs): tx = 1020 B * 8 / 1 Gb/s = 8.16 µs.
	tx := time.Duration(int64(1020) * 8 * int64(time.Second) / 1e9)
	want := 6 * (tx + 5*time.Microsecond)
	if at != want {
		t.Fatalf("cross-pod delivery at %v, want %v", at, want)
	}
	if n.Network.Stats.PacketsSent != 1 {
		t.Fatalf("PacketsSent = %d, want 1 (hops are not packet sends)", n.Network.Stats.PacketsSent)
	}
}

// TestFatTreeIncast drives an N-to-1 fan-in and checks the receiver's
// edge-to-host port serializes the aggregate: total time ~= N x tx, and
// a tight queue bound sheds packets at that port.
func TestFatTreeIncast(t *testing.T) {
	k := sim.New(1)
	n, err := Build(k, 16, Config{Kind: FatTree, K: 4})
	if err != nil {
		t.Fatal(err)
	}
	recv := 0
	n.Hosts[0].Handle(netsim.ProtoTCP, func(pkt *netsim.Packet, ifc *netsim.Iface) { recv++ })
	senders := 15
	size := 1000
	k.After(0, func() {
		for s := 1; s <= senders; s++ {
			src := n.Hosts[s]
			src.Send(&netsim.Packet{Src: src.Addr(), Dst: n.Hosts[0].Addr(), Proto: netsim.ProtoTCP, Payload: make([]byte, size)})
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if recv != senders {
		t.Fatalf("received %d packets, want %d", recv, senders)
	}
	tx := time.Duration(int64(size+20) * 8 * int64(time.Second) / 1e9)
	// The last arrival must be gated by the shared down-port draining
	// all 15 transmissions, not by path latency.
	if k.Now() < time.Duration(senders)*tx {
		t.Fatalf("incast drained in %v, faster than the bottleneck port allows (%v)", k.Now(), time.Duration(senders)*tx)
	}

	// Same fan-in with a queue bound of ~4 packets must shed load at
	// exactly one place: the receiver's edge-to-host port.
	k2 := sim.New(1)
	lp := defaultLink()
	lp.QueueBytes = 4 * (size + 20)
	n2, err := Build(k2, 16, Config{Kind: FatTree, K: 4, HostLink: &lp})
	if err != nil {
		t.Fatal(err)
	}
	recv2 := 0
	n2.Hosts[0].Handle(netsim.ProtoTCP, func(pkt *netsim.Packet, ifc *netsim.Iface) { recv2++ })
	k2.After(0, func() {
		for s := 1; s <= senders; s++ {
			src := n2.Hosts[s]
			src.Send(&netsim.Packet{Src: src.Addr(), Dst: n2.Hosts[0].Addr(), Proto: netsim.ProtoTCP, Payload: make([]byte, size)})
		}
	})
	if err := k2.Run(); err != nil {
		t.Fatal(err)
	}
	if n2.Network.Stats.PacketsQueued == 0 {
		t.Fatal("tight queue bound produced no incast drops")
	}
	if recv2+int(n2.Network.Stats.PacketsQueued) != senders {
		t.Fatalf("delivered %d + dropped %d != sent %d", recv2, n2.Network.Stats.PacketsQueued, senders)
	}
}

// TestTopoDeterminism runs the same incast twice and checks the event
// outcome is bit-identical (no RNG draws, no map iteration in routing).
func TestTopoDeterminism(t *testing.T) {
	run := func() (time.Duration, int64) {
		k := sim.New(7)
		n, err := Build(k, 64, Config{Kind: FatTree})
		if err != nil {
			t.Fatal(err)
		}
		n.Hosts[0].Handle(netsim.ProtoTCP, func(pkt *netsim.Packet, ifc *netsim.Iface) {})
		k.After(0, func() {
			for s := 1; s < 64; s++ {
				src := n.Hosts[s]
				src.Send(&netsim.Packet{Src: src.Addr(), Dst: n.Hosts[0].Addr(), Proto: netsim.ProtoTCP, Payload: make([]byte, 512)})
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return k.Now(), n.Network.Stats.BytesSent
	}
	t1, b1 := run()
	t2, b2 := run()
	if t1 != t2 || b1 != b2 {
		t.Fatalf("two identical runs diverged: %v/%d vs %v/%d", t1, b1, t2, b2)
	}
}
