package netsim

import (
	"testing"
	"time"

	"repro/internal/sim"
	"repro/internal/testenv"
	"repro/internal/wire"
)

func twoNodes(seed int64, lp LinkParams) (*sim.Kernel, *Network, *Node, *Node) {
	k := sim.New(seed)
	net := NewNetwork(k)
	net.SetDefaultLinkParams(lp)
	a := net.NewNode("a")
	a.AddInterface(MakeAddr(0, 1))
	b := net.NewNode("b")
	b.AddInterface(MakeAddr(0, 2))
	return k, net, a, b
}

func TestAddrString(t *testing.T) {
	a := MakeAddr(2, 7)
	if a.String() != "10.2.0.7" {
		t.Fatalf("addr = %s", a)
	}
	if a.Subnet() != 2 {
		t.Fatalf("subnet = %d", a.Subnet())
	}
}

func TestDeliveryLatency(t *testing.T) {
	lp := LinkParams{Delay: time.Millisecond, Bandwidth: 8000} // 1000 bytes/s
	k, _, a, b := twoNodes(1, lp)
	var arrived time.Duration
	b.Handle(99, func(pkt *Packet, ifc *Iface) { arrived = k.Now() })
	payload := make([]byte, 80) // 100 bytes on wire = 100ms serialization
	a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: 99, Payload: payload})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 100*time.Millisecond + time.Millisecond
	if arrived != want {
		t.Fatalf("arrived at %v, want %v", arrived, want)
	}
}

func TestSerializationQueuing(t *testing.T) {
	lp := LinkParams{Delay: 0, Bandwidth: 8000, QueueBytes: 1 << 20}
	k, _, a, b := twoNodes(1, lp)
	var times []time.Duration
	b.Handle(99, func(pkt *Packet, ifc *Iface) { times = append(times, k.Now()) })
	for i := 0; i < 3; i++ {
		a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: 99, Payload: make([]byte, 80)})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(times) != 3 {
		t.Fatalf("delivered %d", len(times))
	}
	// Back-to-back packets serialize at 100ms each.
	for i, want := range []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 300 * time.Millisecond} {
		if times[i] != want {
			t.Fatalf("pkt %d at %v, want %v", i, times[i], want)
		}
	}
}

func TestBernoulliLoss(t *testing.T) {
	lp := DefaultLinkParams()
	lp.LossRate = 0.1
	lp.Bandwidth = 0 // infinite, so the drop-tail queue never engages
	k, net, a, b := twoNodes(7, lp)
	got := 0
	b.Handle(99, func(pkt *Packet, ifc *Iface) { got++ })
	const n = 10000
	for i := 0; i < n; i++ {
		a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: 99, Payload: make([]byte, 100)})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	lost := n - got
	if lost < 800 || lost > 1200 {
		t.Fatalf("lost %d of %d at 10%% loss", lost, n)
	}
	if net.Stats.PacketsLost != int64(lost) {
		t.Fatalf("stats.PacketsLost = %d, want %d", net.Stats.PacketsLost, lost)
	}
}

func TestQueueDrop(t *testing.T) {
	lp := LinkParams{Bandwidth: 8000, QueueBytes: 250} // ~2 packets of backlog
	k, net, a, b := twoNodes(1, lp)
	got := 0
	b.Handle(99, func(pkt *Packet, ifc *Iface) { got++ })
	for i := 0; i < 10; i++ {
		a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: 99, Payload: make([]byte, 80)})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if net.Stats.PacketsQueued == 0 {
		t.Fatal("no queue drops despite overload")
	}
	if got+int(net.Stats.PacketsQueued) != 10 {
		t.Fatalf("got %d + dropped %d != 10", got, net.Stats.PacketsQueued)
	}
}

// TestIdlePipeNotQueueDropped: a pipe idle for seconds has no backlog.
// The backlog of an idle pipe was once computed from the negative
// busyUntil-now, whose product with a 1 Gb/s bandwidth overflows past
// ~9 s of idleness and read as a full queue.
func TestIdlePipeNotQueueDropped(t *testing.T) {
	for _, idle := range []time.Duration{10 * time.Second, 30 * time.Second, 300 * time.Second} {
		k, net, a, b := twoNodes(1, DefaultLinkParams())
		got := 0
		b.Handle(99, func(pkt *Packet, ifc *Iface) { got++ })
		send := func() { a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: 99, Payload: make([]byte, 1000)}) }
		send()
		k.After(idle, send)
		k.After(2*idle, send)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if got != 3 || net.Stats.PacketsQueued != 0 {
			t.Errorf("idle %v: delivered %d of 3, %d queue drops", idle, got, net.Stats.PacketsQueued)
		}
	}
}

func TestIfaceDown(t *testing.T) {
	k, net, a, b := twoNodes(1, DefaultLinkParams())
	got := 0
	b.Handle(99, func(pkt *Packet, ifc *Iface) { got++ })
	net.SetIfaceDown(b.Addr(), true)
	a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: 99, Payload: []byte{1}})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatal("packet delivered to down interface")
	}
	net.SetIfaceDown(b.Addr(), false)
	a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: 99, Payload: []byte{1}})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatal("packet not delivered after interface up")
	}
}

func TestSubnetDownMultihomed(t *testing.T) {
	k := sim.New(1)
	net, nodes := Cluster(k, 2, 3, DefaultLinkParams())
	a, b := nodes[0], nodes[1]
	if len(b.Addrs()) != 3 {
		t.Fatalf("expected 3 interfaces, got %d", len(b.Addrs()))
	}
	got := map[int]int{}
	b.Handle(99, func(pkt *Packet, ifc *Iface) { got[ifc.Addr().Subnet()]++ })
	net.SetSubnetDown(0, true)
	for s := 0; s < 3; s++ {
		a.Send(&Packet{Src: a.Addrs()[s], Dst: b.Addrs()[s], Proto: 99, Payload: []byte{1}})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != 0 || got[1] != 1 || got[2] != 1 {
		t.Fatalf("deliveries per subnet: %v", got)
	}
}

func TestPerPairOverride(t *testing.T) {
	k, net, a, b := twoNodes(1, DefaultLinkParams())
	net.SetLinkParamsBetween(a.Addr(), b.Addr(), LinkParams{Delay: time.Second, Bandwidth: 1e9})
	var fwd, rev time.Duration
	b.Handle(99, func(pkt *Packet, ifc *Iface) { fwd = k.Now() })
	a.Handle(99, func(pkt *Packet, ifc *Iface) { rev = k.Now() })
	a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: 99, Payload: []byte{1}})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	start := k.Now()
	b.Send(&Packet{Src: b.Addr(), Dst: a.Addr(), Proto: 99, Payload: []byte{1}})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fwd < time.Second {
		t.Fatalf("forward delay %v, want >= 1s", fwd)
	}
	if rev-start > 100*time.Millisecond {
		t.Fatalf("reverse should use default params, took %v", rev-start)
	}
}

func TestSetLossAppliesEverywhere(t *testing.T) {
	k, net, a, b := twoNodes(3, DefaultLinkParams())
	got := 0
	b.Handle(99, func(pkt *Packet, ifc *Iface) { got++ })
	// Create the pipe first, then set loss; existing pipes must update.
	a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: 99, Payload: []byte{1}})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	net.SetLoss(1.0)
	a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: 99, Payload: []byte{1}})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("got %d deliveries, want 1 (second packet lost)", got)
	}
}

func TestCorruptRateFlipsOneBit(t *testing.T) {
	lp := DefaultLinkParams()
	lp.CorruptRate = 1.0
	k, net, a, b := twoNodes(5, lp)
	const n = 50
	flipped := 0
	b.Handle(99, func(pkt *Packet, ifc *Iface) {
		// Count bits differing from the all-zero original.
		diff := 0
		for _, c := range pkt.Payload {
			for ; c != 0; c &= c - 1 {
				diff++
			}
		}
		if diff != 1 {
			t.Errorf("packet has %d flipped bits, want exactly 1", diff)
		}
		flipped++
	})
	for i := 0; i < n; i++ {
		a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: 99, Payload: make([]byte, 64)})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if flipped != n {
		t.Fatalf("delivered %d of %d (corruption must not drop)", flipped, n)
	}
	if net.Stats.PacketsCorrupted != n {
		t.Fatalf("stats.PacketsCorrupted = %d, want %d", net.Stats.PacketsCorrupted, n)
	}
}

func TestLinkDownBlocksAndCounts(t *testing.T) {
	k, net, a, b := twoNodes(1, DefaultLinkParams())
	got := 0
	b.Handle(99, func(pkt *Packet, ifc *Iface) { got++ })
	net.UpdateLinkParamsBetween(a.Addr(), b.Addr(), func(lp *LinkParams) { lp.Down = true })
	a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: 99, Payload: []byte{1}})
	// The reverse direction is its own pipe and stays up.
	b.Send(&Packet{Src: b.Addr(), Dst: a.Addr(), Proto: 99, Payload: []byte{1}})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatal("packet crossed an administratively-down link")
	}
	if net.Stats.PacketsBlocked != 1 {
		t.Fatalf("stats.PacketsBlocked = %d, want 1", net.Stats.PacketsBlocked)
	}
	net.UpdateLinkParamsBetween(a.Addr(), b.Addr(), func(lp *LinkParams) { lp.Down = false })
	a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: 99, Payload: []byte{1}})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatal("packet not delivered after link came back up")
	}
}

// TestRuntimeMutationNoReorder changes link bandwidth while packets are
// queued on the pipe: arrival times are computed at send time, so
// in-flight packets must keep their order relative to packets sent
// after the change, never overtaking or being overtaken.
func TestRuntimeMutationNoReorder(t *testing.T) {
	lp := LinkParams{Bandwidth: 8000, QueueBytes: 1 << 20} // 1000 bytes/s
	k, net, a, b := twoNodes(1, lp)
	var order []int
	b.Handle(99, func(pkt *Packet, ifc *Iface) { order = append(order, int(pkt.Payload[0])) })
	send := func(i int) {
		p := make([]byte, 80) // 100 bytes on wire = 100 ms serialization
		p[0] = byte(i)
		a.Send(&Packet{Src: a.Addr(), Dst: b.Addr(), Proto: 99, Payload: p})
	}
	for i := 0; i < 5; i++ {
		send(i)
	}
	// Mid-drain, make the link 1000x faster; the five queued packets
	// still own their original arrival times.
	k.After(150*time.Millisecond, func() {
		net.UpdateLinkParams(func(lp *LinkParams) { lp.Bandwidth = 8e6 })
		for i := 5; i < 10; i++ {
			send(i)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 10 {
		t.Fatalf("delivered %d of 10", len(order))
	}
	for i, got := range order {
		if got != i {
			t.Fatalf("delivery order %v: packet %d overtook", order, got)
		}
	}
}

func TestMTU(t *testing.T) {
	lp := DefaultLinkParams()
	lp.MTU = 9000
	k, _, a, b := twoNodes(1, lp)
	_ = k
	if a.MTU(a.Addr(), b.Addr()) != 9000 {
		t.Fatalf("MTU = %d", a.MTU(a.Addr(), b.Addr()))
	}
}

// A pooled packet sent across a 2-node mesh to a null handler allocates
// nothing in steady state: the struct comes from the network's free
// list, its arrival callback is bound once per struct, the payload is a
// wire-pool buffer, and the kernel's event is pooled too.
func TestMeshSendAllocFree(t *testing.T) {
	if testenv.Race {
		t.Skip("sync.Pool drops puts under the race detector")
	}
	k, _, a, b := twoNodes(1, DefaultLinkParams())
	got := 0
	b.Handle(99, func(*Packet, *Iface) { got++ })
	send := func() {
		a.Send(a.NewPacket(a.Addr(), b.Addr(), 99, wire.GetBuf(1500)))
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		send()
	}
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Errorf("Node.Send allocates %.2f times per packet, want 0", allocs)
	}
	if got != 1100+1 || LivePooledPackets() != 0 {
		t.Errorf("delivered %d packets, %d still live", got, LivePooledPackets())
	}
}
