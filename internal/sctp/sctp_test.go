package sctp

import (
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
)

// pair builds two single-homed nodes with SCTP stacks.
func pair(seed int64, lp netsim.LinkParams, cfg Config) (*sim.Kernel, *Stack, *Stack, *netsim.Network) {
	k := sim.New(seed)
	net := netsim.NewNetwork(k)
	net.SetDefaultLinkParams(lp)
	a := net.NewNode("a")
	a.AddInterface(netsim.MakeAddr(0, 1))
	b := net.NewNode("b")
	b.AddInterface(netsim.MakeAddr(0, 2))
	return k, NewStack(a, cfg), NewStack(b, cfg), net
}

// mpair builds two multihomed nodes (3 subnets each).
func mpair(seed int64, lp netsim.LinkParams, cfg Config) (*sim.Kernel, *Stack, *Stack, *netsim.Network, []*netsim.Node) {
	k := sim.New(seed)
	net, nodes := netsim.Cluster(k, 2, 3, lp)
	return k, NewStack(nodes[0], cfg), NewStack(nodes[1], cfg), net, nodes
}

func lan() netsim.LinkParams { return netsim.DefaultLinkParams() }

func TestHandshakeAndEcho(t *testing.T) {
	k, sa, sb, _ := pair(1, lan(), Config{HBDisable: true})
	srv, _ := sb.SocketConfig(5000, Config{HBDisable: true})
	srv.Listen()
	done := false
	k.Spawn("server", func(p *sim.Proc) {
		for {
			m, err := srv.RecvMsg(p)
			if err != nil {
				return
			}
			if m.Notification != NotifyNone {
				continue
			}
			if err := srv.SendMsg(p, m.Assoc, m.Stream, m.PPID, m.Data); err != nil {
				t.Error(err)
				return
			}
			return
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		cli, _ := sa.Socket(0)
		id, err := cli.Connect(p, []netsim.Addr{netsim.MakeAddr(0, 2)}, 5000, 10)
		if err != nil {
			t.Error(err)
			return
		}
		if err := cli.SendMsg(p, id, 3, 77, []byte("ping")); err != nil {
			t.Error(err)
			return
		}
		for {
			m, err := cli.RecvMsg(p)
			if err != nil {
				t.Error(err)
				return
			}
			if m.Notification != NotifyNone {
				continue
			}
			if string(m.Data) != "ping" || m.Stream != 3 || m.PPID != 77 {
				t.Errorf("echo mismatch: %q stream %d ppid %d", m.Data, m.Stream, m.PPID)
			}
			done = true
			return
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("echo did not complete")
	}
}

func TestCommUpNotification(t *testing.T) {
	k, sa, sb, _ := pair(2, lan(), Config{HBDisable: true})
	srv, _ := sb.Socket(5000)
	srv.Listen()
	var up int
	k.Spawn("server", func(p *sim.Proc) {
		m, err := srv.RecvMsg(p)
		if err == nil && m.Notification == NotifyCommUp {
			up++
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		cli, _ := sa.Socket(0)
		if _, err := cli.Connect(p, []netsim.Addr{netsim.MakeAddr(0, 2)}, 5000, 0); err != nil {
			t.Error(err)
		}
		m, err := cli.RecvMsg(p)
		if err == nil && m.Notification == NotifyCommUp {
			up++
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if up != 2 {
		t.Fatalf("COMM_UP notifications = %d, want 2", up)
	}
}

// sendRecvMany pushes count messages of size bytes from a to b on
// stream cycling and verifies content and per-stream ordering.
func sendRecvMany(t *testing.T, seed int64, lp netsim.LinkParams, cfg Config, count, size, streams int) time.Duration {
	t.Helper()
	k, sa, sb, _ := pair(seed, lp, cfg)
	srv, _ := sb.SocketConfig(5000, cfg)
	srv.Listen()
	received := 0
	lastSSN := make(map[uint16]int)
	k.Spawn("server", func(p *sim.Proc) {
		for received < count {
			m, err := srv.RecvMsg(p)
			if err != nil {
				t.Error(err)
				return
			}
			if m.Notification != NotifyNone {
				continue
			}
			if len(m.Data) != size {
				t.Errorf("msg size %d want %d", len(m.Data), size)
				return
			}
			for i := range m.Data {
				if m.Data[i] != byte(int(m.Stream)+i) {
					t.Errorf("corrupt payload on stream %d", m.Stream)
					return
				}
			}
			// Per-stream ordering invariant.
			if last, ok := lastSSN[m.Stream]; ok && int(m.SSN) != last+1 {
				t.Errorf("stream %d SSN %d after %d", m.Stream, m.SSN, last)
			}
			lastSSN[m.Stream] = int(m.SSN)
			received++
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		cli, _ := sa.SocketConfig(0, cfg)
		id, err := cli.Connect(p, []netsim.Addr{netsim.MakeAddr(0, 2)}, 5000, streams)
		if err != nil {
			t.Error(err)
			return
		}
		buf := make([]byte, size)
		for i := 0; i < count; i++ {
			st := uint16(i % streams)
			for j := range buf {
				buf[j] = byte(int(st) + j)
			}
			if err := cli.SendMsg(p, id, st, 0, buf); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if received != count {
		t.Fatalf("received %d of %d", received, count)
	}
	return k.Now()
}

func TestManySmallMessages(t *testing.T) {
	sendRecvMany(t, 3, lan(), Config{HBDisable: true}, 200, 100, 10)
}

func TestFragmentedMessages(t *testing.T) {
	// 30 KiB messages fragment into ~21 chunks each.
	sendRecvMany(t, 4, lan(), Config{HBDisable: true, SndBuf: 220 << 10, RcvBuf: 220 << 10}, 40, 30<<10, 10)
}

func TestMessagesUnderLoss(t *testing.T) {
	lp := lan()
	lp.LossRate = 0.02
	sendRecvMany(t, 5, lp, Config{HBDisable: true, SndBuf: 220 << 10, RcvBuf: 220 << 10}, 60, 10<<10, 10)
}

func TestHeavyLossIntegrity(t *testing.T) {
	lp := lan()
	lp.LossRate = 0.05
	sendRecvMany(t, 6, lp, Config{HBDisable: true}, 50, 2000, 4)
}

func TestSingleStreamOrdering(t *testing.T) {
	lp := lan()
	lp.LossRate = 0.03
	sendRecvMany(t, 7, lp, Config{HBDisable: true}, 100, 500, 1)
}

func TestMsgSizeLimit(t *testing.T) {
	k, sa, sb, _ := pair(8, lan(), Config{HBDisable: true, SndBuf: 32 << 10})
	srv, _ := sb.Socket(5000)
	srv.Listen()
	k.Spawn("client", func(p *sim.Proc) {
		cli, _ := sa.SocketConfig(0, Config{HBDisable: true, SndBuf: 32 << 10})
		id, err := cli.Connect(p, []netsim.Addr{netsim.MakeAddr(0, 2)}, 5000, 0)
		if err != nil {
			t.Error(err)
			return
		}
		// A message larger than the send buffer must be rejected with
		// ErrMsgSize — the limitation that drives the middleware's long
		// message chunking (paper §3.6).
		if err := cli.TrySendMsg(id, 0, 0, make([]byte, 33<<10)); err != ErrMsgSize {
			t.Errorf("err = %v, want ErrMsgSize", err)
		}
		if err := cli.TrySendMsg(id, 0, 0, make([]byte, 16<<10)); err != nil {
			t.Errorf("in-size message rejected: %v", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBadStream(t *testing.T) {
	k, sa, sb, _ := pair(9, lan(), Config{HBDisable: true, Streams: 4})
	srv, _ := sb.SocketConfig(5000, Config{HBDisable: true, Streams: 4})
	srv.Listen()
	k.Spawn("client", func(p *sim.Proc) {
		cli, _ := sa.SocketConfig(0, Config{HBDisable: true, Streams: 4})
		id, err := cli.Connect(p, []netsim.Addr{netsim.MakeAddr(0, 2)}, 5000, 4)
		if err != nil {
			t.Error(err)
			return
		}
		if err := cli.TrySendMsg(id, 4, 0, []byte("x")); err != ErrBadStream {
			t.Errorf("err = %v, want ErrBadStream", err)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestMultistreamIndependence is the protocol-level Figure 4 scenario:
// a message lost on stream 0 must not delay a later message on stream 1,
// while a single-stream association must deliver them in order.
func TestMultistreamIndependence(t *testing.T) {
	arrival := func(streams int) []uint16 {
		lp := lan()
		k, sa, sb, _ := pair(10, lp, Config{HBDisable: true})
		srv, _ := sb.Socket(5000)
		srv.Listen()
		var order []uint16
		k.Spawn("server", func(p *sim.Proc) {
			for len(order) < 2 {
				m, err := srv.RecvMsg(p)
				if err != nil {
					return
				}
				if m.Notification != NotifyNone {
					continue
				}
				order = append(order, m.Stream)
			}
		})
		k.Spawn("client", func(p *sim.Proc) {
			cli, _ := sa.Socket(0)
			id, err := cli.Connect(p, []netsim.Addr{netsim.MakeAddr(0, 2)}, 5000, 2)
			if err != nil {
				t.Error(err)
				return
			}
			net := sa.node.Network()
			// Lose exactly the next packet (message A).
			net.SetLoss(1.0)
			st1 := uint16(0)
			if streams > 1 {
				st1 = 1
			}
			if err := cli.SendMsg(p, id, 0, 0, []byte("msg-A")); err != nil {
				t.Error(err)
				return
			}
			net.SetLoss(0)
			if err := cli.SendMsg(p, id, st1, 0, []byte("msg-B")); err != nil {
				t.Error(err)
				return
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if len(order) != 2 {
			t.Fatalf("delivered %d messages", len(order))
		}
		return order
	}
	multi := arrival(2)
	if multi[0] != 1 || multi[1] != 0 {
		t.Errorf("multistream delivery order = %v, want [1 0] (B before A)", multi)
	}
	single := arrival(1)
	if single[0] != 0 || single[1] != 0 {
		t.Errorf("single-stream order = %v", single)
	}
}

func TestGracefulShutdown(t *testing.T) {
	k, sa, sb, _ := pair(11, lan(), Config{})
	srv, _ := sb.Socket(5000)
	srv.Listen()
	var cliDone, srvDone bool
	k.Spawn("server", func(p *sim.Proc) {
		for {
			m, err := srv.RecvMsg(p)
			if err != nil {
				return
			}
			if m.Notification == NotifyShutdownComplete {
				srvDone = true
				return
			}
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		cli, _ := sa.Socket(0)
		id, err := cli.Connect(p, []netsim.Addr{netsim.MakeAddr(0, 2)}, 5000, 0)
		if err != nil {
			t.Error(err)
			return
		}
		if err := cli.SendMsg(p, id, 0, 0, []byte("bye")); err != nil {
			t.Error(err)
			return
		}
		cli.CloseAssoc(id)
		for {
			m, err := cli.RecvMsg(p)
			if err != nil {
				return
			}
			if m.Notification == NotifyShutdownComplete {
				cliDone = true
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !cliDone || !srvDone {
		t.Fatalf("shutdown incomplete: client %v server %v", cliDone, srvDone)
	}
}

func TestAbortNotifiesPeer(t *testing.T) {
	k, sa, sb, _ := pair(12, lan(), Config{})
	srv, _ := sb.Socket(5000)
	srv.Listen()
	var lost bool
	k.Spawn("server", func(p *sim.Proc) {
		for {
			m, err := srv.RecvMsg(p)
			if err != nil {
				return
			}
			if m.Notification == NotifyCommLost {
				lost = true
				return
			}
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		cli, _ := sa.Socket(0)
		id, err := cli.Connect(p, []netsim.Addr{netsim.MakeAddr(0, 2)}, 5000, 0)
		if err != nil {
			t.Error(err)
			return
		}
		cli.Abort(id, "test")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !lost {
		t.Fatal("peer never saw COMM_LOST")
	}
}

func TestConnectTimeout(t *testing.T) {
	k, sa, _, net := pair(13, lan(), Config{})
	net.SetLoss(1.0)
	var connErr error
	k.Spawn("client", func(p *sim.Proc) {
		cli, _ := sa.Socket(0)
		_, connErr = cli.Connect(p, []netsim.Addr{netsim.MakeAddr(0, 2)}, 5000, 0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if connErr != ErrTimeout {
		t.Fatalf("err = %v, want ErrTimeout", connErr)
	}
}

func TestMultihomedFailover(t *testing.T) {
	cfg := Config{
		HBInterval:     500 * time.Millisecond,
		PathMaxRetrans: 2,
		RTOMin:         200 * time.Millisecond,
		RTOInitial:     200 * time.Millisecond,
	}
	k, sa, sb, net, nodes := mpair(14, lan(), cfg)
	srv, _ := sb.SocketConfig(5000, cfg)
	srv.Listen()
	received := 0
	const rounds = 30
	k.Spawn("server", func(p *sim.Proc) {
		for received < rounds {
			m, err := srv.RecvMsg(p)
			if err != nil {
				return
			}
			if m.Notification != NotifyNone {
				continue
			}
			received++
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		cli, _ := sa.SocketConfig(0, cfg)
		id, err := cli.Connect(p, nodes[1].Addrs(), 5000, 0)
		if err != nil {
			t.Error(err)
			return
		}
		a := cli.Assoc(id)
		for i := 0; i < rounds; i++ {
			if i == 10 {
				// Primary network fails mid-run.
				net.SetSubnetDown(0, true)
			}
			if err := cli.SendMsg(p, id, 0, 0, make([]byte, 1000)); err != nil {
				t.Error(err)
				return
			}
			p.Sleep(50 * time.Millisecond)
		}
		// Wait for retransmissions to drain.
		for a.totalFlight() > 0 || a.sched.pending() > 0 || a.rtxQ.Len() > 0 {
			p.Sleep(100 * time.Millisecond)
			if p.Now() > 5*time.Minute {
				t.Error("failover never drained")
				return
			}
		}
		if a.PrimaryPath().Subnet() == 0 {
			t.Error("primary path did not fail over off subnet 0")
		}
		if a.Statistics().Failovers == 0 {
			t.Error("no failover recorded")
		}
		// Shut down so the run ends: the surviving paths keep answering
		// heartbeats, which holds a live idle association open forever.
		cli.Close()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if received != rounds {
		t.Fatalf("received %d of %d despite multihoming", received, rounds)
	}
}

func TestRetransmitStatsUnderLoss(t *testing.T) {
	lp := lan()
	lp.LossRate = 0.03
	k, sa, sb, _ := pair(15, lp, Config{HBDisable: true, SndBuf: 220 << 10, RcvBuf: 220 << 10})
	srv, _ := sb.SocketConfig(5000, Config{HBDisable: true, SndBuf: 220 << 10, RcvBuf: 220 << 10})
	srv.Listen()
	var cli *Socket
	var id AssocID
	k.Spawn("server", func(p *sim.Proc) {
		n := 0
		for n < 50 {
			m, err := srv.RecvMsg(p)
			if err != nil {
				return
			}
			if m.Notification == NotifyNone {
				n++
			}
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		cli, _ = sa.SocketConfig(0, Config{HBDisable: true, SndBuf: 220 << 10, RcvBuf: 220 << 10})
		var err error
		id, err = cli.Connect(p, []netsim.Addr{netsim.MakeAddr(0, 2)}, 5000, 0)
		if err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 50; i++ {
			if err := cli.SendMsg(p, id, uint16(i%10), 0, make([]byte, 8000)); err != nil {
				t.Error(err)
				return
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	st := cli.Assoc(id)
	if st != nil {
		t.Log("assoc still open") // closed assocs are removed; stats were checked live
	}
}

func TestChecksumVerification(t *testing.T) {
	cfg := Config{HBDisable: true, ChecksumVerify: true}
	k, sa, sb, _ := pair(17, lan(), cfg)
	srv, _ := sb.SocketConfig(5000, cfg)
	srv.Listen()
	got := false
	k.Spawn("server", func(p *sim.Proc) {
		for {
			m, err := srv.RecvMsg(p)
			if err != nil {
				return
			}
			if m.Notification == NotifyNone && string(m.Data) == "checksummed" {
				got = true
				return
			}
		}
	})
	k.Spawn("client", func(p *sim.Proc) {
		cli, _ := sa.SocketConfig(0, cfg)
		id, err := cli.Connect(p, []netsim.Addr{netsim.MakeAddr(0, 2)}, 5000, 0)
		if err != nil {
			t.Error(err)
			return
		}
		cli.SendMsg(p, id, 0, 0, []byte("checksummed"))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !got {
		t.Fatal("message did not survive checksum verification")
	}
}

func TestDeterminism(t *testing.T) {
	lp := lan()
	lp.LossRate = 0.02
	d1 := sendRecvMany(t, 42, lp, Config{HBDisable: true}, 50, 3000, 5)
	d2 := sendRecvMany(t, 42, lp, Config{HBDisable: true}, 50, 3000, 5)
	if d1 != d2 {
		t.Fatalf("nondeterministic: %v vs %v", d1, d2)
	}
}
